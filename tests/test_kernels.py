import numpy as np

from coarseact._kernels import (
    kernel_backend,
    orbit_compose_sweep,
    orbit_pair_sweep,
    transporter_sweep,
)


def grid(radius, k):
    axes = [np.arange(-radius, radius + 1)] * k
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1).astype(float)


def test_backend_reports_a_name():
    assert kernel_backend() == "numpy"


def test_transporter_sweep_against_symbolic(shift):
    # the kernel realizes the same set as the exact transporter on the window
    from coarseact.actions import transporter
    from coarseact.boxes import box_set

    t = transporter(shift, box_set((0, 1)), box_set((5, 6)))
    lgrid = grid(10, 1)
    xgrid = grid(12, 1)
    out = transporter_sweep(
        lgrid, np.array([[1.0]]),
        np.array([0.0]), np.array([1.0]),
        np.array([5.0]), np.array([6.0]), xgrid,
    )
    got = {int(lgrid[i][0]) for i in range(len(lgrid)) if out[i]}
    want = {l for l in range(-10, 11) if t.member((l,))}
    assert got == want


def test_infinite_ends_travel_as_inf():
    m = np.array([[1.0]])
    out = transporter_sweep(
        grid(5, 1), m,
        np.array([-np.inf]), np.array([0.0]),
        np.array([-np.inf]), np.array([0.0]),
        grid(8, 1),
    )
    assert out.all()  # every shift of a lower ray meets the lower ray


def test_stacked_ends_are_the_union_of_single_boxes():
    # (pieces, d) ends give the OR of one call per pair of pieces
    m = np.array([[1.0], [-1.0]])
    lgrid, xgrid = grid(9, 1), grid(10, 2)
    b = [(np.array([-2.0, 0.0]), np.array([-1.0, 3.0])),
         (np.array([4.0, -np.inf]), np.array([4.0, -6.0]))]
    b2 = [(np.array([0.0, 0.0]), np.array([0.0, 0.0])),
          (np.array([7.0, -9.0]), np.array([np.inf, -8.0]))]
    stacked = transporter_sweep(
        lgrid, m,
        np.stack([lo for lo, _ in b]), np.stack([hi for _, hi in b]),
        np.stack([lo for lo, _ in b2]), np.stack([hi for _, hi in b2]),
        xgrid,
    )
    single = np.zeros(len(lgrid), dtype=bool)
    for lo, hi in b:
        for lo2, hi2 in b2:
            single |= transporter_sweep(lgrid, m, lo, hi, lo2, hi2, xgrid)
    assert single.any() and not single.all()
    assert (stacked == single).all()


def test_single_box_ends_still_work():
    # one box may pass (d,) ends to every sweep, as the fixed benchmark cases do
    m = np.array([[1.0]])
    lo, hi = np.array([0.0]), np.array([2.0])
    lgrid = grid(6, 1)
    hit = transporter_sweep(lgrid, m, lo, hi, lo + 5, hi + 5, grid(8, 1))
    assert lgrid[hit].ravel().tolist() == [3, 4, 5, 6]
    xs = np.array([[0.0], [0.0], [1.0], [-3.0]])
    ys = np.array([[2.0], [3.0], [1.0], [-1.0]])
    assert orbit_pair_sweep(xs, ys, lgrid, m, lo, hi).tolist() == [True, False, True, True]
    # (0) E (2) E (4): the middle point 2 lies in [0, 2] and in [2, 4]
    zs = np.array([[4.0], [5.0], [-1.0]])
    assert orbit_compose_sweep(
        xs[:3], zs, lgrid, lgrid, m, lo, hi, lo, hi
    ).tolist() == [True, False, True]


def test_union_sweeps_match_loops_over_group_elements():
    # reference: the definitions, looping over l (and h, y) in plain Python
    import itertools
    import random

    rng = random.Random(3)
    for _ in range(6):
        d, k = rng.randint(1, 2), rng.randint(1, 2)
        m = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(d)]
        boxes = []
        for _ in range(2):
            lo = [rng.randint(-4, 3) for _ in range(d)]
            pieces = range(rng.randint(1, 3))
            boxes.append([(lo, [c + rng.randint(0, 2) for c in lo]) for _ in pieces])
        ends = [(np.array([lo for lo, _ in b], float), np.array([hi for _, hi in b], float))
                for b in boxes]

        def inside(p, b):
            return any(all(lo[i] <= p[i] <= hi[i] for i in range(d)) for lo, hi in b)

        shifts = [tuple(sum(m[i][j] * l[j] for j in range(k)) for i in range(d))
                  for l in itertools.product(range(-3, 4), repeat=k)]

        def pair_member(x, y, b):
            return x == y or any(
                inside([x[i] - s[i] for i in range(d)], b)
                and inside([y[i] - s[i] for i in range(d)], b) for s in shifts
            )

        def compose_member(x, z):
            for s, t in itertools.product(shifts, repeat=2):
                if not (inside([x[i] - s[i] for i in range(d)], boxes[0])
                        and inside([z[i] - t[i] for i in range(d)], boxes[1])):
                    continue
                for lo, hi in boxes[0]:
                    axes = (range(lo[i] + s[i], hi[i] + s[i] + 1) for i in range(d))
                    if any(inside([y[i] - t[i] for i in range(d)], boxes[1])
                           for y in itertools.product(*axes)):
                        return True
            return False

        pts = [tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(20)]
        pairs = list(zip(pts, pts[1:] + pts[:1])) + [(pts[0], p) for p in pts]
        xs = np.array([p for p, _ in pairs], float)
        ys = np.array([q for _, q in pairs], float)
        lgrid = grid(3, k)
        got = orbit_pair_sweep(xs, ys, lgrid, np.array(m, float), *ends[0])
        assert got.tolist() == [pair_member(x, y, boxes[0]) for x, y in pairs]
        got = orbit_compose_sweep(xs, ys, lgrid, lgrid, np.array(m, float), *ends[0], *ends[1])
        assert got.tolist() == [compose_member(x, z) for x, z in pairs]
