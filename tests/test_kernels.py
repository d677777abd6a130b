import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coarseact._kernels import (
    _distinct_rows,
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


def test_transporter_sweep_matches_loop_over_group_elements():
    # reference: the definition, looping over l and the window points in plain Python
    import random

    inf = float("inf")

    def inside(p, ends):
        return any(all(lo[i] <= p[i] <= hi[i] for i in range(len(p))) for lo, hi in zip(*ends))

    def reference(lgrid, m, b, b2, xgrid):
        return [any(inside(x, b) and inside(x + m @ l, b2) for x in xgrid) for l in lgrid]

    def union(*pieces):
        return (np.array([lo for lo, _ in pieces], float),
                np.array([hi for _, hi in pieces], float))

    cases = [
        # rank-deficient M (k = 2, d = 1): the 49 elements share 13 shifts
        (grid(3, 2), [[1, -1]], union(([0], [2]), ([5], [5])),
         union(([-inf], [-3]), ([4], [inf])), grid(6, 1)),
        # b has no window point
        (grid(4, 1), [[1]], union(([20], [22])), union(([-inf], [inf])), grid(6, 1)),
        # a grid that is not centred, and b reaching past it on both sides
        (grid(5, 1), [[2], [-1]], union(([-inf, 1], [inf, 2])),
         union(([3, -inf], [4, 0]), ([-1, 5], [-1, 5])), grid(3, 2) + [7, -2]),
    ]
    rng = random.Random(11)
    for _ in range(12):
        d, k = rng.randint(1, 3), rng.randint(1, 2)

        def piece():
            lo = [rng.choice([-inf, rng.randint(-5, 3)]) for _ in range(d)]
            hi = [rng.choice([inf, rng.randint(-3, 5)]) for _ in range(d)]
            return lo, hi

        m = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(d)]
        xgrid = grid(rng.randint(1, 4), d) + [rng.randint(-3, 3) for _ in range(d)]
        cases.append((grid(3, k), m, union(*(piece() for _ in range(rng.randint(1, 3)))),
                      union(*(piece() for _ in range(rng.randint(1, 3)))), xgrid))
    for lgrid, m, b, b2, xgrid in cases:
        m = np.array(m, float)
        got = transporter_sweep(lgrid, m, *b, *b2, xgrid)
        assert got.tolist() == reference(lgrid, m, b, b2, xgrid)


def test_distinct_rows_match_numpy_unique():
    rng = np.random.default_rng(7)
    for d in (1, 2, 3):
        rows = rng.integers(-3, 4, size=(500, d)) + rng.choice([-10**6, 0, 10**6], size=(500, d))
        rows = rows.astype(float)
        want, want_which = np.unique(rows, axis=0, return_inverse=True)
        got, which = _distinct_rows(rows)
        assert got.tolist() == want.tolist()
        assert which.tolist() == want_which.reshape(-1).tolist()


@st.composite
def _sweep_case(draw):
    """M with entries in ±2 (k <= 2, d <= 3), two unions of boxes whose ends
    are ±inf often enough that a coordinate is free in one piece, in every
    piece of one set, or in both sets, and window pairs."""
    d, k = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    m = [[draw(st.integers(-2, 2)) for _ in range(k)] for _ in range(d)]
    free = [draw(st.booleans()) for _ in range(d)]
    sets = []
    for _ in range(2):
        pieces = []
        free_here = [f or draw(st.integers(0, 3)) == 0 for f in free]
        for _ in range(draw(st.integers(1, 2))):
            lo = [draw(st.integers(-3, 3)) for _ in range(d)]
            hi = [c + draw(st.integers(0, 2)) for c in lo]
            for i in range(d):
                if free_here[i] or draw(st.integers(0, 4)) == 0:
                    lo[i], hi[i] = -np.inf, np.inf
            pieces.append((lo, hi))
        sets.append(pieces)
    point = st.tuples(*[st.integers(-6, 6)] * d)
    pairs = draw(st.lists(st.tuples(point, point), min_size=1, max_size=12))
    return m, sets, pairs


def _inside(p, pieces):
    return any(all(lo[i] <= p[i] <= hi[i] for i in range(len(p))) for lo, hi in pieces)


@settings(max_examples=80, deadline=None)
@given(_sweep_case())
@example(([[1, 0], [0, 1]], [[([-np.inf] * 2, [np.inf] * 2)]] * 2, [((0, 0), (5, -3))]))
@example(([[1], [1]], [[([0, -np.inf], [1, np.inf])], [([-np.inf, 0], [np.inf, 1])]],
          [((0, 4), (9, 1)), ((0, 4), (9, 7))]))
def test_projected_sweeps_match_loops_over_group_elements(case):
    # the sweeps drop the coordinates no piece bounds; the reference keeps
    # them all and loops over every group element of the window
    m, (b1, b2), pairs = case
    d, k = len(m), len(m[0])
    lgrid = grid(2, k)
    shifts = [tuple(int(v) for v in np.array(m) @ l) for l in lgrid]
    ends = [(np.array([lo for lo, _ in b], float).reshape(-1, d),
             np.array([hi for _, hi in b], float).reshape(-1, d)) for b in (b1, b2)]

    def moved(p, s):
        return [p[i] - s[i] for i in range(d)]

    def pair_member(x, y):
        return x == y or any(_inside(moved(x, s), b1) and _inside(moved(y, s), b1)
                             for s in shifts)

    def meet(s, t):
        # some piece of B1 + s meets some piece of B2 + t
        return any(all(max(lo1[i] + s[i], lo2[i] + t[i]) <= min(hi1[i] + s[i], hi2[i] + t[i])
                       for i in range(d)) for lo1, hi1 in b1 for lo2, hi2 in b2)

    def compose_member(x, z):
        return any(_inside(moved(x, s), b1) and _inside(moved(z, t), b2) and meet(s, t)
                   for s, t in itertools.product(shifts, repeat=2))

    xs = np.array([x for x, _ in pairs], float)
    ys = np.array([y for _, y in pairs], float)
    mf = np.array(m, float)
    assert orbit_pair_sweep(xs, ys, lgrid, mf, *ends[0]).tolist() == [
        pair_member(x, y) for x, y in pairs]
    assert orbit_compose_sweep(xs, ys, lgrid, lgrid, mf, *ends[0], *ends[1]).tolist() == [
        compose_member(x, z) for x, z in pairs]
