import numpy as np

from coarseact._kernels import kernel_backend, transporter_sweep


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
