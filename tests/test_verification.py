import numpy as np
import pytest

from baropc.linsolve import SolverConfig
from baropc import mesh as mesh_module
from baropc.mesh import build_rect_mesh
from baropc import operators as ops
from baropc import scheme as sch
from baropc import verification as ver
from baropc.verification import SmoothFlowCase

import oracles


def sample_points(rng, n=50):
    return np.column_stack([rng.uniform(0.02, 0.98, n),
                            rng.uniform(-0.48, 0.48, n)])


# ----------------------------------------------------------------------
# exact fields

def test_density_is_one_at_t0(rng):
    case = SmoothFlowCase()
    x = sample_points(rng)
    np.testing.assert_allclose(case.rho(x, 0.0), 1.0)


def test_velocity_vanishes_at_half_time(rng):
    case = SmoothFlowCase()
    x = sample_points(rng)
    np.testing.assert_allclose(case.velocity(x, 0.5), 0.0, atol=1e-15)
    expect = 1.0 + 0.25 * (np.cos(np.pi * x[:, 0]) - np.sin(np.pi * x[:, 1]))
    np.testing.assert_allclose(case.rho(x, 0.5), expect, rtol=1e-14)


def test_momentum_formula_at_t0(rng):
    case = SmoothFlowCase()
    x = sample_points(rng)
    expect = -0.25 * np.stack([np.sin(np.pi * x[:, 0]),
                               np.cos(np.pi * x[:, 1])], axis=-1)
    np.testing.assert_allclose(case.momentum(x, 0.0), expect, rtol=1e-14)


def test_normal_trace_vanishes_on_boundary():
    case = SmoothFlowCase()
    s = np.linspace(0.0, 1.0, 17)
    for t in (0.0, 0.3, 0.77):
        left = np.column_stack([np.zeros_like(s), s - 0.5])
        right = np.column_stack([np.ones_like(s), s - 0.5])
        bottom = np.column_stack([s, np.full_like(s, -0.5)])
        top = np.column_stack([s, np.full_like(s, 0.5)])
        assert np.abs(case.velocity(left, t)[:, 0]).max() < 1e-15
        assert np.abs(case.velocity(right, t)[:, 0]).max() < 1e-15
        assert np.abs(case.velocity(bottom, t)[:, 1]).max() < 1e-15
        assert np.abs(case.velocity(top, t)[:, 1]).max() < 1e-15


def test_mass_balance_identity():
    case = SmoothFlowCase()
    xs = np.linspace(0.05, 0.95, 10)
    ys = np.linspace(-0.45, 0.45, 10)
    X, Y = np.meshgrid(xs, ys)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    for t in np.linspace(0.0, 1.0, 5):
        jm = oracles.jac_momentum(case, pts, t)
        res = oracles.drho_dt(case, pts, t) + jm[..., 0, 0] + jm[..., 1, 1]
        assert np.abs(res).max() <= 1e-12


def test_first_derivatives_against_fd(rng):
    case = SmoothFlowCase()
    x = sample_points(rng, 30)
    t = 0.41
    d = 1e-6
    dx = np.zeros_like(x); dx[:, 0] = d
    dy = np.zeros_like(x); dy[:, 1] = d
    gr = oracles.grad_rho(case, x, t)
    np.testing.assert_allclose(gr[:, 0], (case.rho(x + dx, t) - case.rho(x - dx, t)) / (2 * d), atol=1e-8)
    np.testing.assert_allclose(gr[:, 1], (case.rho(x + dy, t) - case.rho(x - dy, t)) / (2 * d), atol=1e-8)
    np.testing.assert_allclose(oracles.drho_dt(case, x, t),
                               (case.rho(x, t + d) - case.rho(x, t - d)) / (2 * d), atol=1e-8)
    jm = oracles.jac_momentum(case, x, t)
    np.testing.assert_allclose(jm[..., 0], (case.momentum(x + dx, t) - case.momentum(x - dx, t)) / (2 * d), atol=1e-8)
    np.testing.assert_allclose(jm[..., 1], (case.momentum(x + dy, t) - case.momentum(x - dy, t)) / (2 * d), atol=1e-8)


def test_forcing_against_fd_residual_oracle(rng):
    # assemble the momentum residual from (rho, m) with finite differences
    # only, independent of every analytic derivative above
    case = SmoothFlowCase()
    x = sample_points(rng, 25)
    t = 0.37
    h1, h2 = 1e-6, 1e-4
    dx = np.zeros_like(x); dx[:, 0] = 1.0
    dy = np.zeros_like(x); dy[:, 1] = 1.0

    u = lambda p_, t_: case.momentum(p_, t_) / case.rho(p_, t_)[..., None]
    p = lambda p_, t_: case.eos.pressure(case.rho(p_, t_))

    dmdt = (case.momentum(x, t + h1) - case.momentum(x, t - h1)) / (2 * h1)
    conv = ((case.momentum(x + h1 * dx, t) * u(x + h1 * dx, t)[:, [0]]
             - case.momentum(x - h1 * dx, t) * u(x - h1 * dx, t)[:, [0]]) / (2 * h1)
            + (case.momentum(x + h1 * dy, t) * u(x + h1 * dy, t)[:, [1]]
               - case.momentum(x - h1 * dy, t) * u(x - h1 * dy, t)[:, [1]]) / (2 * h1))
    gradp = np.stack([(p(x + h1 * dx, t) - p(x - h1 * dx, t)) / (2 * h1),
                      (p(x + h1 * dy, t) - p(x - h1 * dy, t)) / (2 * h1)], axis=-1)
    lap = ((u(x + h2 * dx, t) - 2 * u(x, t) + u(x - h2 * dx, t))
           + (u(x + h2 * dy, t) - 2 * u(x, t) + u(x - h2 * dy, t))) / h2 ** 2

    def div_u(p_):
        jx = (u(p_ + h2 * dx[:len(p_)], t) - u(p_ - h2 * dx[:len(p_)], t)) / (2 * h2)
        jy = (u(p_ + h2 * dy[:len(p_)], t) - u(p_ - h2 * dy[:len(p_)], t)) / (2 * h2)
        return jx[:, 0] + jy[:, 1]

    graddiv = np.stack([(div_u(x + h2 * dx) - div_u(x - h2 * dx)) / (2 * h2),
                        (div_u(x + h2 * dy) - div_u(x - h2 * dy)) / (2 * h2)], axis=-1)
    oracle = dmdt + conv + gradp - case.mu * lap - case.mu / 3.0 * graddiv
    got = oracles.forcing(case, x, t)
    assert np.abs(got - oracle).max() <= 1e-5 * max(1.0, np.abs(got).max())
    np.testing.assert_allclose(case.forcing_rest(x, t),
                               got - oracles.grad_pressure(case, x, t), atol=1e-14)


@pytest.mark.parametrize("mu", [0.0, 1e-2, 1.0, 10.0])
def test_closed_form_forcing_matches_derivative_chain(mu):
    case = SmoothFlowCase(mu=mu)
    x = sample_points(np.random.default_rng(20), 20000)   # more than one block
    for t in (0.0, 0.37, 1.0, 1.7, 3.3):
        expect = oracles.forcing_rest_chain(case, x, t)
        got = case.forcing_rest(x, t)
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()
        shaped = case.forcing_rest(x.reshape(4, -1, 2), t)
        np.testing.assert_array_equal(shaped.reshape(-1, 2), got)


# ----------------------------------------------------------------------
# discrete data

def test_exact_fields_shapes_and_pressure():
    case = SmoothFlowCase()
    mesh = build_rect_mesh(20, 20, case.domain)
    rho, p, u = oracles.exact_fields(case, mesh, 0.3)
    np.testing.assert_allclose(rho, case.rho(mesh.cell_centroids, 0.3))
    np.testing.assert_allclose(p, (rho - 1.0) / case.eos.coeff)
    # edge means by an independent denser rule
    u_ref = ops.edge_mean(mesh, lambda pts: case.velocity(pts, 0.3), n=7)
    np.testing.assert_allclose(u, u_ref, atol=1e-9)


class _GradientOnlyCase:
    """Forcing that is exactly a pressure gradient (f_rest = 0)."""

    line_factors = staticmethod(lambda x1, x2: ((x1,), (x2,)))     # factors x1, x2

    def __init__(self, pressure):
        self._pressure = pressure

    def forcing_rest(self, x, t):
        return np.zeros(x[0].shape + (2,))

    def pressure(self, x, t):
        return self._pressure(np.stack(x, axis=-1))


def test_forcing_gradient_part_linear_pressure():
    mesh = build_rect_mesh(5, 4, (0.0, 1.0, 0.0, 0.8))
    case = _GradientOnlyCase(lambda x: x[..., 0])
    rhs = ver.assemble_forcing(case, mesh, 0.0)
    internal = mesh.interior_edges
    vert = internal[internal < mesh.n_vertical]
    horz = internal[internal >= mesh.n_vertical]
    # vertical-normal edges: constant first component |sigma| * hx, zero second
    np.testing.assert_allclose(rhs[vert, 0], mesh.edge_lengths[vert] * mesh.hx,
                               rtol=1e-12)
    np.testing.assert_allclose(rhs[vert, 1], 0.0, atol=1e-14)
    np.testing.assert_allclose(rhs[horz], 0.0, atol=1e-13)
    np.testing.assert_allclose(rhs[mesh.boundary_edges], 0.0, atol=1e-14)


def test_forcing_zero_for_constant_pressure():
    mesh = build_rect_mesh(4, 4)
    case = _GradientOnlyCase(lambda x: np.full(x.shape[:-1], 2.2))
    rhs = ver.assemble_forcing(case, mesh, 0.0)
    np.testing.assert_allclose(rhs, 0.0, atol=1e-13)


def test_forcing_matches_refined_quadrature():
    case = SmoothFlowCase()
    mesh = build_rect_mesh(20, 20, case.domain)
    coarse = ver.assemble_forcing(case, mesh, 0.0, quad_order=3)
    fine = ver.assemble_forcing(case, mesh, 0.0, quad_order=6)
    assert np.abs(coarse - fine).max() <= 1e-8


def test_gradient_forcing_lies_in_discrete_gradient_range(rng):
    # least-squares membership: rhs = G q for some cell field q
    mesh = build_rect_mesh(5, 5)
    case = _GradientOnlyCase(
        lambda x: np.sin(np.pi * x[..., 0]) * x[..., 1] ** 2)
    rhs = ver.assemble_forcing(case, mesh, 0.0)
    D = oracles.div_matrix_interior(mesh)
    G = (-D.T).toarray()
    flat = rhs[mesh.interior_edges].ravel()
    sol, *_ = np.linalg.lstsq(G, flat, rcond=None)
    residual = np.linalg.norm(G @ sol - flat)
    assert residual <= 1e-10 * max(1.0, np.linalg.norm(flat))


# ----------------------------------------------------------------------
# error norms

def test_error_norm_zero_for_exact_pressure():
    case = SmoothFlowCase()
    mesh = build_rect_mesh(6, 6, case.domain)
    rho, p, u = oracles.exact_fields(case, mesh, 0.25)
    state = type("S", (), {"t": 0.25, "u": u, "p": p})()
    _, err_p = ver.error_norms(mesh, state, case)
    assert err_p == 0.0


def test_error_norm_interpolant_second_order():
    case = SmoothFlowCase()
    errs = []
    for n in (8, 16):
        mesh = build_rect_mesh(n, n, case.domain)
        rho, p, u = oracles.exact_fields(case, mesh, 0.25)
        state = type("S", (), {"t": 0.25, "u": u, "p": p})()
        err_v, _ = ver.error_norms(mesh, state, case)
        assert err_v > 0.0
        errs.append(err_v)
    order = np.log2(errs[0] / errs[1])
    assert 1.7 <= order <= 2.3


def test_error_norm_zero_velocity_gives_exact_norm():
    case = SmoothFlowCase()
    mesh = build_rect_mesh(16, 16, case.domain)
    state = type("S", (), {"t": 0.0, "u": np.zeros((mesh.nedges, 2)),
                           "p": case.pressure(mesh.cell_centroids, 0.0)})()
    err_v, _ = ver.error_norms(mesh, state, case)
    # independent high-order quadrature of |u(.,0)|^2, analytic value 1/16
    pts, w = oracles.cell_quadrature_points(mesh, 6)
    ref = np.sqrt(np.einsum("q,cqd->", w, case.velocity(pts, 0.0) ** 2))
    assert err_v == pytest.approx(ref, rel=1e-9)
    assert err_v == pytest.approx(0.25, rel=1e-3)


# ----------------------------------------------------------------------
# study drivers

def test_fit_order_prefers_preplateau_points():
    dts = [0.1, 0.05, 0.025, 0.0125]
    errors = [0.1, 0.05, 0.025, 0.024]     # order 1 until a plateau
    order, used = ver.fit_order(dts, errors)
    assert used == 3
    assert order == pytest.approx(1.0, abs=0.01)
    order_all, used_all = ver.fit_order(dts, [0.1, 0.052, 0.026, 0.0125])
    assert used_all == 4


def test_fit_order_requires_two_points():
    order, used = ver.fit_order([0.1, 0.05], [0.1, 0.09])
    assert used == 1
    assert np.isnan(order)


def test_convergence_study_single_run(tmp_path):
    rows, orders = ver.convergence_study(
        [(4, 4)], [0.1], t_end=0.2, lin=SolverConfig(rel_tol=1e-10), proj_eps=1e-8)
    assert len(rows) == 1
    row = rows[0]
    assert row["nx"] == 4 and row["dt"] == 0.1
    assert row["err_v_L2"] > 0.0 and row["err_p_L2"] > 0.0
    assert np.isnan(orders[(4, 4)]["velocity"])
    path = tmp_path / "convergence.csv"
    ver.write_convergence_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("nx,ny,dt,err_v_L2,err_p_L2")
    assert len(lines) == 2
    assert float(lines[1].split(",")[3]) == row["err_v_L2"]


def test_run_smooth_flow_validates_step_count():
    mesh = build_rect_mesh(4, 4, SmoothFlowCase.domain)
    with pytest.raises(ValueError):
        ver.run_smooth_flow(mesh, 0.3, t_end=0.5)


STUDY = ([(4, 4), (5, 3)], [0.1, 0.05, 0.025])
STUDY_KWARGS = dict(t_end=0.2, lin=SolverConfig(rel_tol=1e-10), proj_eps=1e-8)
STUDY_COLUMNS = ("nx", "ny", "dt", "err_v_L2", "err_p_L2", "inner_iter_mean")


def test_convergence_study_builds_each_mesh_once(monkeypatch):
    """A study runs every dt of a mesh size on one mesh, in this process: the
    mesh, its viscous stiffness and its momentum plan are built once per size,
    and the rows are bitwise those of a fresh mesh per run.  A second study
    builds its meshes again, so no cache outlives its study.  Each size's
    orders are fitted from that size's rows.  The variable set below once
    sent each (mesh, dt) cell to a process pool; the study now ignores it."""
    calls = {}

    def count(owner, name):
        fn, calls[name] = getattr(owner, name), 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    for owner, name in ((mesh_module, "build_rect_mesh"), (ops, "viscous_stiffness"),
                        (sch, "_momentum_plan")):
        count(owner, name)
    monkeypatch.setenv("BAROPC_THREADS", "2")
    for _ in range(2):
        calls.update(dict.fromkeys(calls, 0))
        rows, orders = ver.convergence_study(*STUDY, **STUDY_KWARGS)
        assert calls == dict.fromkeys(calls, len(STUDY[0]))
    monkeypatch.undo()
    assert list(orders) == STUDY[0]
    for size in STUDY[0]:
        sub = [row for row in rows if (row["nx"], row["ny"]) == size]
        assert [row["dt"] for row in sub] == STUDY[1]
        np.testing.assert_equal(orders[size], {   # nan (plateau) equals nan here
            "velocity": ver.fit_order(STUDY[1], [row["err_v_L2"] for row in sub])[0],
            "pressure": ver.fit_order(STUDY[1], [row["err_p_L2"] for row in sub])[0]})
    case = SmoothFlowCase()
    fresh = []
    for nx, ny in STUDY[0]:
        for dt in STUDY[1]:
            mesh = build_rect_mesh(nx, ny, case.domain)
            _, info = ver.run_smooth_flow(mesh, dt, case=case, **STUDY_KWARGS)
            fresh.append((nx, ny, dt, info["err_v"], info["err_p"], info["inner_mean"]))
    assert [tuple(row[c] for c in STUDY_COLUMNS) for row in rows] == fresh


# ----------------------------------------------------------------------
# spatial order of the upwind mass balance

def test_upwind_transport_oracle_is_first_order():
    """Pure upwind transport of the exact flow's density converges at first
    order in space once the time error is extrapolated away, as criterion 2
    measures it, and the solver's density is no less accurate than it."""
    case = SmoothFlowCase()
    dts = (1.0 / 160.0, 1.0 / 320.0)
    oracle, solver = {}, {}
    for n in (20, 40):
        mesh, _, state = oracles.time_extrapolated_smooth_flow(n, dts[0])
        rho = oracles.time_extrapolate(
            *(oracles.upwind_transport(case, mesh, dt, 0.5) for dt in dts))
        oracle[n] = oracles.density_error(case, mesh, rho, 0.5)
        solver[n] = oracles.density_error(case, mesh, state.rho, 0.5)
    (order,) = oracles.halving_orders([oracle[20]], [oracle[40]])
    assert oracles.first_order(order), (order, oracle)
    assert solver[20] <= oracle[20] and solver[40] <= oracle[40], (solver, oracle)


def test_first_order_window_rejects_time_dominated_orders():
    # errors at the single dt = 1/320 (20x20, 40x40): the O(dt) floor
    raw = oracles.halving_orders([4.540e-3, 5.394e-3], [3.110e-3, 4.210e-3])
    assert raw == pytest.approx((0.546, 0.358), abs=1e-3)
    assert not oracles.first_order(*raw)
    assert not oracles.first_order(2.0, 2.0)
    extrapolated = oracles.halving_orders([2.897e-3, 2.401e-3], [1.380e-3, 1.101e-3])
    assert oracles.first_order(*extrapolated)


def test_time_extrapolate_cancels_first_order_term():
    exact, c = np.array([1.0, -2.0]), np.array([0.3, 5.0])
    dt = 0.01
    coarse, fine = exact + c * dt + dt ** 2, exact + c * dt / 2 + dt ** 2 / 4
    np.testing.assert_allclose(oracles.time_extrapolate(coarse, fine),
                               exact - dt ** 2 / 2, rtol=1e-14)
