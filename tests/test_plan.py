"""The per-mesh step plan: refilled matrices, cached forcing, shared caches.

Every matrix the stepper refills on a fixed pattern is compared with a
fresh COO assembly from `oracles`: the same sparsity, index for index,
and the same entries to 1e-14 relative.  The stepper's own matrices are
captured where they reach the Krylov solvers; the density matrix gets
there with the couplings its upwinding zeroes dropped.
"""

import numpy as np
import pytest

from baropc import operators as ops
from baropc import scheme as sch
from baropc import verification as ver
from baropc.eos import PowerLaw
from baropc.linsolve import SolverConfig
from baropc.mesh import build_rect_mesh

from conftest import smooth_cell_field
import oracles

MESHES = [
    (1, 1, (0.0, 1.0, 0.0, 1.0)),
    (1, 5, (0.0, 1.0, 0.0, 1.0)),
    (7, 3, (0.0, 1.3, -0.2, 0.9)),
    (2, 16, (0.0, 1.0, 0.0, 1.0)),          # hx / hy = 8
]


def assert_same_matrix(got, expect, rtol=1e-14):
    got, expect = got.tocsr(), expect.tocsr()
    expect.sort_indices()
    assert got.shape == expect.shape
    np.testing.assert_array_equal(got.indptr, expect.indptr)
    np.testing.assert_array_equal(got.indices, expect.indices)
    scale = max(np.abs(expect.data).max(initial=0.0), 1e-300)
    assert np.abs(got.data - expect.data).max(initial=0.0) <= rtol * scale


def capture(monkeypatch, name):
    """Record (A, b) of every call of the Krylov solver `name` in scheme."""
    calls = []
    solve = getattr(sch, name)

    def recording(A, b, *args, **kwargs):
        calls.append((A, np.array(b)))
        return solve(A, b, *args, **kwargs)
    monkeypatch.setattr(sch, name, recording)
    return calls


def moving_state(mesh, eos, rng):
    """Positive density and a velocity with nonzero boundary rows."""
    rho = smooth_cell_field(mesh, rng, amp=0.3)
    u = 0.4 * rng.uniform(-1.0, 1.0, (mesh.nedges, 2))
    return sch.SchemeState(0.0, u, eos.pressure(rho), rho, ops.edge_density(mesh, rho))


@pytest.mark.parametrize("nx, ny, domain", MESHES)
@pytest.mark.parametrize("mu", [0.0, 0.05])
@pytest.mark.parametrize("mode", ["centered", "upwind"])
def test_refilled_matrices_equal_fresh_assembly(monkeypatch, rng, nx, ny, domain, mu, mode):
    mesh = build_rect_mesh(nx, ny, domain)
    eos = PowerLaw(1.4)
    bc = 0.2 * rng.uniform(-1.0, 1.0, (mesh.nedges, 2))
    config = sch.SchemeConfig(dt=0.07, mu=mu, eos=eos, convection=mode,
                              lin=SolverConfig(rel_tol=1e-12, abs_tol=1e-15),
                              boundary_values=lambda mesh, t: bc)
    state = moving_state(mesh, eos, rng)
    bicgstab = capture(monkeypatch, "bicgstab_solve")
    cg = capture(monkeypatch, "cg_solve")
    stiffness = ops.viscous_stiffness(mesh, mu)

    # density prediction: upwind diamond stencil plus two diagonals, with
    # the couplings the upwinding zeroes dropped before the solve
    a = ops.subedge_velocity_coeffs(mesh, state.u)
    rho_tilde, _ = sch.predict_density(mesh, state, config)
    A_density, _ = bicgstab[0]
    expect = oracles.density_matrix_coo(mesh, a, config.dt, state.u)
    expect.eliminate_zeros()
    assert_same_matrix(A_density, expect)

    # convection and the momentum blocks on the stiffness pattern
    fluxes = sch.mass_fluxes(mesh, state.u, rho_tilde)
    assert_same_matrix(ops.convection_matrix(mesh, fluxes, mode),
                       oracles.convection_coo(mesh, fluxes, mode))
    p_tilde, _ = sch.renormalize_pressure(mesh, state, rho_tilde, config)
    u_tilde, _ = sch.predict_velocity(mesh, state, rho_tilde, p_tilde, config,
                                      stiffness=stiffness)
    A_ii, b_i = bicgstab[1]
    expect_ii, expect_ib = oracles.momentum_coo(mesh, rho_tilde, config.dt, fluxes,
                                                mode, stiffness)
    assert_same_matrix(A_ii, expect_ii)
    rhs = ((mesh.diamond_volumes * ops.edge_density(mesh, state.rho))[:, None]
           / config.dt * state.u - ops.gradient(mesh, p_tilde)).ravel()
    inner = np.zeros(2 * mesh.nedges, dtype=bool)
    inner[2 * mesh.interior_edges] = True
    inner[2 * mesh.interior_edges + 1] = True
    expect_b = rhs[inner] - expect_ib @ bc.ravel()[~inner]
    scale = max(np.abs(expect_b).max(initial=0.0), 1.0)
    assert np.abs(b_i - expect_b).max(initial=0.0) <= 1e-13 * scale

    # pressure operator and the first Newton-shifted projection matrix
    w = rng.uniform(0.5, 2.0, mesh.nedges)
    q = rng.uniform(0.0, 3.0, mesh.nedges)
    assert_same_matrix(ops.pressure_laplacian(mesh, w, q), oracles.pressure_coo(mesh, w, q))
    sch.projection_step(mesh, state, rho_tilde, p_tilde, u_tilde, config)
    rho_k = eos.rho(p_tilde)
    shift = mesh.cell_volumes / config.dt ** 2 * eos.drho_dp(p_tilde)
    expect = oracles.pressure_coo(mesh, rho_tilde, ops.upwind_cell_density(mesh, rho_k, u_tilde),
                                  shift=shift)
    assert_same_matrix(cg[0][0], expect)


def test_refilled_matrices_do_not_alias(rng):
    mesh = build_rect_mesh(4, 3)
    w1, w2 = rng.uniform(0.5, 2.0, (2, mesh.nedges))
    A1 = ops.pressure_laplacian(mesh, w1)
    before = A1.data.copy()
    A2 = ops.pressure_laplacian(mesh, w2)
    A2.data[:] = 0.0
    np.testing.assert_array_equal(A1.data, before)
    with pytest.raises(ValueError):
        A1.indices[0] = 1                  # the shared pattern is read-only


@pytest.mark.parametrize("quad_order", [3, 6])
def test_cached_forcing_matches_pointwise_quadrature(quad_order):
    case = ver.SmoothFlowCase()
    mesh = build_rect_mesh(12, 9, case.domain)
    for t in (0.0, 0.3, 1.7):
        got = ver.assemble_forcing(case, mesh, t, quad_order)
        expect = oracles.forcing_quadrature(case, mesh, t, quad_order)
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def test_boundary_data_matches_pointwise_edge_means():
    case = ver.SmoothFlowCase()
    mesh = build_rect_mesh(6, 5, case.domain)
    bc = ver.boundary_provider(case)
    for t in (0.0, 0.45, 1.2):
        got = bc(mesh, t)
        np.testing.assert_array_equal(
            got, ops.edge_mean(mesh, lambda pts: case.velocity(np.array(pts), t)))


def test_interleaved_meshes_match_fresh_runs():
    """Two meshes stepped alternately in one process, sharing one case as
    the convergence study does, reproduce their separate runs bitwise."""
    case = ver.SmoothFlowCase()

    def start(n, dt):
        mesh = build_rect_mesh(n, n, case.domain)
        stepper = sch.Stepper(mesh, ver.make_config(case, dt))
        return mesh, stepper, ver.initial_exact_state(case, mesh)

    def fields(state):
        return np.concatenate([state.u.ravel(), state.p, state.rho])

    runs = [(6, 0.05), (9, 0.1)]
    fresh = []
    for n, dt in runs:
        _, stepper, state = start(n, dt)
        fresh.append(fields(stepper.run(state, 4)))
    live = [start(n, dt) for n, dt in runs]
    states = [state for _, _, state in live]
    for _ in range(4):
        for i, (_, stepper, _) in enumerate(live):
            states[i], _ = stepper.step(states[i])
    for got, expect in zip(states, fresh):
        np.testing.assert_array_equal(fields(got), expect)


def test_step_report_counts_projection_cg_iterations(monkeypatch, rng):
    mesh = build_rect_mesh(5, 4)
    eos = PowerLaw(1.4)
    config = sch.SchemeConfig(dt=0.2, mu=1e-2, eos=eos, proj_eps=1e-10,
                              lin=SolverConfig(rel_tol=1e-12, abs_tol=1e-15))
    state = moving_state(mesh, eos, rng)
    state.u[mesh.boundary_edges] = 0.0
    passes = []
    cg = sch.cg_solve

    def counting(*args, **kwargs):
        x, report = cg(*args, **kwargs)
        passes.append(report.iterations)
        return x, report
    monkeypatch.setattr(sch, "cg_solve", counting)
    _, report = sch.Stepper(mesh, config).step(state)
    assert len(passes) == report.inner_iterations
    assert report.solver_iterations["projection"] > 0
    assert report.solver_iterations["projection"] == sum(passes)
