import re
from dataclasses import replace

import numpy as np
import pytest

from baropc.eos import AffineLaw, LinearLaw, PowerLaw
from baropc.linsolve import SolverConfig
from baropc.mesh import build_rect_mesh
from baropc import diagnostics as diag
from baropc import operators as ops
from baropc import scheme as sch
from baropc.cli import perturbed_initial_state
from baropc.scheme import (SchemeConfig, SchemeError, SchemeState, Stepper,
                           initial_state, mass_fluxes, predict_density,
                           predict_velocity, projection_step,
                           renormalize_pressure, renormalize_velocity)
from baropc.verification import SmoothFlowCase, initial_exact_state, make_config

from conftest import smooth_cell_field, zero_boundary_velocity
import oracles


def tight_config(eos, dt=0.1, mu=1e-2, **kw):
    kw.setdefault("proj_eps", 1e-10)
    kw.setdefault("lin", SolverConfig(rel_tol=1e-12, abs_tol=1e-15))
    return SchemeConfig(dt=dt, mu=mu, eos=eos, **kw)


def random_state(mesh, eos, rng, amp=0.3, u_amp=0.3):
    rho = smooth_cell_field(mesh, rng, amp=amp)
    state = SchemeState(0.0, zero_boundary_velocity(mesh, rng, u_amp),
                        eos.pressure(rho), rho, ops.edge_density(mesh, rho))
    return state


def equilibrium_state(mesh, eos):
    rho = np.ones(mesh.ncells)
    return SchemeState(0.0, np.zeros((mesh.nedges, 2)), eos.pressure(rho),
                       rho, np.ones(mesh.nedges))


# ----------------------------------------------------------------------
# initialization

@pytest.mark.parametrize("name", ["dt", "mu", "proj_eps"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_scheme_config_rejects_a_nonfinite_value(name, value):
    """nan passes a bare sign test and inf makes a useless step or target;
    the config rejects both, as the CLI parser does."""
    values = dict(dt=0.1, mu=1e-2, proj_eps=1e-8) | {name: value}
    with pytest.raises(ValueError, match="finite"):
        SchemeConfig(eos=AffineLaw(), **values)


def test_initial_state_samples_fields():
    mesh = build_rect_mesh(3, 3)
    eos = PowerLaw(1.4)
    state = initial_state(mesh, eos, lambda x: 1.0 + 0.1 * x[:, 0],
                          lambda x: np.column_stack([x[:, 1], -x[:, 0]]))
    np.testing.assert_allclose(state.rho, 1.0 + 0.1 * mesh.cell_centroids[:, 0])
    np.testing.assert_allclose(state.p, state.rho ** 1.4)
    np.testing.assert_allclose(state.rho_edge_pred,
                               ops.edge_density(mesh, state.rho))
    # edge means of an affine field are its midpoint values
    np.testing.assert_allclose(
        state.u, np.column_stack([mesh.edge_midpoints[:, 1],
                                  -mesh.edge_midpoints[:, 0]]), atol=1e-13)


def test_initial_state_rejects_nonpositive_density():
    mesh = build_rect_mesh(2, 2)
    with pytest.raises(SchemeError):
        initial_state(mesh, LinearLaw(), lambda x: x[:, 0] - 10.0,
                      lambda x: np.zeros_like(x))


# ----------------------------------------------------------------------
# step 1: density prediction

def test_predict_density_at_rest_returns_edge_average(rng):
    mesh = build_rect_mesh(4, 3)
    eos = AffineLaw()
    state = random_state(mesh, eos, rng, u_amp=0.0)
    state.u[:] = 0.0
    rho_tilde, _ = predict_density(mesh, state, tight_config(eos),
                                   *oracles.density_inputs(mesh, state))
    np.testing.assert_allclose(rho_tilde, ops.edge_density(mesh, state.rho),
                               rtol=1e-12)


def test_predict_density_conserves_diamond_mass(rng):
    eos = AffineLaw()
    for nx, ny in ((5, 4), (2, 16)):                     # hx / hy = 8 on 2x16
        mesh = build_rect_mesh(nx, ny)
        for dt in (0.3, 10.0, 1000.0):
            for _ in range(5):
                state = random_state(mesh, eos, rng)
                rho_tilde, _ = predict_density(mesh, state, tight_config(eos, dt=dt),
                                               *oracles.density_inputs(mesh, state))
                assert mesh.diamond_volumes @ rho_tilde == pytest.approx(
                    mesh.cell_volumes @ state.rho, rel=1e-11)
                assert rho_tilde.min() > 0.0


def dense_density_system(mesh, rho, u, dt):
    """The upwind system over all diamonds, hand-assembled with plain loops."""
    n = mesh.nedges
    A = np.zeros((n, n))
    b = np.zeros(n)
    for sig in range(n):
        K, L = mesh.edge_cells[sig]
        dvol = mesh.cell_volumes[K] / 4.0
        if L >= 0:
            dvol += mesh.cell_volumes[L] / 4.0
        rho_sig = (mesh.cell_volumes[K] / 4.0 * rho[K]
                   + (mesh.cell_volumes[L] / 4.0 * rho[L] if L >= 0 else 0.0)) / dvol
        A[sig, sig] += dvol / dt
        b[sig] = dvol / dt * rho_sig
        if L < 0:
            A[sig, sig] += mesh.edge_lengths[sig] * (u[sig] @ mesh.edge_normals[sig])
    for s in range(mesh.nsubedges):
        s1, s2 = mesh.sub_pair[s]
        umid = 0.5 * (u[s1] + u[s2])                   # midpoint interpolation
        a = mesh.sub_lengths[s] * (umid @ mesh.sub_normals[s])
        A[s1, s1] += max(a, 0.0)
        A[s1, s2] -= max(-a, 0.0)
        A[s2, s2] += max(-a, 0.0)
        A[s2, s1] -= max(a, 0.0)
    return A, b


def test_predict_density_dense_oracle(rng):
    # the full residual meets the solver's stopping rule, and the solution
    # agrees with a dense solve
    eos = AffineLaw()
    cases = [(2, 1, 0.2, True)] + [(nx, ny, dt, False) for nx, ny in ((5, 4), (2, 16))
                                   for dt in (0.3, 10.0, 1000.0)]
    for nx, ny, dt, inflow in cases:
        mesh = build_rect_mesh(nx, ny)
        rho = smooth_cell_field(mesh, rng, amp=0.3)
        u = 0.4 * rng.uniform(-1.0, 1.0, (mesh.nedges, 2))  # boundary data too
        if not inflow:
            # inflow carries the diamond's own density, so the system stays
            # an M-matrix only while it is below |D_sigma| / dt: make it outflow
            bnd = mesh.boundary_edges
            normal = mesh.edge_normals[bnd]
            un = np.einsum("ed,ed->e", u[bnd], normal)
            u[bnd] -= 2.0 * np.minimum(un, 0.0)[:, None] * normal
        state = SchemeState(0.0, u, eos.pressure(rho), rho, ops.edge_density(mesh, rho))
        A, b = dense_density_system(mesh, rho, u, dt)
        config = tight_config(eos, dt=dt)
        got, _ = predict_density(mesh, state, config, *oracles.density_inputs(mesh, state))
        lin = config.lin
        assert np.linalg.norm(A @ got - b) <= max(lin.rel_tol * np.linalg.norm(b), lin.abs_tol)
        np.testing.assert_allclose(got, np.linalg.solve(A, b), rtol=1e-10)


@pytest.mark.xfail(strict=True, raises=SchemeError,
                   reason="boundary inflow is taken at the diamond's own density, which breaks "
                          "the M-matrix: predicted density lost positivity (min -1.096e+01) "
                          "(ROADMAP item 8)")
def test_predict_density_stays_positive_under_boundary_inflow():
    mesh = build_rect_mesh(5, 4)
    eos = AffineLaw()
    rng = np.random.default_rng(0)
    rho = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, mesh.ncells)
    u = 0.4 * rng.uniform(-1.0, 1.0, (mesh.nedges, 2))    # boundary rows too
    state = SchemeState(0.0, u, eos.pressure(rho), rho, ops.edge_density(mesh, rho))
    rho_tilde, _ = predict_density(mesh, state, tight_config(eos, dt=0.3),
                                   *oracles.density_inputs(mesh, state))
    assert rho_tilde.min() > 0.0


def test_mass_fluxes_satisfy_diamond_balance(rng):
    # the per-diamond flux total equals the mass increment, which is the
    # compatibility the momentum convection relies on
    mesh = build_rect_mesh(4, 4)
    eos = AffineLaw()
    state = random_state(mesh, eos, rng)
    dt = 0.15
    rho_edge, coeffs = oracles.density_inputs(mesh, state)
    rho_tilde, _ = predict_density(mesh, state, tight_config(eos, dt=dt), rho_edge, coeffs)
    F = mass_fluxes(mesh, coeffs, rho_tilde)
    total = np.zeros(mesh.nedges)
    np.add.at(total, mesh.sub_pair[:, 0], F)
    np.add.at(total, mesh.sub_pair[:, 1], -F)
    internal = mesh.interior_edges
    expect = -mesh.diamond_volumes[internal] * (rho_tilde - rho_edge)[internal] / dt
    scale = np.abs(total[internal]).max() + np.abs(expect).max() + 1e-30
    assert np.abs(total[internal] - expect).max() <= 1e-9 * scale


def test_convection_constant_identity_after_prediction(rng):
    # acting on a constant vector, the convection matrix reproduces the
    # diamond mass increments
    mesh = build_rect_mesh(4, 3)
    eos = AffineLaw()
    state = random_state(mesh, eos, rng)
    dt = 0.15
    cfg = tight_config(eos, dt=dt)
    rho_edge, coeffs = oracles.density_inputs(mesh, state)
    rho_tilde, _ = predict_density(mesh, state, cfg, rho_edge, coeffs)
    F = mass_fluxes(mesh, coeffs, rho_tilde)
    z = 0.7
    for mode in ("centered", "upwind"):
        C = ops.convection_matrix(mesh, F, mode)
        out = (C @ np.full(2 * mesh.nedges, z))[0::2]
        internal = mesh.interior_edges
        expect = -z * mesh.diamond_volumes[internal] * (rho_tilde - rho_edge)[internal] / dt
        scale = np.abs(expect).max() + 1e-30
        assert np.abs(out[internal] - expect).max() <= 1e-9 * scale


# ----------------------------------------------------------------------
# step 2: pressure renormalization

def test_renormalize_pressure_fixed_point(rng):
    mesh = build_rect_mesh(4, 4)
    eos = AffineLaw()
    state = random_state(mesh, eos, rng)
    # fresh state: stored predicted density is the plain edge average
    p_tilde, _ = renormalize_pressure(mesh, state, state.rho_edge_pred.copy(),
                                      tight_config(eos))
    np.testing.assert_allclose(p_tilde, state.p, atol=1e-10 * np.abs(state.p).max())


def test_renormalize_pressure_constant_pressure(rng):
    mesh = build_rect_mesh(3, 3)
    eos = AffineLaw()
    state = random_state(mesh, eos, rng)
    state.p[:] = 2.4
    rho_tilde = rng.uniform(0.5, 2.0, mesh.nedges)
    p_tilde, _ = renormalize_pressure(mesh, state, rho_tilde, tight_config(eos))
    np.testing.assert_allclose(p_tilde, 2.4, rtol=1e-12)


def test_renormalize_pressure_seminorm_contraction(rng):
    mesh = build_rect_mesh(5, 5)
    eos = AffineLaw()
    cfg = tight_config(eos)
    for _ in range(10):
        state = random_state(mesh, eos, rng)
        rho_tilde = rng.uniform(0.4, 2.5, mesh.nedges)
        p_tilde, _ = renormalize_pressure(mesh, state, rho_tilde, cfg)
        after = diag.pressure_seminorm_sq(mesh, p_tilde, rho_tilde)
        before = diag.pressure_seminorm_sq(mesh, state.p, state.rho_edge_pred)
        assert after <= before * (1.0 + 1e-9) + 1e-14


def test_renormalize_pressure_dense_pseudoinverse_oracle(rng):
    mesh = build_rect_mesh(3, 3)
    eos = AffineLaw()
    state = random_state(mesh, eos, rng)
    rho_tilde = rng.uniform(0.5, 2.0, mesh.nedges)
    p_tilde, _ = renormalize_pressure(mesh, state, rho_tilde, tight_config(eos))
    A = ops.pressure_laplacian(mesh, rho_tilde).toarray()
    w = np.sqrt(rho_tilde * state.rho_edge_pred)
    b = ops.pressure_laplacian(mesh, w).toarray() @ state.p
    x = np.linalg.pinv(A) @ b
    x += ((mesh.cell_volumes @ (state.p - x)) / mesh.cell_volumes.sum())
    np.testing.assert_allclose(p_tilde, x, atol=1e-10 * np.abs(x).max())


def test_advance_energy_decays_step_by_step(rng):
    # sharper than the global bound: each step's total energy plus its own
    # viscous increment must not exceed the previous total
    mesh = build_rect_mesh(6, 6)
    eos = AffineLaw()
    cfg = tight_config(eos, dt=0.5)
    state = random_state(mesh, eos, rng, amp=0.3, u_amp=0.4)
    stepper = Stepper(mesh, cfg)
    ledger = diag.EnergyLedger(mesh, cfg, stepper.stiffness)
    ledger.record_initial(state)
    stepper.run(state, 10,
                on_step=lambda n, s, rep: ledger.record_step(n, s, rep.u_tilde))
    lhs, _ = ledger.bound_sides()
    drops = np.diff(lhs)                    # includes each viscous increment
    assert np.all(drops <= 1e-10 * np.abs(lhs[0]))


def test_renormalize_pressure_preserves_mean(rng):
    mesh = build_rect_mesh(4, 3)
    eos = AffineLaw()
    state = random_state(mesh, eos, rng)
    rho_tilde = rng.uniform(0.5, 2.0, mesh.nedges)
    p_tilde, _ = renormalize_pressure(mesh, state, rho_tilde, tight_config(eos))
    assert mesh.cell_volumes @ p_tilde == pytest.approx(
        mesh.cell_volumes @ state.p, rel=1e-11)


# ----------------------------------------------------------------------
# step 3: velocity prediction

def test_predict_velocity_trivial_zero(rng):
    mesh = build_rect_mesh(3, 3)
    eos = AffineLaw()
    state = equilibrium_state(mesh, eos)
    state.p[:] = 1.1                                   # constant pressure
    rho_tilde = np.ones(mesh.nedges)
    cfg = tight_config(eos)
    u_tilde, _ = predict_velocity(mesh, state, rho_tilde, state.p, cfg,
                                  *oracles.momentum_inputs(mesh, state, cfg, rho_tilde))
    np.testing.assert_allclose(u_tilde, 0.0, atol=1e-13)


def test_predict_velocity_two_cell_hand_oracle(rng):
    # every term assembled independently: dense quadrature stiffness, loop
    # convection, explicit pressure jump; single interior edge -> 2x2 solve
    mesh = build_rect_mesh(2, 1)
    eos = AffineLaw()
    dt, mu = 0.21, 0.05
    rho = np.array([1.2, 0.9])
    state = SchemeState(0.0, zero_boundary_velocity(mesh, rng, 0.4),
                        eos.pressure(rho), rho, ops.edge_density(mesh, rho))
    rho_tilde = rng.uniform(0.7, 1.5, mesh.nedges)
    p_tilde = rng.normal(size=2)
    cfg = tight_config(eos, dt=dt, mu=mu)
    fluxes, *shared = oracles.momentum_inputs(mesh, state, cfg, rho_tilde)
    u_tilde, _ = predict_velocity(mesh, state, rho_tilde, p_tilde, cfg, fluxes, *shared)

    sig = mesh.interior_edges[0]
    # dense-quadrature broken stiffness for the vector shapes of sig
    gx, gw = np.polynomial.legendre.leggauss(6)
    A_loc = np.zeros((2, 2))
    for k in (0, 1):
        slot = np.nonzero(mesh.cell_edges[k] == sig)[0][0]
        jac = np.array([2.0 / mesh.hx, 2.0 / mesh.hy])
        for ax, wx in zip(gx, gw):
            for ay, wy in zip(gx, gw):
                g = ops.basis_gradients(np.array([ax, ay]))[slot] * jac
                w = wx * wy * mesh.hx * mesh.hy / 4.0
                for i in range(2):
                    for j in range(2):
                        val = (mu / 3.0) * g[i] * g[j] * w
                        if i == j:
                            val += mu * (g @ g) * w
                        A_loc[i, j] += val
    conv_diag = 0.0
    for s in range(mesh.nsubedges):
        if mesh.sub_pair[s, 0] == sig:
            conv_diag += 0.5 * fluxes[s]
        elif mesh.sub_pair[s, 1] == sig:
            conv_diag += 0.5 * (-fluxes[s])
    A_hand = A_loc + np.eye(2) * (
        mesh.diamond_volumes[sig] * rho_tilde[sig] / dt + conv_diag)
    K, L = mesh.edge_cells[sig]
    rho_edge = ops.edge_density(mesh, state.rho)
    rhs = (mesh.diamond_volumes[sig] * rho_edge[sig] / dt) * state.u[sig]
    rhs -= mesh.edge_lengths[sig] * (p_tilde[L] - p_tilde[K]) * mesh.edge_normals[sig]
    expect = np.linalg.solve(A_hand, rhs)
    np.testing.assert_allclose(u_tilde[sig], expect, rtol=1e-9)
    np.testing.assert_allclose(u_tilde[mesh.boundary_edges], 0.0)


def test_predict_velocity_kinetic_energy_inequality(rng):
    # transport-operator stability transferred to the momentum solve: with
    # zero forcing and boundary data the tentative kinetic balance is
    # dissipative for both convection modes
    mesh = build_rect_mesh(5, 4)
    eos = AffineLaw()
    for mode in ("centered", "upwind"):
        for trial in range(5):
            dt = float(rng.uniform(0.05, 1.0))
            cfg = tight_config(eos, dt=dt, convection=mode)
            state = random_state(mesh, eos, rng)
            rho_tilde, p_tilde, u_tilde = oracles.predict(mesh, state, cfg)
            rho_edge = ops.edge_density(mesh, state.rho)
            k_new = diag.kinetic_energy(mesh, u_tilde, rho_tilde)
            k_old = diag.kinetic_energy(mesh, state.u, rho_edge)
            visc = dt * diag.viscous_dissipation(u_tilde, ops.viscous_stiffness(mesh, cfg.mu))
            pwork = dt * np.sum(ops.gradient(mesh, p_tilde) * u_tilde)
            lhs = k_new - k_old + visc + pwork
            scale = k_new + k_old + visc + abs(pwork) + 1e-30
            assert lhs <= 1e-9 * scale


# ----------------------------------------------------------------------
# step 4: projection

def test_projection_equilibrium_fixed_point():
    mesh = build_rect_mesh(3, 3)
    eos = AffineLaw()
    state = equilibrium_state(mesh, eos)
    u_bar, p_new, rho_new, report = projection_step(
        mesh, state, np.ones(mesh.nedges), state.p.copy(),
        np.zeros((mesh.nedges, 2)), tight_config(eos))
    assert report.iterations == 1
    np.testing.assert_allclose(p_new, state.p, atol=1e-13)
    np.testing.assert_allclose(u_bar, 0.0, atol=1e-13)
    np.testing.assert_allclose(rho_new, 1.0, rtol=1e-13)


def test_projection_conserves_mass_and_positivity(rng):
    for eos in (AffineLaw(), PowerLaw(1.4), LinearLaw()):
        mesh = build_rect_mesh(4, 4)
        cfg = tight_config(eos, dt=0.2)
        for _ in range(3):
            state = random_state(mesh, eos, rng, amp=0.25, u_amp=0.25)
            rho_tilde, p_tilde, u_tilde = oracles.predict(mesh, state, cfg)
            u_bar, p_new, rho_new, report = projection_step(
                mesh, state, rho_tilde, p_tilde, u_tilde, cfg)
            assert mesh.cell_volumes @ rho_new == pytest.approx(
                mesh.cell_volumes @ state.rho, rel=1e-10)
            assert rho_new.min() > 0.0
            if not isinstance(eos, AffineLaw):
                assert p_new.min() > 0.0
            assert report.mass_residual < 1e-9


def test_projection_velocity_update_relation(rng):
    # u_bar - u_tilde is exactly the scaled discrete pressure-increment force
    mesh = build_rect_mesh(4, 3)
    eos = AffineLaw()
    cfg = tight_config(eos, dt=0.3)
    state = random_state(mesh, eos, rng)
    rho_tilde, p_tilde, u_tilde = oracles.predict(mesh, state, cfg)
    u_bar, p_new, _, _ = projection_step(mesh, state, rho_tilde, p_tilde,
                                         u_tilde, cfg)
    internal = mesh.interior_edges
    minv = 1.0 / (mesh.diamond_volumes[internal] * rho_tilde[internal])
    expect = u_tilde[internal] - cfg.dt * minv[:, None] * ops.gradient(
        mesh, p_new - p_tilde)[internal]
    np.testing.assert_allclose(u_bar[internal], expect, atol=1e-14)


def test_projection_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(sch, "PROJ_MAXIT", 1)
    mesh = build_rect_mesh(3, 3)
    eos = AffineLaw()
    cfg = SchemeConfig(dt=0.5, mu=1e-2, eos=eos, proj_eps=1e-14,
                       lin=SolverConfig(rel_tol=1e-12))
    rng = np.random.default_rng(0)
    state = random_state(mesh, eos, rng)
    rho_tilde, p_tilde, u_tilde = oracles.predict(mesh, state, cfg)
    with pytest.raises(SchemeError) as err:
        projection_step(mesh, state, rho_tilde, p_tilde, u_tilde, cfg)
    assert err.value.history
    num = r"\d\.\d{3}e[+-]\d\d"
    assert re.fullmatch(rf"projection did not converge in 1 iterations "
                        rf"\(residual {num}, target {num}\)", str(err.value))


def test_projection_stops_on_the_mass_residual_alone(monkeypatch):
    # the first step of the 20x20 smooth flow: every iterate but the last
    # is at or above proj_eps, so no pass runs past the residual's own test
    case = SmoothFlowCase()
    mesh = build_rect_mesh(20, 20, case.domain)
    cfg = make_config(case, 0.00625)
    state = initial_exact_state(case, mesh)
    residuals = []
    balance = ops.upwind_mass_balance

    def recording(mesh, rho, rho_old, u, dt):
        rho_up, res = balance(mesh, rho, rho_old, u, dt)
        residuals.append(np.max(np.abs(res)) / (np.max(mesh.cell_volumes * rho_old) / dt))
        return rho_up, res
    monkeypatch.setattr(ops, "upwind_mass_balance", recording)
    _, report = Stepper(mesh, cfg).step(state)
    assert report.inner_iterations == len(residuals) - 1 == 3
    assert min(residuals[:-1]) >= cfg.proj_eps > residuals[-1] == report.mass_residual


def test_projection_leaving_the_eos_domain_raises_with_history():
    mesh = build_rect_mesh(4, 4)
    eos = PowerLaw(1.4)
    cfg = SchemeConfig(dt=0.1, mu=1e-2, eos=eos)
    state = random_state(mesh, eos, np.random.default_rng(0), u_amp=3.0)
    rho_tilde, p_tilde, u_tilde = oracles.predict(mesh, state, cfg)
    with pytest.raises(SchemeError, match=re.escape(
            "left the admissible pressure range (update of inner iteration 1): "
            "power law needs p > 0")) as err:
        projection_step(mesh, state, rho_tilde, p_tilde, u_tilde, cfg)
    # the history holds the one residual evaluated: the starting iterate's
    _, res = ops.upwind_mass_balance(mesh, eos.rho(p_tilde), state.rho, u_tilde, cfg.dt)
    res_scale = np.max(mesh.cell_volumes * state.rho) / cfg.dt
    assert err.value.history == [np.max(np.abs(res)) / res_scale]


@pytest.mark.parametrize("alpha", [
    0.5,
    pytest.param(1.0, marks=pytest.mark.xfail(
        strict=True, raises=SchemeError,
        reason="the lagged passes lose contraction as the velocity grows and stall "
               "at residual 5.7e-2 after 100 passes (ROADMAP item 6)")),
])
def test_relaxation_rescues_a_fast_linear_law_projection(alpha):
    mesh = build_rect_mesh(4, 4)
    eos = LinearLaw()
    cfg = SchemeConfig(dt=0.1, mu=1e-2, eos=eos, alpha=alpha)
    state = random_state(mesh, eos, np.random.default_rng(0), u_amp=3.0)
    rho_tilde, p_tilde, u_tilde = oracles.predict(mesh, state, cfg)
    *_, report = projection_step(mesh, state, rho_tilde, p_tilde, u_tilde, cfg)
    assert report.mass_residual < cfg.proj_eps


def test_projection_evaluates_each_iterate_once(monkeypatch, rng):
    # one density, upwind density and residual for the starting iterate,
    # then one per pass for the updated iterate
    mesh = build_rect_mesh(4, 4)
    eos = PowerLaw(1.4)
    cfg = tight_config(eos, dt=0.5)
    state = random_state(mesh, eos, rng)
    rho_tilde, p_tilde, u_tilde = oracles.predict(mesh, state, cfg)
    calls = {"rho": 0, "upwind": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(eos, "rho", counted("rho", eos.rho))
    monkeypatch.setattr(ops, "upwind_cell_density", counted("upwind", ops.upwind_cell_density))
    *_, report = projection_step(mesh, state, rho_tilde, p_tilde, u_tilde, cfg)
    assert report.iterations > 1
    assert calls == {"rho": report.iterations + 1, "upwind": report.iterations + 1}


def project_at_large_step(eos, seed, dt=1000.0):
    mesh = build_rect_mesh(3, 3)
    cfg = SchemeConfig(dt=dt, mu=1e-2, eos=eos,
                       lin=SolverConfig(rel_tol=1e-10, abs_tol=1e-14))
    state = random_state(mesh, eos, np.random.default_rng(seed))
    rho_tilde, p_tilde, u_tilde = oracles.predict(mesh, state, cfg)
    *_, report = projection_step(mesh, state, rho_tilde, p_tilde, u_tilde, cfg)
    return cfg, report


@pytest.mark.parametrize("eos", [PowerLaw(1.4), AffineLaw()], ids=["power", "affine"])
def test_projection_never_reports_converged_above_tolerance(eos):
    # at dt = 1000 the correction is far below CG's absolute floor lin.abs_tol;
    # the passes' target follows proj_eps instead, so every state converges.
    # At large dt the constant part of p - p_tilde outgrows its fluctuation; it
    # is carried apart, or the velocity update loses the fluctuation's low bits
    for dt in (1e3, 1e4):
        for seed in range(20):
            cfg, report = project_at_large_step(eos, seed, dt)
            assert report.mass_residual < cfg.proj_eps


def test_projection_converges_at_dt_1000_power_seed_7():
    # the power law's Newton shift at dt = 1000 is tiny: this state converges
    # only with q's constant part carried apart (else it stalls near 2e-8)
    project_at_large_step(PowerLaw(1.4), 7)


def test_projection_passes_are_inexact(monkeypatch):
    # each pass's CG stops at ETA times its right-hand side or at half the
    # mass-balance budget; against solves to lin.rel_tol the passes stay the
    # same and the CG work falls
    mesh = build_rect_mesh(32, 32, (0.0, 1.0, -0.5, 0.5))
    eos = PowerLaw(1.4)
    cfg = SchemeConfig(dt=1.0, mu=1e-2, eos=eos, lin=SolverConfig(rel_tol=1e-10, abs_tol=1e-14))
    solve = sch.cg_solve

    def run(rule):
        passes = []

        def recording(A, b, lin, **kwargs):
            x, report = solve(A, b, rule(lin), **kwargs)
            passes[-1].append((np.linalg.norm(b), report.target, report.iterations))
            return x, report
        monkeypatch.setattr(sch, "cg_solve", recording)
        stepper, state, steps = Stepper(mesh, cfg), perturbed_initial_state(mesh, eos, 0), []
        for _ in range(3):
            passes.append([])
            new, report = stepper.step(state)
            steps.append((state, new, report))
            state = new
        return passes, steps

    inexact, steps = run(lambda lin: lin)
    for passes, (old, new, report) in zip(inexact, steps):
        floor = 0.5 * cfg.proj_eps * np.max(mesh.cell_volumes * old.rho) / cfg.dt
        for norm_b, target, _ in passes:
            assert target == max(sch.ETA * norm_b, floor)
        assert report.mass_residual < cfg.proj_eps
        mass = mesh.cell_volumes @ old.rho
        assert abs(mesh.cell_volumes @ new.rho - mass) <= 1e-15 * mass
        assert report.solver_iterations["projection"] == sum(it for *_, it in passes)
        assert report.inner_iterations == len(passes)

    exact, _ = run(lambda lin: replace(lin, rel_tol=1e-10, abs_tol=1e-14))
    assert [len(p) for p in exact] == [len(p) for p in inexact]
    assert sum(it for p in inexact for *_, it in p) <= 0.6 * sum(it for p in exact for *_, it in p)


# ----------------------------------------------------------------------
# step 5: velocity renormalization

def test_renormalize_velocity_identities(rng):
    mesh = build_rect_mesh(3, 4)
    u_bar = zero_boundary_velocity(mesh, rng, 1.0)
    bc = np.zeros((mesh.nedges, 2))
    out = renormalize_velocity(mesh, u_bar, np.full(mesh.ncells, 1.7),
                               np.full(mesh.nedges, 1.7), bc)
    np.testing.assert_allclose(out[mesh.interior_edges],
                               u_bar[mesh.interior_edges], rtol=1e-14)
    # four times denser end-of-step density halves the velocity
    out = renormalize_velocity(mesh, u_bar, np.full(mesh.ncells, 4.0),
                               np.ones(mesh.nedges), bc)
    np.testing.assert_allclose(out[mesh.interior_edges],
                               u_bar[mesh.interior_edges] / 2.0, rtol=1e-14)


def test_renormalize_velocity_norm_identity(rng):
    mesh = build_rect_mesh(4, 4)
    u_bar = zero_boundary_velocity(mesh, rng, 1.0)
    rho_new = smooth_cell_field(mesh, rng)
    rho_tilde = np.asarray(np.random.default_rng(3).uniform(0.5, 2.0, mesh.nedges))
    out = renormalize_velocity(mesh, u_bar, rho_new, rho_tilde,
                               np.zeros((mesh.nedges, 2)))
    after = diag.kinetic_energy(mesh, out, ops.edge_density(mesh, rho_new))
    before = diag.kinetic_energy(mesh, u_bar, rho_tilde)
    assert after == pytest.approx(before, rel=1e-13)


def test_renormalize_velocity_resets_boundary(rng):
    mesh = build_rect_mesh(3, 3)
    u_bar = rng.normal(size=(mesh.nedges, 2))
    bc = rng.normal(size=(mesh.nedges, 2))
    out = renormalize_velocity(mesh, u_bar, np.ones(mesh.ncells),
                               np.ones(mesh.nedges), bc)
    np.testing.assert_array_equal(out[mesh.boundary_edges],
                                  bc[mesh.boundary_edges])


# ----------------------------------------------------------------------
# full step

def test_advance_equilibrium_is_steady():
    mesh = build_rect_mesh(4, 4)
    for eos in (AffineLaw(), PowerLaw(1.4)):
        state = equilibrium_state(mesh, eos)
        new, report = Stepper(mesh, tight_config(eos, dt=0.5)).step(state)
        np.testing.assert_allclose(new.u, 0.0, atol=1e-12)
        np.testing.assert_allclose(new.rho, 1.0, rtol=1e-12)
        np.testing.assert_allclose(new.p, state.p, atol=1e-12)
        assert report.inner_iterations == 1


def test_advance_energy_bound_zero_forcing(rng):
    mesh = build_rect_mesh(8, 8)
    for eos in (AffineLaw(), PowerLaw(1.4)):
        cfg = tight_config(eos, dt=0.2)
        state = random_state(mesh, eos, rng, amp=0.3, u_amp=0.4)
        stepper = Stepper(mesh, cfg)
        ledger = diag.EnergyLedger(mesh, cfg, stepper.stiffness)
        ledger.record_initial(state)
        stepper.run(state, 12,
                    on_step=lambda n, s, rep: ledger.record_step(n, s, rep.u_tilde))
        ok, worst, step = diag.energy_bound_check(ledger, slack=1e-10)
        assert ok, f"{eos.name}: margin {worst:.3e} at step {step}"
        assert min(r["min_density"] for r in ledger.rows) > 0.0


def test_advance_energy_bound_upwind_convection(rng):
    mesh = build_rect_mesh(6, 6)
    eos = AffineLaw()
    cfg = tight_config(eos, dt=0.3, convection="upwind")
    state = random_state(mesh, eos, rng, amp=0.3, u_amp=0.4)
    stepper = Stepper(mesh, cfg)
    ledger = diag.EnergyLedger(mesh, cfg, stepper.stiffness)
    ledger.record_initial(state)
    stepper.run(state, 8,
                on_step=lambda n, s, rep: ledger.record_step(n, s, rep.u_tilde))
    ok, worst, step = diag.energy_bound_check(ledger, slack=1e-10)
    assert ok, f"upwind mode: margin {worst:.3e} at step {step}"


def test_advance_inviscid_limit(rng):
    # mu = 0 is admissible; dissipation then comes from the upwinding and
    # the backward time discretization alone
    mesh = build_rect_mesh(5, 5)
    eos = AffineLaw()
    cfg = tight_config(eos, dt=0.2, mu=0.0)
    state = random_state(mesh, eos, rng, amp=0.2, u_amp=0.3)
    stepper = Stepper(mesh, cfg)
    ledger = diag.EnergyLedger(mesh, cfg, stepper.stiffness)
    ledger.record_initial(state)
    stepper.run(state, 5,
                on_step=lambda n, s, rep: ledger.record_step(n, s, rep.u_tilde))
    ok, worst, _ = diag.energy_bound_check(ledger, slack=1e-10)
    assert ok, f"inviscid margin {worst:.3e}"
    assert ledger.rows[-1]["viscous_cum"] == 0.0


def test_advance_deterministic(rng):
    mesh = build_rect_mesh(5, 5)
    eos = AffineLaw()
    runs = []
    for _ in range(2):
        cfg = tight_config(eos, dt=0.1)
        state = random_state(mesh, eos, np.random.default_rng(42))
        stepper = Stepper(mesh, cfg)
        state = stepper.run(state, 5)
        runs.append(state)
    assert np.array_equal(runs[0].u, runs[1].u)
    assert np.array_equal(runs[0].p, runs[1].p)
    assert np.array_equal(runs[0].rho, runs[1].rho)
