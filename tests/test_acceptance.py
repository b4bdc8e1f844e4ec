"""Acceptance suite: one test per criterion, each printing pass/fail.

Run with `pytest tests/test_acceptance.py -s -v` to see the lines.  Every
tolerance is pinned here; nothing is deferred to later calibration.
"""

import numpy as np
import pytest

from baropc.cli import perturbed_initial_state
from baropc.eos import AffineLaw, LinearLaw, PowerLaw, tangent_mean
from baropc.linsolve import SolverConfig
from baropc.mesh import build_rect_mesh
from baropc import diagnostics as diag
from baropc import operators as ops
from baropc import scheme as sch
from baropc import verification as ver

from conftest import smooth_cell_field, zero_boundary_velocity
import oracles


def _report(num, title, ok, detail):
    print(f"\nACCEPTANCE {num} [{title}]: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({title}): {detail}"


# ----------------------------------------------------------------------
def test_criterion_1_temporal_convergence():
    mesh = build_rect_mesh(20, 20, ver.SmoothFlowCase.domain)
    dts = [0.1, 0.05, 0.025, 0.0125]
    errs = []
    for dt in dts:
        _, info = ver.run_smooth_flow(mesh, dt, t_end=0.5)
        errs.append(info["err_v"])
    order, used = ver.fit_order(dts, errs)
    ok = used >= 2 and 0.7 <= order <= 1.3
    _report(1, "temporal order", ok,
            f"velocity L2 errors {['%.3e' % e for e in errs]}, "
            f"fitted order {order:.3f} over {used} points")


def test_criterion_2_spatial_convergence():
    """Spatial order, 20x20 -> 40x40, of the errors with the time error removed.

    The scheme is first order in time (criterion 1), and at the time steps
    these meshes can afford its O(dt) error is as large as the 40x40
    spatial error, so errors taken at one dt measure mostly time.  Each
    mesh is run at dt = 1/160 and 1/320 and its end fields are
    extrapolated, 2 X(dt/2) - X(dt), which cancels the O(dt) term.  The
    mass balance is upwinded, since density positivity and the
    pressure-work estimate rest on that, and upwind finite volumes
    converge at first order on smooth data: the orders must lie in
    criterion 1's window around 1.  The same rate for pure upwind
    transport is checked in test_verification.
    """
    case = ver.SmoothFlowCase()
    raw, extrapolated = {}, {}
    for n in (20, 40):
        mesh, infos, state = oracles.time_extrapolated_smooth_flow(n, 1.0 / 160.0)
        raw[n] = [(info["err_v"], info["err_p"]) for info in infos]
        extrapolated[n] = ver.error_norms(mesh, state, case)
    order_v, order_p = oracles.halving_orders(extrapolated[20], extrapolated[40])
    raw_v, raw_p = oracles.halving_orders(raw[20][1], raw[40][1])
    ok = oracles.first_order(order_v, order_p)

    def errs(pair):
        return f"v={pair[0]:.3e} p={pair[1]:.3e}"
    _report(2, "spatial order", ok,
            f"velocity order {order_v:.3f}, pressure order {order_p:.3f} "
            f"(window {oracles.FIRST_ORDER}); extrapolated 20x20: "
            f"{errs(extrapolated[20])}, 40x40: {errs(extrapolated[40])}; raw at "
            f"dt=1/160, 1/320: 20x20 {errs(raw[20][0])}, {errs(raw[20][1])}; "
            f"40x40 {errs(raw[40][0])}, {errs(raw[40][1])}; raw orders at "
            f"dt=1/320 v={raw_v:.3f} p={raw_p:.3f}")


def test_criterion_3_unconditional_stability():
    mesh = build_rect_mesh(12, 12)
    details = []
    ok = True
    for eos in (AffineLaw(1.4, 0.5), PowerLaw(1.4)):
        for dt in (0.01, 0.1, 1.0):
            cfg = sch.SchemeConfig(
                dt=dt, mu=1e-2, eos=eos, proj_eps=1e-10,
                lin=SolverConfig(rel_tol=1e-12, abs_tol=1e-15))
            state = perturbed_initial_state(mesh, eos, seed=0,
                                            rho_amp=0.3, u_max=0.5)
            stepper = sch.Stepper(mesh, cfg)
            ledger = diag.EnergyLedger(mesh, cfg, stepper.stiffness)
            ledger.record_initial(state)
            stepper.run(state, 50, on_step=lambda n, s, rep:
                        ledger.record_step(n, s, rep.u_tilde))
            bound_ok, worst, step = diag.energy_bound_check(ledger, slack=1e-10)
            dec_ok, worst_dec, step_dec = diag.energy_decrement_check(ledger, slack=1e-10)
            mass = np.array([r["total_mass"] for r in ledger.rows])
            mass_ok = np.abs(mass - mass[0]).max() <= 1e-10 * abs(mass[0])
            dens_ok = min(r["min_density"] for r in ledger.rows) > 0.0
            case_ok = bound_ok and dec_ok and mass_ok and dens_ok
            ok = ok and case_ok
            details.append(f"{eos.name}/dt={dt}: margin {worst:.1e}, per-step "
                           f"{worst_dec:.2e} at step {step_dec}"
                           f"{'' if case_ok else ' FAIL'}")
    _report(3, "energy bound, 50 steps", ok, "; ".join(details))


def _random_transport_instance(rng):
    nvol, nedge = 30, 60
    volumes = rng.uniform(0.5, 2.0, nvol)
    dt = float(rng.uniform(0.01, 1.0))
    rho_star = rng.uniform(0.5, 2.0, nvol)
    K = rng.integers(0, nvol, nedge)
    L = (K + rng.integers(1, nvol, nedge)) % nvol
    F = rng.normal(size=nedge)
    div = np.zeros(nvol)
    np.add.at(div, K, F)
    np.add.at(div, L, -F)
    limit = 0.5 * np.min(rho_star * volumes / dt)
    peak = np.abs(div).max()
    if peak > limit:
        F *= limit / peak
        div *= limit / peak
    rho = rho_star - dt / volumes * div
    return (volumes, dt, rho_star, rho, np.column_stack([K, L]), F,
            rng.normal(size=nvol), rng.normal(size=nvol))


def test_criterion_4_transport_energy_margins():
    rng = np.random.default_rng(2024)
    worst = {"centered": np.inf, "upwind": np.inf}
    for mode in ("centered", "upwind"):
        for _ in range(1000):
            volumes, dt, rho_star, rho, edges, F, z_star, z = \
                _random_transport_instance(rng)
            margin, scale = diag.transport_energy_margin(
                volumes, dt, rho_star, rho, edges, F, z_star, z, mode)
            worst[mode] = min(worst[mode], margin / scale)
    ok = all(w >= -1e-12 for w in worst.values())
    _report(4, "transport stability, 1000 instances/mode", ok,
            f"worst relative margins: centered {worst['centered']:.2e}, "
            f"upwind {worst['upwind']:.2e}")


def test_criterion_5_pressure_work_margins_on_projections():
    rng = np.random.default_rng(77)
    laws = [LinearLaw(), PowerLaw(1.4), PowerLaw(2.0)]
    worst_margin = np.inf
    worst_mass = 0.0
    positive = True
    count = 0
    while count < 200:
        eos = laws[count % 3]
        mesh = build_rect_mesh(5, 5)
        dt = float(rng.uniform(0.05, 0.5))
        cfg = sch.SchemeConfig(dt=dt, mu=1e-2, eos=eos, proj_eps=1e-12,
                               lin=SolverConfig(rel_tol=1e-13, abs_tol=1e-16))
        rho = smooth_cell_field(mesh, rng, amp=0.25)
        state = sch.SchemeState(0.0, zero_boundary_velocity(mesh, rng, 0.25),
                                eos.pressure(rho), rho,
                                ops.edge_density(mesh, rho))
        rho_tilde, p_tilde, u_tilde = oracles.predict(mesh, state, cfg)
        u_bar, p_new, rho_new, _ = sch.projection_step(
            mesh, state, rho_tilde, p_tilde, u_tilde, cfg)
        margin, scale = diag.pressure_work_margin(
            mesh, dt, p_new, state.rho, u_bar, eos, hyp_tol=1e-8)
        worst_margin = min(worst_margin, margin / scale)
        positive = positive and p_new.min() > 0.0 and rho_new.min() > 0.0
        drift = abs(mesh.cell_volumes @ rho_new - mesh.cell_volumes @ state.rho)
        worst_mass = max(worst_mass, drift / (mesh.cell_volumes @ state.rho))
        count += 1
    ok = worst_margin >= -1e-12 and positive and worst_mass <= 1e-10
    _report(5, "pressure-work bound on 200 projections", ok,
            f"worst relative margin {worst_margin:.2e}, worst mass drift "
            f"{worst_mass:.2e}, positivity {positive}")


def test_criterion_6_pressure_operator_equivalence():
    rng = np.random.default_rng(5)
    meshes = [build_rect_mesh(3, 3), build_rect_mesh(6, 4, (0.0, 1.2, -0.3, 0.5)),
              build_rect_mesh(8, 8, (0.0, 1.0, -0.5, 0.5))]
    worst = 0.0
    for mesh in meshes:
        w = rng.uniform(0.4, 2.5, mesh.nedges)
        q = rng.uniform(0.1, 3.0, mesh.nedges)
        stencil = ops.pressure_laplacian(mesh, w, q)
        product = oracles.pressure_laplacian_product(mesh, w, q)
        scale = abs(stencil).max()
        worst = max(worst, abs(stencil - product).max() / scale)
    uniform = build_rect_mesh(10, 10)                    # h = 0.1
    L = ops.pressure_laplacian(uniform, np.ones(uniform.nedges))
    sig = uniform.interior_edges[0]
    K, Lc = uniform.edge_cells[sig]
    coeff = -L[K, Lc]
    expect = 2.0 * uniform.edge_lengths[sig] / uniform.hx   # d |sigma| / h
    coeff_ok = coeff == pytest.approx(expect, rel=1e-13)
    ok = worst <= 1e-12 and coeff_ok
    _report(6, "pressure operator stencil == product", ok,
            f"worst entry mismatch {worst:.2e} of scale; uniform off-diagonal "
            f"{coeff:.15g} vs d|sigma|/h = {expect:.15g}")


def test_criterion_7_tangent_mean_suite():
    rng = np.random.default_rng(9)
    potentials = [
        ("square", lambda z: z ** 2, lambda z: 2 * z),
        ("zlogz", lambda z: z * np.log(z), lambda z: np.log(z) + 1.0),
        ("pow1.4", lambda z: z ** 1.4 / 0.4, lambda z: 3.5 * z ** 0.4),
        ("pow3", lambda z: z ** 3 / 2.0, lambda z: 1.5 * z ** 2),
    ]
    worst = 0.0
    inside = True
    for name, g, gp in potentials:
        for _ in range(1000):
            a, b = rng.uniform(0.05, 5.0, 2)
            rbar = tangent_mean(g, gp, a, b)
            inside = inside and (min(a, b) - 1e-12 <= rbar <= max(a, b) + 1e-12)
            res = g(a) + gp(a) * (rbar - a) - g(b) - gp(b) * (rbar - b)
            worst = max(worst, abs(res) / max(abs(g(a)), abs(g(b)), 1.0))
    g, gp = potentials[0][1], potentials[0][2]
    mean_ok = tangent_mean(g, gp, 0.3, 2.1) == pytest.approx(1.2, rel=1e-13)
    g, gp = potentials[1][1], potentials[1][2]
    log_ok = tangent_mean(g, gp, 1.0, np.e) == pytest.approx(np.e - 1.0, rel=1e-13)
    ok = worst <= 1e-12 and inside and mean_ok and log_ok
    _report(7, "tangent-mean of convex potentials", ok,
            f"worst tangent residual {worst:.2e}; arithmetic/logarithmic "
            f"identities {mean_ok}/{log_ok}")


def test_criterion_8_gradient_divergence_duality():
    rng = np.random.default_rng(31)
    meshes = [build_rect_mesh(3, 3), build_rect_mesh(7, 5, (0.0, 2.0, 0.0, 1.0)),
              build_rect_mesh(10, 10, (0.0, 1.0, -0.5, 0.5))]
    worst = 0.0
    for mesh in meshes:
        for _ in range(100):
            q = rng.normal(size=mesh.ncells)
            v = zero_boundary_velocity(mesh, rng, amp=1.0)
            gq = ops.gradient(mesh, q)
            dv = ops.divergence(mesh, v)
            mismatch = abs(np.sum(gq * v) + np.sum(q * dv))
            scale = np.abs(gq * v).sum() + np.abs(q * dv).sum() + 1e-30
            worst = max(worst, mismatch / scale)
    ok = worst <= 1e-13
    _report(8, "duality <Gq,v> + <q,Dv> = 0", ok,
            f"worst relative mismatch {worst:.2e} over 300 draws")


def test_criterion_9_projection_inner_iterations():
    mesh = build_rect_mesh(20, 20, ver.SmoothFlowCase.domain)
    _, info = ver.run_smooth_flow(mesh, 0.025, t_end=0.5, alpha=1.0)
    ok = info["inner_mean"] <= 5.0 and info["inner_max"] <= 10
    _report(9, "projection inner iterations", ok,
            f"mean {info['inner_mean']:.2f} (<= 5), max {info['inner_max']} (<= 10)")
