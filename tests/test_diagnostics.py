import numpy as np
import pytest

from baropc.eos import AffineLaw, LinearLaw, PowerLaw
from baropc.mesh import build_rect_mesh
from baropc import diagnostics as diag
from baropc import operators as ops
from baropc import scheme as sch
from baropc.linsolve import SolverConfig

from conftest import smooth_cell_field, zero_boundary_velocity


def random_transport_instance(rng, mode, nvol=30, nedge=60):
    """Random abstract control volumes with the density defined BY the
    mass balance, so the hypothesis holds by construction."""
    volumes = rng.uniform(0.5, 2.0, nvol)
    dt = float(rng.uniform(0.01, 1.0))
    rho_star = rng.uniform(0.5, 2.0, nvol)
    K = rng.integers(0, nvol, nedge)
    shift = rng.integers(1, nvol, nedge)
    L = (K + shift) % nvol
    edges = np.column_stack([K, L])
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
    assert rho.min() > 0.0
    z = rng.normal(size=nvol)
    z_star = rng.normal(size=nvol)
    return volumes, dt, rho_star, rho, edges, F, z_star, z


# ----------------------------------------------------------------------
# transport-operator energy margin

def test_transport_margin_constant_z_vanishes(rng):
    volumes, dt, rho_star, rho, edges, F, _, _ = \
        random_transport_instance(rng, "centered")
    z = np.full(volumes.size, 1.3)
    for mode in ("centered", "upwind"):
        margin, scale = diag.transport_energy_margin(
            volumes, dt, rho_star, rho, edges, F, z, z, mode)
        assert abs(margin) <= 1e-12 * max(scale, 1.0)


def test_transport_margin_zero_fluxes_is_time_dissipation(rng):
    nvol = 20
    volumes = rng.uniform(0.5, 2.0, nvol)
    dt = 0.3
    rho = rng.uniform(0.5, 2.0, nvol)
    edges = np.column_stack([np.arange(10), np.arange(10) + 10])
    F = np.zeros(10)
    z = rng.normal(size=nvol)
    z_star = rng.normal(size=nvol)
    margin, _ = diag.transport_energy_margin(
        volumes, dt, rho, rho, edges, F, z_star, z, "upwind")
    expect = 0.5 * np.sum(volumes / dt * rho * (z - z_star) ** 2)
    assert margin == pytest.approx(expect, rel=1e-12)


def test_transport_margin_nonnegative_random(rng):
    for mode in ("centered", "upwind"):
        for _ in range(200):
            inst = random_transport_instance(rng, mode)
            margin, scale = diag.transport_energy_margin(*inst, mode=mode)
            assert margin >= -1e-12 * scale


def test_transport_margin_checks_hypothesis(rng):
    volumes, dt, rho_star, rho, edges, F, z_star, z = \
        random_transport_instance(rng, "centered")
    rho_bad = rho + 0.1
    with pytest.raises(diag.HypothesisError):
        diag.transport_energy_margin(volumes, dt, rho_star, rho_bad, edges, F,
                                     z_star, z, "centered")
    with pytest.raises(diag.HypothesisError):
        diag.transport_energy_margin(volumes, dt, rho_star, -rho, edges, F,
                                     z_star, z, "centered")


# ----------------------------------------------------------------------
# pressure-work margin

def test_pressure_work_margin_at_rest(rng):
    mesh = build_rect_mesh(4, 4)
    eos = PowerLaw(1.4)
    rho = smooth_cell_field(mesh, rng)
    p = eos.pressure(rho)
    margin, scale = diag.pressure_work_margin(
        mesh, 0.2, p, rho, np.zeros((mesh.nedges, 2)), eos)
    assert abs(margin) <= 1e-12 * max(scale, 1.0)


def test_pressure_work_margin_divergence_free_tangential(rng):
    # tangential velocities carry no normal flux, so the mass balance holds
    # with unchanged density and both sides vanish
    mesh = build_rect_mesh(5, 3)
    eos = LinearLaw()
    rho = np.full(mesh.ncells, 1.4)
    u = rng.normal(size=(mesh.nedges, 2))
    u -= (np.einsum("ed,ed->e", u, mesh.edge_normals))[:, None] * mesh.edge_normals
    margin, scale = diag.pressure_work_margin(mesh, 0.1, eos.pressure(rho),
                                              rho, u, eos)
    assert abs(margin) <= 1e-12 * max(scale, 1.0)


def test_pressure_work_margin_on_projection_outputs(rng):
    for eos in (PowerLaw(1.4), PowerLaw(2.0), LinearLaw()):
        mesh = build_rect_mesh(4, 4)
        dt = float(rng.uniform(0.05, 0.4))
        cfg = sch.SchemeConfig(dt=dt, mu=1e-2, eos=eos, proj_eps=1e-12,
                               lin=SolverConfig(rel_tol=1e-13, abs_tol=1e-16))
        for _ in range(5):
            rho = smooth_cell_field(mesh, rng, amp=0.25)
            state = sch.SchemeState(0.0, zero_boundary_velocity(mesh, rng, 0.25),
                                    eos.pressure(rho), rho,
                                    ops.edge_density(mesh, rho))
            rho_tilde, _ = sch.predict_density(mesh, state, cfg)
            p_tilde, _ = sch.renormalize_pressure(mesh, state, rho_tilde, cfg)
            u_tilde, _ = sch.predict_velocity(mesh, state, rho_tilde, p_tilde, cfg)
            u_bar, p_new, rho_new, _ = sch.projection_step(
                mesh, state, rho_tilde, p_tilde, u_tilde, cfg)
            margin, scale = diag.pressure_work_margin(
                mesh, dt, p_new, state.rho, u_bar, eos, hyp_tol=1e-8)
            assert margin >= -1e-12 * scale


def test_pressure_work_margin_checks_mass_balance(rng):
    mesh = build_rect_mesh(3, 3)
    eos = LinearLaw()
    rho = smooth_cell_field(mesh, rng)
    u = zero_boundary_velocity(mesh, rng, 0.5)
    with pytest.raises(diag.HypothesisError):
        diag.pressure_work_margin(mesh, 0.1, eos.pressure(rho), rho, u, eos)


# ----------------------------------------------------------------------
# energy ledger and the global bound

def _equilibrium_ledger(mesh, eos, nsteps=4):
    cfg = sch.SchemeConfig(dt=0.25, mu=1e-2, eos=eos,
                           lin=SolverConfig(rel_tol=1e-12))
    rho = np.ones(mesh.ncells)
    state = sch.SchemeState(0.0, np.zeros((mesh.nedges, 2)), eos.pressure(rho),
                            rho, np.ones(mesh.nedges))
    stepper = sch.Stepper(mesh, cfg)
    ledger = diag.EnergyLedger(mesh, cfg, stepper.stiffness)
    ledger.record_initial(state)
    stepper.run(state, nsteps,
                on_step=lambda n, s, rep: ledger.record_step(n, s, rep.u_tilde))
    return ledger


def test_ledger_entry_values():
    mesh = build_rect_mesh(5, 5, (0.0, 2.0, 0.0, 1.0))
    eos = PowerLaw(1.4)
    cfg = sch.SchemeConfig(dt=0.1, mu=1e-2, eos=eos)
    rho = np.ones(mesh.ncells)
    state = sch.SchemeState(0.0, np.zeros((mesh.nedges, 2)), eos.pressure(rho),
                            rho, np.ones(mesh.nedges))
    row = diag.ledger_entry(mesh, state, np.zeros((mesh.nedges, 2)), cfg)
    assert row["kinetic"] == 0.0
    assert row["elastic"] == pytest.approx(2.0 * 2.5, rel=1e-13)   # |Omega| P(1)
    assert row["psem"] == 0.0                                       # constant p
    assert row["total_mass"] == pytest.approx(2.0, rel=1e-14)
    assert row["min_density"] == 1.0


def test_ledger_kinetic_matches_renormalization_weights(rng):
    mesh = build_rect_mesh(4, 4)
    u_bar = zero_boundary_velocity(mesh, rng, 0.7)
    rho_new = smooth_cell_field(mesh, rng)
    rho_tilde = rng.uniform(0.5, 2.0, mesh.nedges)
    u_new = sch.renormalize_velocity(mesh, u_bar, rho_new, rho_tilde,
                                     np.zeros((mesh.nedges, 2)))
    k_new = diag.kinetic_energy(mesh, u_new, ops.edge_density(mesh, rho_new))
    k_bar = diag.kinetic_energy(mesh, u_bar, rho_tilde)
    assert k_new == pytest.approx(k_bar, rel=1e-13)


def test_energy_bound_check_equilibrium_passes():
    ledger = _equilibrium_ledger(build_rect_mesh(4, 4), AffineLaw())
    ok, worst, _ = diag.energy_bound_check(ledger)
    assert ok
    assert worst >= -1e-12


def test_energy_bound_check_detects_corruption():
    ledger = _equilibrium_ledger(build_rect_mesh(4, 4), AffineLaw())
    ledger.rows[3]["kinetic"] = 2.0 * ledger.rows[3]["kinetic"] + 1.0
    ok, worst, step = diag.energy_bound_check(ledger)
    assert not ok
    assert step == 3
    assert worst < 0.0


def test_energy_bound_check_reports_worst_step_after_start(rng):
    mesh = build_rect_mesh(4, 4)
    eos = PowerLaw(1.4)
    cfg = sch.SchemeConfig(dt=0.25, mu=1e-2, eos=eos, lin=SolverConfig(rel_tol=1e-12))
    rho = smooth_cell_field(mesh, rng)
    state = sch.SchemeState(0.0, zero_boundary_velocity(mesh, rng, 0.5), eos.pressure(rho),
                            rho, ops.edge_density(mesh, rho))
    stepper = sch.Stepper(mesh, cfg)
    ledger = diag.EnergyLedger(mesh, cfg, stepper.stiffness)
    ledger.record_initial(state)
    stepper.run(state, 4, on_step=lambda n, s, rep: ledger.record_step(n, s, rep.u_tilde))
    lhs, rhs0 = ledger.bound_sides()
    # move step 2 to just inside the bound, below the margin of step 1
    ledger.rows[2]["kinetic"] += 0.5 * (rhs0 - lhs[1]) + (lhs[1] - lhs[2])
    lhs, rhs0 = ledger.bound_sides()
    rel = (rhs0 - lhs) / np.maximum(np.abs(lhs), abs(rhs0))
    assert rel[0] == 0.0 and 0.0 < rel[2] < rel[1] and rel[2] == rel[1:].min()
    ok, worst, step = diag.energy_bound_check(ledger)
    assert ok
    assert step == 2
    assert worst == pytest.approx(rel[2], rel=1e-12)

    ledger.rows = ledger.rows[:1]           # a lone initial row: step 0
    assert diag.energy_bound_check(ledger) == (True, 0.0, 0)


def test_energy_decrement_check_catches_a_step_that_gains_energy(rng):
    mesh = build_rect_mesh(4, 4)
    eos = PowerLaw(1.4)
    cfg = sch.SchemeConfig(dt=0.25, mu=1e-2, eos=eos, lin=SolverConfig(rel_tol=1e-12))
    rho = smooth_cell_field(mesh, rng)
    state = sch.SchemeState(0.0, zero_boundary_velocity(mesh, rng, 0.5), eos.pressure(rho),
                            rho, ops.edge_density(mesh, rho))
    stepper = sch.Stepper(mesh, cfg)
    ledger = diag.EnergyLedger(mesh, cfg, stepper.stiffness)
    ledger.record_initial(state)
    stepper.run(state, 4, on_step=lambda n, s, rep: ledger.record_step(n, s, rep.u_tilde))
    ok, worst, step = diag.energy_decrement_check(ledger)
    lhs, rhs0 = ledger.bound_sides()
    assert ok and worst > 0.0 and 1 <= step <= 4
    assert worst == pytest.approx(np.min((lhs[:-1] - lhs[1:]) / lhs[:-1]), rel=1e-12)

    # step 3 ends halfway between the energies of steps 2 and 0: it gains
    # energy, yet stays inside the bound
    ledger.rows[3]["kinetic"] += (lhs[2] - lhs[3]) + 0.5 * (lhs[0] - lhs[2])
    assert diag.energy_bound_check(ledger)[0]
    ok, worst, step = diag.energy_decrement_check(ledger)
    assert not ok and worst < 0.0 and step == 3

    ledger.rows = ledger.rows[:1]
    assert diag.energy_decrement_check(ledger) == (True, 0.0, 0)


def test_ledger_csv_roundtrip(tmp_path):
    ledger = _equilibrium_ledger(build_rect_mesh(3, 3), AffineLaw(), nsteps=2)
    ledger.fill_margins()
    path = tmp_path / "ledger.csv"
    ledger.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(diag.LEDGER_COLUMNS)
    assert len(lines) == 4
    # values serialized with 17 significant digits round-trip exactly
    row = ledger.rows[1]
    fields = lines[2].split(",")
    assert float(fields[2]) == row["kinetic"]
    assert float(fields[6]) == row["total_mass"]
