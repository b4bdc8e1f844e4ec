"""The per-mesh step plan: refilled matrices, cached forcing, shared caches.

Every matrix the stepper refills on a fixed pattern is compared with a
fresh COO assembly from `oracles`: the same sparsity, index for index,
and the same entries to 1e-14 relative.  The stepper's own matrices are
captured where they reach the Krylov solvers; the density solve gets the
Schur complement of the upwind system on the vertical diamonds, which is
compared column by column with a dense elimination.  The sub-edge
geometry and the viscous stiffness, built once per mesh from per-slot
constants, are compared with cell-by-cell constructions.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import Phase, assume, example, given, settings, strategies as st

from baropc import operators as ops
from baropc import scheme as sch
from baropc import verification as ver
from baropc.eos import PowerLaw
from baropc.cli import perturbed_initial_state
from baropc.linsolve import SolverConfig, bicgstab_solve, cg_solve, neumann_solve
from baropc.mesh import build_rect_mesh

from conftest import smooth_cell_field
import oracles

MESHES = [
    (1, 1, (0.0, 1.0, 0.0, 1.0)),
    (1, 5, (0.0, 1.0, 0.0, 1.0)),
    (7, 3, (0.0, 1.3, -0.2, 0.9)),
    (2, 16, (0.0, 1.0, 0.0, 1.0)),          # hx / hy = 8
]
# on N x 1 no cell has a y-neighbour, on 1 x 5 none has an x-neighbour
PRECONDITIONER_MESHES = MESHES + [(6, 1, (0.0, 1.0, 0.0, 0.25))]


def assert_same_matrix(got, expect, rtol=1e-14):
    got, expect = got.tocsr(), expect.tocsr()
    expect.sort_indices()
    assert got.shape == expect.shape
    np.testing.assert_array_equal(got.indptr, expect.indptr)
    np.testing.assert_array_equal(got.indices, expect.indices)
    scale = max(np.abs(expect.data).max(initial=0.0), 1e-300)
    assert np.abs(got.data - expect.data).max(initial=0.0) <= rtol * scale


def schur_on_vertical(mesh, A):
    """Dense A_vv - A_vh A_hh^-1 A_hv, with A_hh required to be diagonal."""
    nv = mesh.n_vertical
    A = A.toarray()
    A_hh = A[nv:, nv:]
    np.testing.assert_array_equal(A_hh, np.diag(np.diag(A_hh)))
    return A[:nv, :nv] - A[:nv, nv:] @ (A[nv:, :nv] / np.diag(A_hh)[:, None])


def capture(monkeypatch, name):
    """Record (A, b, x) of every call of the Krylov solver `name` in scheme."""
    calls = []
    solve = getattr(sch, name)

    def recording(A, b, *args, **kwargs):
        b = np.array(b)
        x, report = solve(A, b, *args, **kwargs)
        calls.append((A, b, x))
        return x, report
    monkeypatch.setattr(sch, name, recording)
    return calls


def moving_state(mesh, eos, rng):
    """Positive density and a velocity with nonzero boundary rows."""
    rho = smooth_cell_field(mesh, rng, amp=0.3)
    u = 0.4 * rng.uniform(-1.0, 1.0, (mesh.nedges, 2))
    return sch.SchemeState(0.0, u, eos.pressure(rho), rho, ops.edge_density(mesh, rho))


def interior_dofs(mesh):
    """Which flat dofs 2 * edge + component belong to interior edges."""
    return np.repeat(~mesh.edge_is_boundary, 2)


def moving_case(rng, nx, ny, domain, mu, mode):
    """A mesh, a Power-law config with random nonzero boundary data, the
    data and a `moving_state`."""
    mesh = build_rect_mesh(nx, ny, domain)
    eos = PowerLaw(1.4)
    bc = 0.2 * rng.uniform(-1.0, 1.0, (mesh.nedges, 2))
    config = sch.SchemeConfig(dt=0.07, mu=mu, eos=eos, convection=mode,
                              lin=SolverConfig(rel_tol=1e-12, abs_tol=1e-15),
                              boundary_values=lambda mesh, t: bc)
    return mesh, config, bc, moving_state(mesh, eos, rng)


def interior_momentum_system(mesh, state, config, rho_tilde, p_tilde, bc):
    """The oracle's interior rows of the momentum matrix against interior and
    against boundary columns, and the interior right-hand side with the
    boundary data moved to it."""
    rho_edge, a = oracles.density_inputs(mesh, state)
    fluxes = sch.mass_fluxes(mesh, a, rho_tilde)
    expect_ii, expect_ib = oracles.momentum_coo(mesh, rho_tilde, config.dt, fluxes,
                                                config.convection,
                                                ops.viscous_stiffness(mesh, config.mu))
    rhs = ((mesh.diamond_volumes * rho_edge)[:, None] / config.dt * state.u
           - ops.gradient(mesh, p_tilde)).ravel()
    inner = interior_dofs(mesh)
    return expect_ii, expect_ib, rhs[inner] - expect_ib @ bc.ravel()[~inner]


@pytest.mark.parametrize("nx, ny, domain", MESHES)
@pytest.mark.parametrize("mu", [0.0, 0.05])
@pytest.mark.parametrize("mode", ["centered", "upwind"])
def test_refilled_matrices_equal_fresh_assembly(monkeypatch, rng, nx, ny, domain, mu, mode):
    mesh, config, bc, state = moving_case(rng, nx, ny, domain, mu, mode)
    eos = config.eos
    bicgstab = capture(monkeypatch, "bicgstab_solve")
    cg = capture(monkeypatch, "cg_solve")

    # density prediction: the Schur complement of the upwind diamond system
    # on the vertical diamonds, applied without being formed
    rho_edge, a = oracles.density_inputs(mesh, state)
    rho_tilde, _ = sch.predict_density(mesh, state, config, rho_edge, a)
    S_density = bicgstab[0][0]
    expect = schur_on_vertical(mesh, oracles.density_matrix_coo(mesh, a, config.dt, state.u))
    got = np.column_stack([S_density @ e for e in np.eye(mesh.n_vertical)])
    assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()
    np.testing.assert_array_equal(S_density.diagonal(), np.diag(got))

    # convection, and the momentum matrix's interior rows on the stiffness
    # pattern: against the interior columns, and against the boundary ones,
    # which carry the boundary data into b
    fluxes = sch.mass_fluxes(mesh, a, rho_tilde)
    assert_same_matrix(ops.convection_matrix(mesh, fluxes, mode),
                       oracles.convection_coo(mesh, fluxes, mode))
    p_tilde, _ = sch.renormalize_pressure(mesh, state, rho_tilde, config)
    u_tilde, _ = sch.predict_velocity(mesh, state, rho_tilde, p_tilde, config,
                                      fluxes, rho_edge, bc)
    A, b, _ = bicgstab[1]
    expect_ii, expect_ib, expect_b = interior_momentum_system(mesh, state, config,
                                                              rho_tilde, p_tilde, bc)
    inner = interior_dofs(mesh)
    assert_same_matrix(A[inner][:, inner], expect_ii)
    assert_same_matrix(A[inner][:, ~inner], expect_ib)
    scale = max(np.abs(expect_b).max(initial=0.0), 1.0)
    assert np.abs(b[inner] - expect_b).max(initial=0.0) <= 1e-13 * scale

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


@pytest.mark.parametrize("nx, ny, domain", MESHES)
@pytest.mark.parametrize("mu", [0.0, 1.0])
@pytest.mark.parametrize("mode", ["centered", "upwind"])
def test_full_dof_momentum_solve_is_the_interior_solve(monkeypatch, rng, nx, ny, domain,
                                                       mu, mode):
    """The momentum BiCGStab runs on all dofs, with identity rows on the
    boundary ones: its right-hand side and solution are exactly 0 there, the
    tentative velocity's boundary rows are the data bit for bit, and its
    interior solution is that of the interior system with the boundary data
    moved to the right-hand side, to 1e-9 relative.  mu = 0 keeps the solve
    on Jacobi, mu = 1 puts it on the sine-transform preconditioner."""
    mesh, config, bc, state = moving_case(rng, nx, ny, domain, mu, mode)
    bicgstab = capture(monkeypatch, "bicgstab_solve")
    rho_tilde, p_tilde, u_tilde = oracles.predict(mesh, state, config)
    _, b, x = bicgstab[-1]
    inner = interior_dofs(mesh)
    np.testing.assert_array_equal(b[~inner], 0.0)
    np.testing.assert_array_equal(x[~inner], 0.0)
    bnd = mesh.boundary_edges
    np.testing.assert_array_equal(u_tilde[bnd], bc[bnd])
    expect_ii, _, expect_b = interior_momentum_system(mesh, state, config,
                                                      rho_tilde, p_tilde, bc)
    expect, _ = bicgstab_solve(expect_ii, expect_b, config.lin, x0=state.u.ravel()[inner])
    assert np.abs(x[inner] - expect).max(initial=0.0) <= 1e-9 * np.abs(expect).max(initial=0.0)


@st.composite
def coo_entries(draw):
    """A shape up to 6x6 and up to 16 entries in scrambled places, with
    duplicates and empty rows.  Each entry holds x[i] itself (weight None),
    or weight * x[src], listed by input and no two of one input at one place."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    n = draw(st.integers(0, 16))
    rows, cols = (np.array(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)),
                           dtype=int) for m in shape)
    size = draw(st.integers(1, 8))
    src = np.sort(draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n))).astype(int)
    assume(len(set(zip(rows, cols, src))) == n)
    weight = draw(st.none() | st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n))
    x = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=size, max_size=size)))
    return shape, rows, cols, src, weight, x


@settings(max_examples=300, deadline=None, database=None,
          phases=[Phase.explicit, Phase.generate, Phase.shrink])
@given(coo_entries())
@example(((1, 1), np.zeros(3, dtype=int), np.zeros(3, dtype=int), np.arange(3), None,
          np.array([1.0, 1e16, -1e16])))      # 0 in entry order, 1 in reverse
def test_refilled_pattern_equals_scipy_coo_sum(entries):
    """A refilled pattern is scipy's COO -> CSR conversion of its entries, bit
    for bit (up to the sign of a zero sum).  At most 16 entries keep scipy's
    sort of a row stable, so both add duplicates in entry order."""
    shape, rows, cols, src, weight, x = entries
    if weight is None:                 # each entry its own input
        x = vals = np.resize(x, rows.size)
        pattern = ops.Pattern.assemble(rows, cols, shape)
    else:
        pattern = ops.Pattern.assemble(rows, cols, shape, src, weight, x.size)
        vals = np.asarray(weight) * x[src]
    got = pattern.fill(x)
    expect = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, name), getattr(expect, name))


def test_pattern_rejects_an_entry_outside_its_sparsity():
    within = sp.csr_matrix(np.eye(3))
    ops.Pattern.assemble(np.array([0, 2]), np.array([0, 2]), (3, 3), within=within)
    with pytest.raises(ValueError, match="outside the sparsity pattern"):
        ops.Pattern.assemble(np.array([0, 2]), np.array([0, 1]), (3, 3), within=within)


@pytest.mark.parametrize("nx, ny, domain", MESHES)
def test_subedge_coefficients_and_upwind_mass_balance_cell_by_cell(rng, nx, ny, domain):
    """The sub-edge velocity coefficients (the mean of the pair's edge values)
    equal the element's expansion at the midpoints, and the upwind mass
    balance (one product with the signed incidence) the cell-by-cell sum of
    upwind fluxes, to 1e-14 relative, with nonzero boundary normal velocity."""
    mesh = build_rect_mesh(nx, ny, domain)
    u = rng.uniform(-1.0, 1.0, (mesh.nedges, 2))
    expect = oracles.subedge_coeffs_per_cell(mesh, u)
    got = ops.subedge_velocity_coeffs(mesh, u)
    assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()
    rho, rho_star = (smooth_cell_field(mesh, rng, amp=0.3) for _ in range(2))
    rho_up, res = ops.upwind_mass_balance(mesh, rho, rho_star, u, 0.07)
    expect_up, expect_res = oracles.upwind_mass_balance_per_cell(mesh, rho, rho_star, u, 0.07)
    np.testing.assert_array_equal(rho_up, expect_up)
    assert np.abs(res - expect_res).max() <= 1e-14 * np.abs(expect_res).max()


@pytest.mark.parametrize("nx, ny, domain", MESHES)
def test_every_subedge_joins_a_vertical_and_a_horizontal_diamond(nx, ny, domain):
    """The density graph is bipartite: the first diamond of each sub-edge is
    a vertical edge's and the second a horizontal edge's, and no two
    sub-edges join the same pair, so each coupling pattern of the reduced
    density solve holds one entry per sub-edge."""
    mesh = build_rect_mesh(nx, ny, domain)
    vertical = mesh.sub_pair < mesh.n_vertical
    assert vertical[:, 0].all() and not vertical[:, 1].any()
    pairs = np.unique(mesh.sub_pair, axis=0)
    assert pairs.shape[0] == mesh.nsubedges


@pytest.mark.parametrize("nx, ny, domain", MESHES)
def test_subedge_geometry_matches_cell_by_cell_construction(nx, ny, domain):
    """The per-slot sub-edge constants give the cell-by-cell geometry: same
    cells and pairs, lengths, midpoints and normals to 1e-14 relative; each
    normal is a unit vector across its sub-edge, out of the cone of the
    pair's first edge."""
    mesh = build_rect_mesh(nx, ny, domain)
    cell, pair, lengths, mids, normals = oracles.subedges_per_cell(mesh)
    np.testing.assert_array_equal(mesh.sub_cell, cell)
    np.testing.assert_array_equal(mesh.sub_pair, pair)
    for got, expect in ((mesh.sub_lengths, lengths), (mesh.sub_midpoints, mids),
                        (mesh.sub_normals, normals)):
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()

    n, cent = mesh.sub_normals, mesh.cell_centroids[mesh.sub_cell]
    np.testing.assert_allclose(np.hypot(n[:, 0], n[:, 1]), 1.0, rtol=1e-15)
    # the sub-edge runs from the centroid to the vertex the pair's edges share
    a, b = mesh.sub_pair[:, 0], mesh.sub_pair[:, 1]
    near_p0 = (np.linalg.norm(mesh.edge_p0[a] - mesh.edge_midpoints[b], axis=1)
               < np.linalg.norm(mesh.edge_p1[a] - mesh.edge_midpoints[b], axis=1))
    shared = np.where(near_p0[:, None], mesh.edge_p0[a], mesh.edge_p1[a])
    along = shared - cent
    np.testing.assert_allclose(np.hypot(along[:, 0], along[:, 1]), mesh.sub_lengths, rtol=1e-14)
    np.testing.assert_allclose(0.5 * (shared + cent), mesh.sub_midpoints, rtol=1e-14)
    assert np.abs(np.einsum("sd,sd->s", n, along)).max() <= 1e-14 * mesh.sub_lengths.max()
    cone = (mesh.edge_p0[a] + mesh.edge_p1[a] + cent) / 3.0
    assert np.all(np.einsum("sd,sd->s", n, mesh.sub_midpoints - cone) > 0.0)


@pytest.mark.parametrize("nx, ny, domain", MESHES)
@pytest.mark.parametrize("mu", [0.0, 0.05])
def test_viscous_stiffness_equals_cell_by_cell_assembly(nx, ny, domain, mu):
    """Every stored entry is the exact sum of the cells' local entries (at
    most two cells share one, so the order of the sum does not matter), and
    exactly the couplings are stored.  The tensor-formula cell matrix is
    bitwise the entry-by-entry one."""
    mesh = build_rect_mesh(nx, ny, domain)
    for got, expect in zip(ops._viscous_local(mesh, mu), oracles.viscous_local(mesh, mu)):
        assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()
    K = ops.viscous_stiffness(mesh, mu)
    dense, stored = oracles.viscous_stiffness_dense(mesh, mu)
    np.testing.assert_array_equal(K.toarray(), dense)
    entries = K.tocoo()
    pattern = np.zeros_like(stored)
    pattern[entries.row, entries.col] = True
    assert K.nnz == stored.sum()
    np.testing.assert_array_equal(pattern, stored)


@pytest.mark.parametrize("nx, ny, domain", MESHES)
def test_momentum_plan_boundary_dofs_complement_interior_dofs(rng, nx, ny, domain):
    """The plan's interior dofs are 2 e + c of the interior edges e, and a
    matrix filled from any inputs whose mass input is 1 on the boundary dofs
    holds identity rows there: 1 on the diagonal, every other entry 0."""
    mesh = build_rect_mesh(nx, ny, domain)
    plan = sch._momentum_plan(mesh, ops.viscous_stiffness(mesh, 0.05))
    expect = np.zeros(2 * mesh.nedges, dtype=bool)
    expect[(2 * mesh.interior_edges[:, None] + np.arange(2)).ravel()] = True
    np.testing.assert_array_equal(plan.interior, expect)
    mass = np.where(plan.interior, rng.uniform(1.0, 2.0, expect.size), 1.0)
    A = plan.pattern.fill(np.concatenate([rng.normal(size=2 * mesh.nsubedges), mass]))
    A.data += plan.viscous
    bdof = np.flatnonzero(~plan.interior)
    np.testing.assert_array_equal(A[bdof].toarray(), np.eye(expect.size)[bdof])


def test_reduced_density_solve_halves_the_bicgstab_count():
    """At dt = 1 on 32^2, BiCGStab on the vertical diamonds' Schur complement
    takes at most 0.6x the iterations of Jacobi-BiCGStab on the full upwind
    system from the same starting density (about 0.5x measured)."""
    mesh = build_rect_mesh(32, 32)
    eos = PowerLaw(1.4)
    config = sch.SchemeConfig(dt=1.0, mu=1e-2, eos=eos)
    state = perturbed_initial_state(mesh, eos, 0)
    rho_edge, a = oracles.density_inputs(mesh, state)
    _, reduced = sch.predict_density(mesh, state, config, rho_edge, a)
    A = oracles.density_matrix_coo(mesh, a, config.dt, state.u)
    b = mesh.diamond_volumes / config.dt * rho_edge
    _, full = bicgstab_solve(A, b, config.lin, x0=rho_edge)
    assert reduced.iterations <= 0.6 * full.iterations, (reduced.iterations, full.iterations)


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
    """The Dirichlet data are the exact edge means on the boundary rows,
    bit for bit those of all edges, and exactly zero on the interior rows."""
    case = ver.SmoothFlowCase()
    mesh = build_rect_mesh(6, 5, case.domain)
    bc = ver.boundary_provider(case)
    bnd = mesh.boundary_edges
    for t in (0.0, 0.45, 1.2):
        got = bc(mesh, t)
        assert got.shape == (mesh.nedges, 2)
        expect = ops.edge_mean(mesh, lambda pts: case.velocity(np.array(pts), t))
        np.testing.assert_array_equal(got[bnd], expect[bnd])
        np.testing.assert_array_equal(got[mesh.interior_edges], 0.0)


def test_step_reads_only_the_boundary_rows_of_the_data():
    """A smooth-flow step whose boundary data carry NaN in the interior rows
    gives the state of the zero-interior data, bit for bit."""
    case = ver.SmoothFlowCase()
    mesh = build_rect_mesh(8, 8, case.domain)
    bc = ver.boundary_provider(case)

    def nan_interior(mesh, t):
        out = bc(mesh, t)
        out[mesh.interior_edges] = np.nan
        return out
    config = ver.make_config(case, 0.025)
    states = [sch.Stepper(mesh, dataclasses.replace(config, boundary_values=provider))
              .step(ver.initial_exact_state(case, mesh))[0] for provider in (bc, nan_interior)]
    for name in ("u", "p", "rho", "rho_edge_pred"):
        np.testing.assert_array_equal(getattr(states[1], name), getattr(states[0], name))
    assert np.isfinite(states[0].u).all()


def test_step_computes_shared_fields_once(monkeypatch):
    """A step computes the fields its stages share once: the old edge
    density (the second edge density is the new one, in the velocity
    renormalization), the sub-edge velocity coefficients, the boundary data
    and the forcing at the new time; the viscous stiffness is the Stepper's.
    The pressure operators and mass balances follow the projection's passes
    (the benchmark's per-layer counts rely on them)."""
    case = ver.SmoothFlowCase()
    mesh = build_rect_mesh(8, 8, case.domain)
    config = ver.make_config(case, 0.025)
    stepper = sch.Stepper(mesh, config)
    state = ver.initial_exact_state(case, mesh)
    calls = {}

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    shared = ("edge_density", "subedge_velocity_coeffs", "viscous_stiffness")
    for name in (*shared, "pressure_laplacian", "upwind_mass_balance"):
        count(ops, name)
    for name in ("bc", "forcing"):
        count(config, name)
    for _ in range(3):
        calls.update(dict.fromkeys([*shared, "pressure_laplacian", "upwind_mass_balance",
                                    "bc", "forcing"], 0))
        state, report = stepper.step(state)
        passes = report.inner_iterations
        # the renormalization's two operators, then one per projection pass; one
        # mass balance for the starting iterate, then one per pass
        assert calls == {"edge_density": 2, "subedge_velocity_coeffs": 1,
                         "viscous_stiffness": 0, "bc": 1, "forcing": 1,
                         "pressure_laplacian": 2 + passes, "upwind_mass_balance": 1 + passes}


def test_interleaved_meshes_match_fresh_runs():
    """Meshes stepped alternately in one process, sharing one case as the
    convergence study does, reproduce their separate runs bitwise; each
    keeps its own pressure preconditioner bases and, where viscosity
    dominates the momentum diagonal, its own momentum sine bases."""
    def start(case, nx, ny, dt):
        mesh = build_rect_mesh(nx, ny, case.domain)
        stepper = sch.Stepper(mesh, ver.make_config(case, dt))
        return mesh, stepper, ver.initial_exact_state(case, mesh)

    def fields(state):
        return np.concatenate([state.u.ravel(), state.p, state.rho])

    def missing(mesh):
        pytest.fail("preconditioner bases not cached")

    runs = [(6, 6, 0.05), (9, 9, 0.1), (7, 4, 0.1)]
    # the default viscosity keeps the momentum solves on Jacobi; mu = 0.2
    # makes the viscous part dominate their diagonal on all three meshes
    for case, viscous in ((ver.SmoothFlowCase(), False), (ver.SmoothFlowCase(mu=0.2), True)):
        fresh = []
        for run in runs:
            _, stepper, state = start(case, *run)
            fresh.append(fields(stepper.run(state, 4)))
        live = [start(case, *run) for run in runs]
        states = [state for _, _, state in live]
        for _ in range(4):
            for i, (_, stepper, _) in enumerate(live):
                states[i], _ = stepper.step(states[i])
        for got, expect in zip(states, fresh):
            np.testing.assert_array_equal(fields(got), expect)
        for (mesh, _, _), (nx, ny, _) in zip(live, runs):
            (Cx, _), (Cy, _), _, _ = mesh.cached("pressure_dct", missing)
            assert Cx.shape == (nx, nx) and Cy.shape == (ny, ny)
            if viscous:
                sines_x, sines_y, _ = mesh.cached("momentum_dst", missing)
                for (S1, S2, *_), n in ((sines_x, nx), (sines_y, ny)):
                    assert S1.shape == (n - 1, n - 1) and S2.shape == (n, n)


def test_steppers_on_one_mesh_share_one_stiffness_and_plan_per_mu():
    """Steppers of three dts at each of two viscosities, stepped alternately on
    one mesh, reproduce their runs on separate meshes bitwise.  The mesh's
    cache then holds one read-only stiffness and one momentum plan per
    viscosity, however many Steppers use them, and read-only gather indices
    in the mesh's own C-contiguous intp; mu = 0.2 puts the momentum solves
    on the sine-transform preconditioner."""
    domain = ver.SmoothFlowCase.domain
    configs = [(mu, dt) for mu in (1e-2, 0.2) for dt in (0.05, 0.1, 0.025)]

    def start(mesh, mu, dt):
        case = ver.SmoothFlowCase(mu=mu)
        return sch.Stepper(mesh, ver.make_config(case, dt)), ver.initial_exact_state(case, mesh)

    def fields(state):
        return np.concatenate([state.u.ravel(), state.p, state.rho, state.rho_edge_pred])

    fresh = [fields(stepper.run(state, 3))
             for stepper, state in (start(build_rect_mesh(6, 5, domain), *c) for c in configs)]
    mesh = build_rect_mesh(6, 5, domain)
    live = [start(mesh, *c) for c in configs]
    states = [state for _, state in live]
    for _ in range(3):
        for i, (stepper, _) in enumerate(live):
            states[i], _ = stepper.step(states[i])
    for got, expect in zip(states, fresh, strict=True):
        np.testing.assert_array_equal(fields(got), expect)
    per_mu = sorted(key for key in mesh._cache
                    if key[0] in ("viscous_stiffness", "momentum_plan"))
    assert per_mu == [(kind, mu) for kind in ("momentum_plan", "viscous_stiffness")
                      for mu in (1e-2, 0.2)]
    for (stepper, _), (mu, _) in zip(live, configs):
        assert stepper.stiffness is mesh.cached(("viscous_stiffness", mu), None)
        assert not any(a.flags.writeable for a in (stepper.stiffness.data,
                                                   stepper.stiffness.indices,
                                                   stepper.stiffness.indptr))
    plan = mesh.cached("density_plan", None)
    for a in (*mesh.cached("edge_cells", None), mesh.cached("incidence", None)[1], plan.v, plan.h):
        assert a.dtype == np.intp and a.flags.c_contiguous and not a.flags.writeable


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


@pytest.mark.parametrize("nx, ny, domain", PRECONDITIONER_MESHES)
def test_pressure_preconditioner_inverts_constant_coefficients(rng, nx, ny, domain):
    """With constant weights the preconditioner is the exact inverse, so
    PCG stops after at most two iterations on both pressure systems."""
    mesh = build_rect_mesh(nx, ny, domain)
    w = np.full(mesh.nedges, 0.7)
    shift = np.full(mesh.ncells, 0.3)
    A = ops.pressure_laplacian(mesh, w, shift=shift)
    b = rng.normal(size=mesh.ncells)
    precond = ops.pressure_preconditioner(mesh, A, shift)
    assert np.abs(A @ precond(b) - b).max() <= 1e-12 * np.abs(b).max()
    x, report = cg_solve(A, b, precond=precond)
    assert report.iterations <= 2
    assert np.linalg.norm(b - A @ x) <= report.target

    A = ops.pressure_laplacian(mesh, w)
    b -= b.mean()
    x, report = neumann_solve(A, b, mesh.cell_volumes,
                              precond=ops.pressure_preconditioner(mesh, A))
    assert report.iterations <= 2
    assert np.linalg.norm(b - A @ x) <= report.target
    assert abs(mesh.cell_volumes @ x) <= 1e-12 * max(np.abs(x).max(), 1.0)


@pytest.mark.parametrize("nx, ny, domain", PRECONDITIONER_MESHES)
def test_pressure_preconditioner_variable_coefficients(rng, nx, ny, domain):
    """Variable weights and shift: the preconditioned solve still meets the
    stopping rule, and agrees with a dense solve."""
    mesh = build_rect_mesh(nx, ny, domain)
    w = rng.uniform(0.5, 2.0, mesh.nedges)
    shift = rng.uniform(1e-6, 1e-3, mesh.ncells)
    A = ops.pressure_laplacian(mesh, w, shift=shift)
    b = rng.normal(size=mesh.ncells)
    x, report = cg_solve(A, b, SolverConfig(rel_tol=1e-12),
                         precond=ops.pressure_preconditioner(mesh, A, shift))
    assert np.linalg.norm(b - A @ x) <= report.target
    expect = np.linalg.solve(A.toarray(), b)
    assert np.abs(x - expect).max() <= 1e-8 * np.abs(expect).max()


def test_pressure_cg_counts_do_not_grow_with_the_mesh():
    """Renormalization plus projection CG iterations per step of the smooth
    flow vary by less than 2x from 20^2 to 80^2 (Jacobi-CG doubled them
    with every refinement)."""
    case = ver.SmoothFlowCase()
    per_step = []
    for n in (20, 40, 80):
        mesh = build_rect_mesh(n, n, case.domain)
        counts = []
        sch.Stepper(mesh, ver.make_config(case, 0.0125)).run(
            ver.initial_exact_state(case, mesh), 3,
            lambda k, state, report: counts.append(
                report.solver_iterations["renorm"] + report.solver_iterations["projection"]))
        per_step.append(np.mean(counts))
    assert max(per_step) < 2.0 * min(per_step), per_step


def momentum_blocks(mesh, mu):
    """Interior block of the viscous stiffness, dense, and the same block
    without the div-div coupling of the two velocity components."""
    e = mesh.interior_edges
    idof = np.stack([2 * e, 2 * e + 1], axis=1).ravel()
    K_ii = ops.viscous_stiffness(mesh, mu)[idof][:, idof].toarray()
    same = idof[:, None] % 2 == idof[None, :] % 2
    return K_ii, np.where(same, K_ii, 0.0)


@pytest.mark.parametrize("nx, ny, domain", MESHES + [
    (6, 5, (0.0, 1.0, 0.0, 1.0)),
    (8, 8, (0.0, 2.0, 0.0, 1.0)),           # hx / hy = 2
])
def test_momentum_preconditioner_inverts_mean_mass_viscous_operator(rng, nx, ny, domain):
    """On the interior dofs of a full-dof vector the preconditioner is the
    exact inverse of m I + K_c, and it is exactly 0 on the boundary dofs;
    m I + K_c is spectrally equivalent to m I + K_ii with constants 3/4 and
    5/4."""
    mesh = build_rect_mesh(nx, ny, domain)
    mu = 0.05
    K_ii, K_c = momentum_blocks(mesh, mu)
    n = K_ii.shape[0]
    inner = interior_dofs(mesh)
    for mass in (1e-3, 0.37, 40.0):
        precond = ops.momentum_preconditioner(mesh, mu, mass)
        r = rng.normal(size=2 * mesh.nedges)
        z = precond(r)
        assert z.shape == r.shape
        np.testing.assert_array_equal(z[~inner], 0.0)
        if n == 0:
            continue
        expect = np.linalg.solve(mass * np.eye(n) + K_c, r[inner])
        assert np.abs(z[inner] - expect).max() <= 1e-13 * np.abs(expect).max()
        lam = scipy.linalg.eigh(mass * np.eye(n) + K_ii, mass * np.eye(n) + K_c,
                                eigvals_only=True)
        assert 0.75 - 1e-12 <= lam.min() and lam.max() <= 1.25 + 1e-12


def test_momentum_bicgstab_counts_do_not_grow_with_the_mesh():
    """On a smooth flow whose momentum diagonal is dominated by viscosity
    (mu = 0.1), BiCGStab counts per step vary by less than 2x from 20^2 to
    80^2 (with Jacobi they were about 24, 48 and 86)."""
    case = ver.SmoothFlowCase(mu=0.1)
    per_step = []
    for n in (20, 40, 80):
        mesh = build_rect_mesh(n, n, case.domain)
        counts = []
        sch.Stepper(mesh, ver.make_config(case, 0.0125)).run(
            ver.initial_exact_state(case, mesh), 3,
            lambda k, state, report: counts.append(report.solver_iterations["momentum"]))
        per_step.append(np.mean(counts))
    assert max(per_step) < 2.0 * min(per_step), per_step


@pytest.mark.parametrize("mu, dt, transform", [
    (0.0, 0.1, False),                      # no viscosity
    (1e-2, 1e-3, False),                    # the mass dominates the diagonal
    (1.0, 0.1, True),                       # viscosity dominates
])
def test_momentum_solve_keeps_jacobi_unless_viscosity_dominates(monkeypatch, rng,
                                                                 mu, dt, transform):
    """Where the mass dominates the diagonal the momentum solve is the
    Jacobi-BiCGStab of before, bit for bit; elsewhere the sine-transform
    preconditioner gives the same solution to solver tolerance."""
    mesh = build_rect_mesh(6, 5)
    eos = PowerLaw(1.4)
    config = sch.SchemeConfig(dt=dt, mu=mu, eos=eos,
                              lin=SolverConfig(rel_tol=1e-12, abs_tol=1e-15))
    state = moving_state(mesh, eos, rng)
    state.u[mesh.boundary_edges] = 0.0
    calls = []
    solve = sch.bicgstab_solve

    def recording(A, b, lin, x0=None, precond=None):
        x, report = solve(A, b, lin, x0=x0, precond=precond)
        calls.append((A, b, x0, precond, x))
        return x, report
    monkeypatch.setattr(sch, "bicgstab_solve", recording)
    oracles.predict(mesh, state, config)
    A, b, x0, precond, x = calls[-1]
    assert (precond is not None) == transform
    minv = 1.0 / A.diagonal()
    jacobi, _ = solve(A, b, config.lin, x0=x0, precond=lambda r: minv * r)
    if transform:
        assert np.abs(x - jacobi).max() <= 1e-9 * np.abs(jacobi).max()
    else:
        np.testing.assert_array_equal(x, jacobi)
