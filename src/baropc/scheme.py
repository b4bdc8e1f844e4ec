"""Five-step pressure-correction time stepper.

One step advances (u, p, rho) through, in order: an upwind prediction of
the density on the diamond cells, a renormalization of the pressure, a
semi-implicit momentum solve for a tentative velocity, a nonlinear
projection enforcing the cell mass balance, and a square-root velocity
renormalization.  The pieces are deliberately assembled from the exact
same discrete operators the energy identities are written in, so that the
per-step energy bound holds to solver tolerance for any time step.
"""

from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from . import operators as ops
from .eos import EosDomainError
from .linsolve import (HistoryError, LinearSolverError, SolverConfig, bicgstab_solve, cg_solve,
                       neumann_solve)


class SchemeError(HistoryError):
    pass


def _solve(what, solver, *args, **kwargs):
    """solver(*args, **kwargs), a solver failure raised as SchemeError("<what> failed: ...")."""
    try:
        return solver(*args, **kwargs)
    except LinearSolverError as err:
        raise SchemeError(f"{what} failed: {err}", err.history) from err


@dataclass
class SchemeConfig:
    dt: float
    mu: float
    eos: object
    convection: str = "centered"          # or "upwind"
    proj_eps: float = 1e-8
    alpha: float = 1.0
    lin: SolverConfig = field(default_factory=SolverConfig)
    boundary_values: object = None        # f(mesh, t) -> (nedges, 2); only boundary rows read
    forcing_rhs: object = None            # callable(mesh, t) -> (nedges, 2)

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if not 0.0 <= self.mu < np.inf:
            raise ValueError("viscosity must be nonnegative and finite")
        if not 0.0 < self.proj_eps < np.inf:
            raise ValueError("projection tolerance must be positive and finite")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("relaxation must lie in (0, 1]")
        if self.convection not in ("centered", "upwind"):
            raise ValueError(f"unknown convection mode '{self.convection}'")

    def bc(self, mesh, t):
        if self.boundary_values is None:
            return np.zeros((mesh.nedges, 2))
        return np.asarray(self.boundary_values(mesh, t), dtype=float)

    def forcing(self, mesh, t):
        if self.forcing_rhs is None:
            return np.zeros((mesh.nedges, 2))
        return np.asarray(self.forcing_rhs(mesh, t), dtype=float)


@dataclass
class SchemeState:
    """Snapshot advanced in time.

    `rho_edge_pred` is the predicted edge density of the step that
    produced this state (the weight of the pressure semi-norm in the
    energy bound); for a fresh initial state it is the half-diamond
    average of the initial cell density.
    """
    t: float
    u: np.ndarray            # (nedges, 2), boundary rows hold Dirichlet data
    p: np.ndarray            # (ncells,)
    rho: np.ndarray          # (ncells,), > 0
    rho_edge_pred: np.ndarray  # (nedges,), > 0


@dataclass
class ProjectionReport:
    iterations: int
    mass_residual: float
    solver_iterations: int         # CG iterations summed over the passes


@dataclass
class StepReport:
    u_tilde: np.ndarray
    inner_iterations: int
    mass_residual: float
    solver_iterations: dict    # Krylov iterations per stage; "density" counts the reduced system's


def initial_state(mesh, eos, rho0, u0):
    """State at t = 0 from pointwise initial fields.

    The density is sampled at cell centroids, the velocity through its
    edge-mean functionals, and the pressure is the EOS inverse of the
    density.
    """
    rho = np.asarray(rho0(mesh.cell_centroids), dtype=float)
    if np.any(rho <= 0.0):
        raise SchemeError("initial density must be strictly positive")
    u = ops.edge_mean(mesh, u0)
    if u.ndim == 1:
        raise SchemeError("initial velocity must be vector valued")
    p = eos.pressure(rho)
    return SchemeState(0.0, u, p, rho, ops.edge_density(mesh, rho))


# ----------------------------------------------------------------------
# step 1: density prediction on the diamond cells

class _ReducedDensityOperator:
    """S = D_v - W C on the vertical diamonds, applied without forming it.

    W = B D_h^-1 carries the inflow into the vertical diamonds from the
    horizontal ones, C the inflow into the horizontal diamonds from the
    vertical ones.  An upwind sub-edge carries flux one way only, so
    W C has a zero diagonal and the diagonal of S is D_v.  `nnz` counts
    the entries one product reads.
    """

    def __init__(self, dv, W, C):
        self.dv, self.W, self.C = dv, W, C
        self.shape = (dv.size, dv.size)
        self.nnz = dv.size + W.nnz + C.nnz

    def __matmul__(self, x):
        return self.dv * x - self.W @ (self.C @ x)

    def diagonal(self):
        return self.dv


def _density_plan(mesh):
    """Vertical and horizontal diamond of every sub-edge, and the CSR
    patterns of the vertical-from-horizontal and horizontal-from-vertical
    couplings, one entry per sub-edge each."""
    nv, nh = mesh.n_vertical, mesh.nedges - mesh.n_vertical
    v, h = mesh.sub_pair[:, 0].astype(np.int32), (mesh.sub_pair[:, 1] - nv).astype(np.int32)
    return SimpleNamespace(v=v, h=h, B=ops.Pattern.assemble(v, h, (nv, nh)),
                           C=ops.Pattern.assemble(h, v, (nh, nv)))


def predict_density(mesh, state, config, rho_edge_n, coeffs):
    """Upwind mass balance over all diamonds, boundary half-diamonds included.

    Returns the predicted edge density.  The transporting field is the
    finite element interpolation of the current velocity at the sub-edge
    midpoints; the flux across the domain boundary uses the prescribed
    normal velocity times the diamond's own density.

    Every sub-edge joins a vertical to a horizontal diamond, so with the
    vertical ones first the system is [[D_v, -B], [-C, D_h]] with D_v, D_h
    diagonal.  The horizontal diamonds are eliminated exactly: BiCGStab
    solves the Schur complement S rho_v = b_v + B D_h^-1 b_h, to the
    stopping rule of the full system (S rho_v - b_v - B D_h^-1 b_h is its
    residual, the horizontal rows' vanishes), and rho_h = D_h^-1 (b_h + C
    rho_v).  S is an M-matrix, so rho_v > 0 and with it rho_h > 0.
    """
    dt = config.dt
    plan = mesh.cached("density_plan", _density_plan)
    nv = mesh.n_vertical
    mass = mesh.diamond_volumes / dt
    bnd = mesh.boundary_edges
    diag = mass.copy()
    diag[bnd] += mesh.edge_lengths[bnd] * np.einsum(
        "ed,ed->e", state.u[bnd], mesh.edge_normals[bnd])
    ap, am = np.maximum(coeffs, 0.0), np.maximum(-coeffs, 0.0)  # out of / into the vertical diamond
    diag[:nv] += np.bincount(plan.v, ap, minlength=nv)
    diag[nv:] += np.bincount(plan.h, am, minlength=diag.size - nv)
    dv, dh = diag[:nv], diag[nv:]
    W = plan.B.fill(am / dh[plan.h])
    C = plan.C.fill(ap)
    b = mass * rho_edge_n
    b_s = b[:nv] + W @ b[nv:]
    # the full system's stopping rule: relative to |b|, not to |b_s|
    lin = replace(config.lin, rel_tol=config.lin.rel_tol * np.linalg.norm(b) / np.linalg.norm(b_s))
    rho_v, report = _solve("density prediction solve", bicgstab_solve,
                           _ReducedDensityOperator(dv, W, C), b_s, lin, x0=rho_edge_n[:nv])
    rho_tilde = np.concatenate([rho_v, (b[nv:] + C @ rho_v) / dh])
    if np.any(rho_tilde <= 0.0):
        raise SchemeError(
            f"predicted density lost positivity (min {rho_tilde.min():.3e})")
    return rho_tilde, report


def mass_fluxes(mesh, coeffs, rho_tilde):
    """Per-sub-edge upwind mass fluxes, oriented out of sub_pair[:, 0]."""
    s1 = mesh.sub_pair[:, 0]
    s2 = mesh.sub_pair[:, 1]
    return np.maximum(coeffs, 0.0) * rho_tilde[s1] - np.maximum(-coeffs, 0.0) * rho_tilde[s2]


# ----------------------------------------------------------------------
# step 2: pressure renormalization

def renormalize_pressure(mesh, state, rho_tilde, config):
    """Rescale the pressure gradient from the old to the new edge density.

    Solves  L_{rho_tilde} p = L_{sqrt(rho_tilde * rho_pred_old)} p_old
    with the singular Neumann-type pressure operator, then shifts the
    result to match the volume-weighted mean of the old pressure.  This
    contracts the weighted pressure semi-norm, which is what makes the
    scheme unconditionally stable.
    """
    w_mixed = np.sqrt(rho_tilde * state.rho_edge_pred)
    A = ops.pressure_laplacian(mesh, rho_tilde)
    b = ops.pressure_laplacian(mesh, w_mixed) @ state.p
    x, report = _solve("pressure renormalization", neumann_solve, A, b, mesh.cell_volumes,
                       config.lin, precond=ops.pressure_preconditioner(mesh, A))
    mean = (mesh.cell_volumes @ state.p) / mesh.cell_volumes.sum()
    return x + mean, report


# ----------------------------------------------------------------------
# step 3: velocity prediction (momentum balance)

def _momentum_plan(mesh, stiffness):
    """The momentum matrix over all velocity dofs on the stiffness pattern.

    An interior row holds the convection and mass entries from the inputs
    [X, Y, mass per dof] (`ops.convection_stencil`, the mass diagonal), summed
    in that order, plus its stiffness values.  A boundary row is an identity
    row: its mass input is 1 and its stiffness values are 0.  Also which dofs
    are interior, and the mean interior stiffness diagonal."""
    interior = np.repeat(~mesh.edge_is_boundary, 2)
    convection = [a.ravel() for a in ops.convection_entries(mesh)]
    keep, dof = interior[convection[0]], np.arange(interior.size, dtype=np.int32)
    rows, cols, src, sign = (np.concatenate([a[keep], b]) for a, b in zip(
        convection, (dof, dof, 2 * mesh.nsubedges + dof, np.ones(dof.size, np.int8))))
    pattern = ops.Pattern.assemble(rows, cols, stiffness.shape, src, sign,
                                   2 * mesh.nsubedges + dof.size, within=stiffness)
    row_interior = np.repeat(interior, np.diff(stiffness.indptr))
    viscous = ops._frozen(np.where(row_interior, stiffness.data, 0.0))
    diagonal = np.mean(stiffness.diagonal()[interior]) if interior.any() else 0.0
    return SimpleNamespace(pattern=pattern, viscous=viscous, interior=ops._frozen(interior),
                           viscous_diagonal=diagonal)


def _stiffness(mesh, mu):
    """`ops.viscous_stiffness(mesh, mu)`, built once per mesh and mu, read-only."""
    return mesh.cached(("viscous_stiffness", mu),
                       lambda mesh: ops._frozen(ops.viscous_stiffness(mesh, mu)))


def predict_velocity(mesh, state, rho_tilde, p_tilde, config, fluxes, rho_edge_n, bc_next):
    """Semi-implicit momentum solve for the tentative velocity.

    The convection matrix is built from the same mass fluxes as the
    density prediction (that compatibility is the point of step 1), the
    pressure force uses the discrete gradient of the renormalized
    pressure, and the boundary data `bc_next` at the new time level are
    the Dirichlet values.  The matrix spans all dofs, with identity rows
    on the boundary ones (`_momentum_plan`).  BiCGStab solves for x = u - g,
    where g is the boundary data with zero interior rows, from a right-hand
    side and a start that vanish on the boundary dofs: every Krylov vector
    then vanishes there too, so the iteration is the interior solve.  The
    stiffness and the matrix's refill plan are the mesh's at config.mu.
    """
    dt = config.dt
    plan = mesh.cached(("momentum_plan", config.mu),
                       lambda mesh: _momentum_plan(mesh, _stiffness(mesh, config.mu)))
    interior = plan.interior
    m_new = np.repeat(mesh.diamond_volumes * rho_tilde, 2) / dt
    inputs = np.concatenate([*ops.convection_stencil(fluxes, config.convection),
                             np.where(interior, m_new, 1.0)])
    A = plan.pattern.fill(inputs)          # (C + M) + K entry by entry, as the sum of the three
    A.data += plan.viscous
    rhs = (mesh.diamond_volumes * rho_edge_n)[:, None] / dt * state.u
    rhs -= ops.gradient(mesh, p_tilde)
    rhs += config.forcing(mesh, state.t + dt)
    g = np.where(interior, 0.0, bc_next.ravel())
    b = np.where(interior, rhs.ravel() - A @ g, 0.0)

    precond = None
    if interior.any():
        # the sine-transform inverse of mean mass + viscous part pays off
        # when viscosity dominates the diagonal; else Jacobi is as good
        m_bar = np.mean(m_new[interior])
        if plan.viscous_diagonal > m_bar:
            precond = ops.momentum_preconditioner(mesh, config.mu, m_bar)
    x, report = _solve("momentum solve", bicgstab_solve, A, b, config.lin,
                       x0=np.where(interior, state.u.ravel(), 0.0), precond=precond)
    return (g + x).reshape(-1, 2), report


# ----------------------------------------------------------------------
# step 4: nonlinear projection

# Forcing term of the inexact Newton passes (Dembo, Eisenstat & Steihaug 1982):
# a pass cuts the mass residual only by about 0.03 at dt = 1, so its CG solve
# need only reach well below that, not the linear solver's tolerance
ETA = 1e-3
PROJ_MAXIT = 100                # passes before the projection counts as stalled


def projection_step(mesh, state, rho_tilde, p_tilde, u_tilde, config):
    """Coupled pressure/velocity correction enforcing the cell mass balance.

    Inner iteration: inexact Newton on the upwind mass-balance residual.
    Each pass solves the Newton-shifted pressure system for a correction
    from zero to ETA times its right-hand side, with the equation of state
    linearized and the upwind density lagged at the current iterate, then
    relaxes the correction and updates the velocity by the gradient of the
    carried increment q = p - p_tilde.  q's constant part is a separate scalar:
    at large dt it outgrows the fluctuation, whose low bits the gradient
    needs.  Converged when the relative upwind mass-balance residual (the one
    the energy analysis needs) is below the projection tolerance; a SchemeError
    carries that residual of every iterate evaluated, the starting one first.
    """
    dt = config.dt
    vol = mesh.cell_volumes
    r_dt2 = vol / dt ** 2
    minv = 1.0 / (mesh.diamond_volumes * rho_tilde)
    res_scale = np.max(vol * state.rho) / dt
    # CG's error spends at most half the mass-balance budget, as |r|_inf <= |r|_2
    lin = replace(config.lin, rel_tol=max(config.lin.rel_tol, ETA),
                  abs_tol=0.5 * config.proj_eps * res_scale / dt)

    p_k, u_k, q, q_mean = p_tilde, u_tilde, np.zeros_like(p_tilde), 0.0
    history, cg_iterations = [], 0

    def mass_balance(p, u, where):
        """Density, upwind density and mass-balance residual of an iterate."""
        try:
            rho = config.eos.rho(p)
        except EosDomainError as err:
            raise SchemeError(f"projection iterate left the admissible pressure range "
                              f"({where}): {err}", history) from err
        rho_up, res = ops.upwind_mass_balance(mesh, rho, state.rho, u, dt)
        history.append(np.max(np.abs(res)) / res_scale)
        return rho, rho_up, res

    rho_k, rho_up_k, res_k = mass_balance(p_k, u_k, "starting iterate")
    for k in range(1, PROJ_MAXIT + 1):
        shift = r_dt2 * config.eos.drho_dp(p_k)             # the Newton shift
        A = ops.pressure_laplacian(mesh, rho_tilde, rho_up_k, shift)
        b = -res_k / dt
        d, solve = _solve("projection pressure solve", cg_solve, A, b, lin,
                          precond=ops.pressure_preconditioner(mesh, A, shift))
        cg_iterations += solve.iterations
        # A 1 = shift, as the Laplacian's rows sum to zero: a constant added
        # to d zeroes the summed linear residual, so total mass is kept
        d += (b.sum() - shift @ d) / shift.sum()
        c = d.mean()
        q += config.alpha * (d - c)
        q_mean += config.alpha * c
        p_k = p_tilde + (q + q_mean)
        # boundary rows keep u_tilde: the gradient vanishes there
        u_k = u_tilde - dt * minv[:, None] * ops.gradient(mesh, q)
        rho_k, rho_up_k, res_k = mass_balance(p_k, u_k, f"update of inner iteration {k}")
        if history[-1] < config.proj_eps:
            break
    else:
        raise SchemeError(
            f"projection did not converge in {PROJ_MAXIT} iterations "
            f"(residual {history[-1]:.3e}, target {config.proj_eps:.3e})", history)

    if np.any(rho_k <= 0.0):
        raise SchemeError(f"projection produced nonpositive density (min {rho_k.min():.3e})")
    return u_k, p_k, rho_k, ProjectionReport(k, history[-1], cg_iterations)


# ----------------------------------------------------------------------
# step 5: velocity renormalization

def renormalize_velocity(mesh, u_bar, rho_new, rho_tilde, bc_next):
    """Scale the corrected velocity so its kinetic weight moves to rho_new.

    Per interior edge sqrt(rho_sigma_new) u = sqrt(rho_tilde) u_bar, with
    rho_sigma_new the half-diamond average of the end-of-step density;
    boundary rows are reset to the prescribed data.
    """
    rho_edge_new = ops.edge_density(mesh, rho_new)
    u_new = bc_next.copy()
    internal = mesh.interior_edges
    factor = np.sqrt(rho_tilde[internal] / rho_edge_new[internal])
    u_new[internal] = factor[:, None] * u_bar[internal]
    return u_new


# ----------------------------------------------------------------------
# one full step

class Stepper:
    """Steps one config on one mesh; the fixed operators are the mesh's cached ones."""

    def __init__(self, mesh, config):
        self.mesh = mesh
        self.config = config
        self.stiffness = _stiffness(mesh, config.mu)

    def step(self, state):
        """Run steps 1-5 once; returns the new state and a step report.

        The fields several stages share (the old edge density, the sub-edge
        velocity coefficients, the mass fluxes and the boundary data at the
        new time) are computed once here; the stages require them.
        """
        mesh, config = self.mesh, self.config
        rho_edge_n = ops.edge_density(mesh, state.rho)
        coeffs = ops.subedge_velocity_coeffs(mesh, state.u)
        bc_next = config.bc(mesh, state.t + config.dt)
        rho_tilde, rep1 = predict_density(mesh, state, config, rho_edge_n, coeffs)
        fluxes = mass_fluxes(mesh, coeffs, rho_tilde)
        p_tilde, rep2 = renormalize_pressure(mesh, state, rho_tilde, config)
        u_tilde, rep3 = predict_velocity(mesh, state, rho_tilde, p_tilde, config,
                                         fluxes, rho_edge_n, bc_next)
        u_bar, p_new, rho_new, proj = projection_step(
            mesh, state, rho_tilde, p_tilde, u_tilde, config)
        u_new = renormalize_velocity(mesh, u_bar, rho_new, rho_tilde, bc_next)
        new_state = SchemeState(state.t + config.dt, u_new, p_new, rho_new, rho_tilde)
        return new_state, StepReport(
            u_tilde=u_tilde, inner_iterations=proj.iterations, mass_residual=proj.mass_residual,
            solver_iterations={"density": rep1.iterations, "renorm": rep2.iterations,
                               "momentum": rep3.iterations, "projection": proj.solver_iterations})

    def run(self, state, nsteps, on_step=None):
        """Advance nsteps; on_step(step_index, state, report) per step."""
        for n in range(1, nsteps + 1):
            state, report = self.step(state)
            if on_step is not None:
                on_step(n, state, report)
        return state
