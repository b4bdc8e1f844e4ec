"""Energy bookkeeping and executable checks of the discrete estimates.

Three inequalities are checked numerically, all sharing the same scaling
convention (margins are reported together with the magnitude of the
larger side, so tolerances are mesh independent):

* transport_energy_margin -- the kinetic-energy stability of the upwind /
  centered finite-volume transport operator, valid whenever the two
  density families satisfy the discrete mass balance;
* pressure_work_margin -- the bound of the pressure work by the time
  increment of the elastic potential, valid whenever pressure and
  velocity satisfy the upwind cell mass balance;
* energy_bound_check -- the global per-step energy bound of the scheme
  (kinetic + elastic + cumulated viscous dissipation + weighted pressure
  semi-norm), for zero forcing and zero boundary data;
  energy_decrement_check is its sharper per-step form.
"""

import numpy as np

from . import operators as ops


class HypothesisError(ValueError):
    """A checker was asked to certify an inequality whose premises fail."""


_TINY = 1e-300


# ----------------------------------------------------------------------
# norms of the stability estimate

def kinetic_energy(mesh, u, w_edge):
    """(1/2) sum over interior edges of |D_sigma| w_sigma |u_sigma|^2."""
    e = mesh.interior_edges
    return 0.5 * np.sum(mesh.diamond_volumes[e] * w_edge[e]
                        * np.sum(u[e] ** 2, axis=1))


def elastic_energy(mesh, rho, eos):
    """Integral of rho * P(rho) with the module's anchored potential."""
    return np.sum(mesh.cell_volumes * rho * eos.potential(rho))


def pressure_seminorm_sq(mesh, q, w_edge):
    """Weighted discrete H1 semi-norm squared of a cell field."""
    e = mesh.interior_edges
    K = mesh.edge_cells[e, 0]
    L = mesh.edge_cells[e, 1]
    jump = q[K] - q[L]
    return np.sum(mesh.edge_lengths[e] ** 2 / (mesh.diamond_volumes[e] * w_edge[e])
                  * jump ** 2)


def viscous_dissipation(mesh, u, mu, stiffness=None):
    """Broken a(u, u) = mu |grad u|^2 + (mu/3) |div u|^2, elementwise."""
    if stiffness is None:
        stiffness = ops.viscous_stiffness(mesh, mu)
    flat = np.asarray(u, dtype=float).ravel()
    return flat @ (stiffness @ flat)


# ----------------------------------------------------------------------
# energy ledger

LEDGER_COLUMNS = ("step", "time", "kinetic", "elastic", "viscous_cum",
                  "psem", "total_mass", "min_density", "stab_margin")


class EnergyLedger:
    """Per-step record of the quantities entering the energy bound."""

    def __init__(self, mesh, config, stiffness=None):
        self.mesh = mesh
        self.config = config
        self.stiffness = stiffness if stiffness is not None \
            else ops.viscous_stiffness(mesh, config.mu)
        self.rows = []
        self._viscous_cum = 0.0

    def _record(self, step, state, u_tilde):
        entry = ledger_entry(self.mesh, state, u_tilde, self.config, self.stiffness)
        self._viscous_cum += entry.pop("viscous_increment")
        row = {"step": step, "time": state.t, **entry,
               "viscous_cum": self._viscous_cum, "stab_margin": np.nan}
        self.rows.append(row)
        return row

    def record_initial(self, state):
        return self._record(0, state, None)

    def record_step(self, step, state, u_tilde):
        return self._record(step, state, u_tilde)

    def bound_sides(self):
        """(lhs(n))_n and the constant rhs(0) of the energy bound."""
        lhs = np.array([r["kinetic"] + r["elastic"] + r["viscous_cum"] + r["psem"]
                        for r in self.rows])
        r0 = self.rows[0]
        rhs0 = r0["kinetic"] + r0["elastic"] + r0["psem"]
        return lhs, rhs0

    def fill_margins(self):
        lhs, rhs0 = self.bound_sides()
        for row, l in zip(self.rows, lhs):
            row["stab_margin"] = rhs0 - l

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(LEDGER_COLUMNS) + "\n")
            for row in self.rows:
                fh.write(",".join(csv_number(row[c]) for c in LEDGER_COLUMNS) + "\n")


def csv_number(value):
    """CSV text of a number: integers as such, floats with 17 significant digits."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def ledger_entry(mesh, state, u_tilde, config, stiffness=None):
    """Energy terms of one ledger row; u_tilde = None adds no dissipation."""
    rho_edge = ops.edge_density(mesh, state.rho)
    return {
        "kinetic": kinetic_energy(mesh, state.u, rho_edge),
        "elastic": elastic_energy(mesh, state.rho, config.eos),
        "viscous_increment": 0.0 if u_tilde is None else config.dt * viscous_dissipation(
            mesh, u_tilde, config.mu, stiffness),
        "psem": 0.5 * config.dt ** 2
                * pressure_seminorm_sq(mesh, state.p, state.rho_edge_pred),
        "total_mass": np.sum(mesh.cell_volumes * state.rho),
        "min_density": min(state.rho.min(), state.rho_edge_pred.min()),
    }


# ----------------------------------------------------------------------
# transport operator stability (abstract control-volume instance)

def transport_energy_margin(volumes, dt, rho_star, rho, edges, fluxes,
                            z_star, z, mode="centered", hyp_tol=1e-10):
    """Margin of the kinetic-energy estimate for the transport operator.

    The control volumes form an abstract graph: `edges` is an (m, 2)
    index array and fluxes[e] is the mass flux out of edges[e, 0] (the
    flux out of the other side is its negative, so conservativity is
    structural).  rho and rho_star must satisfy the discrete mass
    balance; that hypothesis is verified first and a HypothesisError is
    raised if it fails, so the check can never pass vacuously.

    Returns (margin, scale) with margin = lhs - rhs >= 0 up to rounding.
    """
    volumes = np.asarray(volumes, dtype=float)
    rho = np.asarray(rho, dtype=float)
    rho_star = np.asarray(rho_star, dtype=float)
    z = np.asarray(z, dtype=float)
    z_star = np.asarray(z_star, dtype=float)
    edges = np.asarray(edges, dtype=int)
    fluxes = np.asarray(fluxes, dtype=float)
    if np.any(rho <= 0.0) or np.any(rho_star <= 0.0):
        raise HypothesisError("densities must be positive")

    res = volumes * (rho - rho_star) / dt
    np.add.at(res, edges[:, 0], fluxes)
    np.add.at(res, edges[:, 1], -fluxes)
    scale_h = max(np.max(np.abs(volumes * (np.abs(rho) + np.abs(rho_star)) / dt)),
                  np.max(np.abs(fluxes), initial=0.0), _TINY)
    if np.max(np.abs(res)) > hyp_tol * scale_h:
        raise HypothesisError(
            f"mass balance violated: residual {np.max(np.abs(res)):.3e} "
            f"(scale {scale_h:.3e})")

    zK = z[edges[:, 0]]
    zL = z[edges[:, 1]]
    if mode == "centered":
        z_sigma = 0.5 * (zK + zL)
    elif mode == "upwind":
        z_sigma = np.where(fluxes >= 0.0, zK, zL)
    else:
        raise ValueError(f"unknown mode '{mode}'")

    lhs = np.sum(volumes / dt * z * (rho * z - rho_star * z_star))
    lhs += np.sum(fluxes * z_sigma * (zK - zL))
    rhs = 0.5 * np.sum(volumes / dt * (rho * z ** 2 - rho_star * z_star ** 2))
    return lhs - rhs, max(abs(lhs), abs(rhs), _TINY)


# ----------------------------------------------------------------------
# pressure work vs elastic potential

def pressure_work_margin(mesh, dt, p, rho_star, u_bar, eos, hyp_tol=1e-10):
    """Margin of the elastic-potential bound on the pressure work.

    (p, u_bar) must satisfy the upwind cell mass balance against
    rho_star; verified first (HypothesisError otherwise).  Returns
    (margin, scale) with
        margin = -sum_K p_K (div u_bar)_K
                 - (1/dt) sum_K |K| (rho P(rho) - rho* P(rho*))  >= 0.
    """
    p = np.asarray(p, dtype=float)
    rho_star = np.asarray(rho_star, dtype=float)
    rho = eos.rho(p)
    rho_up = ops.upwind_cell_density(mesh, rho, u_bar)
    res = mesh.cell_volumes * (rho - rho_star) / dt
    res += ops.divergence(mesh, rho_up[:, None] * u_bar)
    scale_h = max(np.max(mesh.cell_volumes * (rho + rho_star)) / dt, _TINY)
    if np.max(np.abs(res)) > hyp_tol * scale_h:
        raise HypothesisError(
            f"cell mass balance violated: residual {np.max(np.abs(res)):.3e} "
            f"(scale {scale_h:.3e})")

    work = -np.sum(p * ops.divergence(mesh, u_bar))
    delta = np.sum(mesh.cell_volumes
                   * (rho * eos.potential(rho) - rho_star * eos.potential(rho_star))) / dt
    return work - delta, max(abs(work), abs(delta), _TINY)


# ----------------------------------------------------------------------
# global energy bound

def energy_bound_check(ledger, slack=1e-10):
    """Verify lhs(n) <= rhs(0) for every recorded step.

    Returns (ok, worst_relative_margin, worst_step); margins are relative
    to the larger side.  Step 0 meets the bound with equality by
    construction, so the worst margin is taken over steps >= 1 unless the
    ledger holds the initial row only.  Only meaningful for zero-forcing,
    zero-boundary runs.
    """
    lhs, rhs0 = ledger.bound_sides()
    scale = np.maximum(np.abs(lhs), abs(rhs0))
    scale[scale < _TINY] = _TINY
    rel = (rhs0 - lhs) / scale
    first = 1 if rel.size > 1 else 0
    worst = first + int(np.argmin(rel[first:]))
    return bool(np.all(rel >= -slack)), float(rel[worst]), worst


def energy_decrement_check(ledger, slack=1e-10):
    """Verify lhs(n) <= lhs(n-1) for every recorded step n >= 1.

    This is the per-step form of the estimate, of which energy_bound_check
    is the sum: a step that gains energy fails here even while the bound
    on the initial energy still holds.  Returns (ok, worst_relative_margin,
    worst_step), margins relative to the larger of |lhs(n-1)|, |lhs(n)|;
    a ledger with the initial row only gives (True, 0.0, 0).  Only
    meaningful for zero-forcing, zero-boundary runs.
    """
    lhs, _ = ledger.bound_sides()
    if lhs.size < 2:
        return True, 0.0, 0
    scale = np.maximum(np.abs(lhs[1:]), np.abs(lhs[:-1]))
    scale[scale < _TINY] = _TINY
    rel = (lhs[:-1] - lhs[1:]) / scale
    worst = int(np.argmin(rel))
    return bool(np.all(rel >= -slack)), float(rel[worst]), worst + 1
