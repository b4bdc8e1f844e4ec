"""Smooth exact flow, forcing assembly and convergence studies.

The test flow has closed-form momentum and density chosen so that the
mass balance is satisfied identically; the momentum forcing is computed
analytically (including the viscous part) and split into the exact
pressure gradient plus a remainder.  The gradient part is injected into
the discrete right-hand side through the discrete gradient of the
cellwise projected pressure, so it lies in the range of the discrete
gradient; without that treatment the nonconforming element's gradient
inconsistency would pollute the convergence study.
"""

import time as _time

import numpy as np

from . import mesh as mesh_module
from . import operators as ops
from .diagnostics import csv_number
from .eos import AffineLaw
from .scheme import SchemeConfig, Stepper, initial_state

_PI = np.pi
_BLOCK = 8192        # points per block of the forcing evaluation
_QUAD = 3            # Gauss points per direction of the cell and edge rules
_EDGE_MEAN = ops.edge_mean_weights(_QUAD)


class SmoothFlowCase:
    """Closed-form (rho, rho*u) pair on (0,1) x (-1/2,1/2).

    rho   = 1 + (1/4) sin(pi t) (cos(pi x) - sin(pi y))
    rho*u = -(1/4) cos(pi t) (sin(pi x), cos(pi y))

    The normal velocity trace vanishes on the whole boundary at all
    times (the tangential trace does not), and d(rho)/dt + div(rho u) = 0
    holds identically.
    """

    domain = (0.0, 1.0, -0.5, 0.5)

    def __init__(self, gamma=1.4, mach=0.5, mu=1e-2):
        self.eos = AffineLaw(gamma, mach)
        self.mu = float(mu)

    # -- primitive fields and their derivatives -----------------------
    @staticmethod
    def line_factors(x1, x2):
        """The factors sin/cos(pi x1) at values x1 and sin/cos(pi x2) at values x2."""
        return (np.sin(_PI * x1), np.cos(_PI * x1)), (np.sin(_PI * x2), np.cos(_PI * x2))

    @classmethod
    def spatial(cls, x):
        """Factors sin/cos(pi x1), sin/cos(pi x2) at points x.  Every field
        method accepts them in place of x, so fixed points need them once."""
        if isinstance(x, tuple):
            return x
        x1_factors, x2_factors = cls.line_factors(x[..., 0], x[..., 1])
        return x1_factors + x2_factors

    @classmethod
    def _trig(cls, x, t):
        return (*cls.spatial(x), np.sin(_PI * t), np.cos(_PI * t))

    def rho(self, x, t):
        s1, c1, s2, c2, st, ct = self._trig(x, t)
        return 1.0 + 0.25 * st * (c1 - s2)

    def momentum(self, x, t):
        s1, c1, s2, c2, st, ct = self._trig(x, t)
        return -0.25 * ct * np.stack([s1, c2], axis=-1)

    # -- derived fields ------------------------------------------------
    def velocity(self, x, t):
        x = self.spatial(x)
        return self.momentum(x, t) / self.rho(x, t)[..., None]

    def pressure(self, x, t):
        return self.eos.pressure(self.rho(x, t))

    def forcing_rest(self, x, t):
        """Forcing minus its exact pressure-gradient part, in closed form.

        dm/dt + div(m u) - mu lap u - (mu/3) grad div u (u = m / rho) is
        F_i = e_i (g + h f_i) with h = r (pi b^2 + 2 k a r) and
        g = pi a + r (pi b^2 z + r (a E (pi b^2 + 2 k a r) - k)), where
        e = (sin pi x1, cos pi x2), f = (cos pi x1, -sin pi x2), z = f1 + f2,
        E = |e|^2, a = sin(pi t)/4, b = cos(pi t)/4, r = 1/(1 + a z) and
        k = (4/3) mu pi^2 b.  Evaluated in blocks of points small enough
        for the temporaries to stay in cache, into a component-major array.
        """
        *factors, st, ct = self._trig(x, t)
        s1, c1, s2, c2 = (f.reshape(-1) for f in factors)
        a, b = 0.25 * st, 0.25 * ct
        pb2, k = _PI * b * b, (4.0 / 3.0) * self.mu * _PI ** 2 * b
        out = np.empty((2, s1.size))
        for i in range(0, s1.size, _BLOCK):
            blk = slice(i, i + _BLOCK)
            z = c1[blk] - s2[blk]
            r = 1.0 / (1.0 + a * z)
            hr = pb2 + (2.0 * k * a) * r                    # h / r
            g = _PI * a + r * (pb2 * z + r * (a * (s1[blk] ** 2 + c2[blk] ** 2) * hr - k))
            h = r * hr
            np.multiply(s1[blk], g + h * c1[blk], out=out[0, blk])
            np.multiply(c2[blk], g - h * s2[blk], out=out[1, blk])
        return out.T.reshape(np.shape(factors[0]) + (2,))


# ----------------------------------------------------------------------
# discrete data extracted from the case

def _grid_factors(line_factors, families):
    """The read-only factors, (points, q) each, at the point sets of coordinate
    lines (x1, x2) in turn: `line_factors` evaluates those of x1 on all x1 lines
    and those of x2 on all x2 lines, and each is broadcast along the other axis."""
    f1, f2 = (np.array(f) for f in line_factors(*(np.concatenate(x) for x in zip(*families))))
    out = np.empty((len(f1) + len(f2), sum(len(x1) * len(x2) for x1, x2 in families), f1.shape[-1]))
    at = col = row = 0
    for x1, x2 in families:
        cols, rows = len(x1), len(x2)
        grid = out[:, at:at + rows * cols].reshape(len(out), rows, cols, -1)
        grid[:len(f1)] = f1[:, None, col:col + cols]
        grid[len(f1):] = f2[:, row:row + rows, None]
        at, col, row = at + rows * cols, col + cols, row + rows
    return ops._frozen(tuple(out))


def boundary_provider(case):
    """Dirichlet data callback: exact edge means at the requested time on
    the boundary rows, zero on the interior rows (no stage reads them).
    The case's factors at the boundary Gauss points are cached per mesh."""
    def bc(mesh, t):
        _, (x1v, x2v), (x1h, x2h) = ops.coordinate_lines(mesh, _QUAD)
        factors = mesh.cached(("boundary_factors", case.line_factors), lambda mesh: _grid_factors(
            case.line_factors, ((x1v[[0, -1]], x2v), (x1h, x2h[[0, -1]]))))    # the outer lines
        out = np.zeros((mesh.nedges, 2))
        out[mesh.boundary_edges] = np.einsum("q,eqd->ed", _EDGE_MEAN, case.velocity(factors, t))
        return out
    return bc


def _cell_quadrature(mesh, n, line_factors):
    """The read-only factors at the cell Gauss points (ncells, q), the
    weights (q,), summing to |K|, and the basis values (q, 4)."""
    def build(mesh):
        ref, w = ops.gauss_points_2d(n)
        return (_grid_factors(line_factors, ops.coordinate_lines(mesh, n)[:1]),
                w * (mesh.hx * mesh.hy / 4.0), ops.basis_values(ref))
    return mesh.cached(("cell_quadrature", n, line_factors), build)


def assemble_forcing(case, mesh, t, quad_order=_QUAD):
    """Momentum right-hand side with the gradient-preserving treatment.

    The non-gradient part of the forcing is integrated against the basis
    with a tensor Gauss rule; the exact-pressure part enters as the
    discrete gradient of the cellwise mean pressure, so it lies in the
    range of the discrete gradient by construction.  The quadrature data
    and the case's factors at its points are cached per mesh.
    """
    x, w, phi = _cell_quadrature(mesh, quad_order, case.line_factors)
    contrib = np.moveaxis(case.forcing_rest(x, t), -1, 0) @ (w[:, None] * phi)  # (2, nc, 4)
    scatter = mesh.cell_edges.ravel()
    rhs = np.stack([np.bincount(scatter, weights=c.ravel(), minlength=mesh.nedges)
                    for c in contrib], axis=-1)
    p_mean = np.einsum("q,cq->c", w, case.pressure(x, t)) / mesh.cell_volumes
    rhs += ops.gradient(mesh, p_mean)
    return rhs


def error_norms(mesh, state, case):
    """(velocity L2 error, pressure discrete L2 error) at the state time.

    The velocity error integrates the finite element expansion against
    the exact velocity with a tensor Gauss rule per cell; the pressure
    error is the cellwise midpoint (piecewise-constant) distance.
    """
    x, w, phi = _cell_quadrature(mesh, _QUAD, case.line_factors)
    coeffs = state.u[mesh.cell_edges]                # (ncells, 4, 2)
    u_h = phi @ coeffs                               # (ncells, q, 2)
    diff = u_h - case.velocity(x, state.t)
    err_v = np.sqrt(np.einsum("q,cqd->", w, diff ** 2))
    p_ex = case.pressure(mesh.cell_centroids, state.t)
    err_p = np.sqrt(np.sum(mesh.cell_volumes * (state.p - p_ex) ** 2))
    return err_v, err_p


# ----------------------------------------------------------------------
# study drivers

def make_config(case, dt, **settings):
    """The scheme config of the exact-flow problem; `settings` are further SchemeConfig fields."""
    return SchemeConfig(dt=dt, mu=case.mu, eos=case.eos, boundary_values=boundary_provider(case),
                        forcing_rhs=lambda mesh, t: assemble_forcing(case, mesh, t), **settings)


def initial_exact_state(case, mesh):
    """The exact density at the cell centroids and velocity edge means at t = 0."""
    factors = _grid_factors(case.line_factors, ops.coordinate_lines(mesh, _QUAD)[1:])
    return initial_state(mesh, case.eos, case.rho(mesh.cell_centroids, 0.0),
                         np.einsum("q,eqd->ed", _EDGE_MEAN, case.velocity(factors, 0.0)))


def step_count(t_end, dt):
    """Number of steps of `dt` to t_end; ValueError unless it is finite,
    >= 1 and lands on t_end to 1e-9 relative."""
    ratio = t_end / dt
    nsteps = int(round(ratio)) if np.isfinite(ratio) else 0
    if nsteps < 1 or abs(nsteps * dt - t_end) > 1e-9 * max(t_end, dt):
        raise ValueError(f"t_end {t_end} is not a positive multiple of dt {dt}")
    return nsteps


def run_smooth_flow(mesh, dt, t_end=0.5, case=None, **config_kwargs):
    """Advance the exact-flow problem to t_end; returns (state, info).

    info carries the error norms at t_end and inner-iteration counts.
    """
    case = case or SmoothFlowCase()
    nsteps = step_count(t_end, dt)
    config = make_config(case, dt, **config_kwargs)
    state = initial_exact_state(case, mesh)
    stepper = Stepper(mesh, config)
    inner = []
    t0 = _time.perf_counter()
    state = stepper.run(state, nsteps,
                        on_step=lambda n, s, rep: inner.append(rep.inner_iterations))
    wall = _time.perf_counter() - t0
    err_v, err_p = error_norms(mesh, state, case)
    info = {
        "err_v": err_v,
        "err_p": err_p,
        "inner_mean": float(np.mean(inner)) if inner else 0.0,
        "inner_max": int(np.max(inner)) if inner else 0,
        "wall_seconds": wall,
    }
    return state, info


def fit_order(dts, errors):
    """Least-squares log-log slope over the pre-plateau range.

    The pre-plateau range is the leading run of time steps over which
    each halving still reduces the error by more than a factor 1.5.
    Returns (order, n_points_used); nan if fewer than two points qualify.
    """
    dts = np.asarray(dts, dtype=float)
    errors = np.asarray(errors, dtype=float)
    idx = np.argsort(-dts)
    dts, errors = dts[idx], errors[idx]
    last = 0
    while last + 1 < dts.size and errors[last] / errors[last + 1] > 1.5:
        last += 1
    if last < 1:
        return float("nan"), 1
    x = np.log(dts[:last + 1])
    y = np.log(errors[:last + 1])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope), last + 1


def convergence_study(mesh_sizes, dts, t_end=0.5, case=None, domain=None,
                      **config_kwargs):
    """Run the exact-flow problem on every (mesh, dt) pair.

    Returns (rows, orders): one row per run with the errors at t_end,
    and per-mesh fitted temporal orders for velocity and pressure.  All
    dts of a mesh size share one mesh.  ValueError if a mesh size or a
    dt is listed twice.
    """
    case = case or SmoothFlowCase()
    domain = domain or case.domain
    for what, items in (("mesh", [f"{nx}x{ny}" for nx, ny in mesh_sizes]), ("dt", list(dts))):
        for twice in (x for i, x in enumerate(items) if x in items[:i]):
            raise ValueError(f"convergence study lists {what} {twice} twice")
    rows, orders = [], {}
    for nx, ny in mesh_sizes:
        mesh = mesh_module.build_rect_mesh(nx, ny, domain)
        sub = []
        for dt in dts:
            _, info = run_smooth_flow(mesh, dt, t_end, case, **config_kwargs)
            sub.append(dict(nx=nx, ny=ny, dt=dt, err_v_L2=info["err_v"], err_p_L2=info["err_p"],
                            inner_iter_mean=info["inner_mean"], wall_seconds=info["wall_seconds"]))
        orders[(nx, ny)] = {name: fit_order(dts, [r[col] for r in sub])[0]
                            for name, col in (("velocity", "err_v_L2"), ("pressure", "err_p_L2"))}
        rows += sub
    return rows, orders


def write_convergence_csv(path, rows):
    cols = ("nx", "ny", "dt", "err_v_L2", "err_p_L2", "inner_iter_mean",
            "wall_seconds")
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(csv_number(row[c]) for c in cols) + "\n")
