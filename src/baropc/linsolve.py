"""Krylov solvers for the sparse systems of the time stepper.

Preconditioned conjugate gradients for the symmetric positive
(semi-)definite pressure systems, BiCGStab for the nonsymmetric
transport/momentum systems, and a null-space aware variant of CG for the
singular Neumann-type renormalization operator.  CG and BiCGStab take an
optional preconditioner callable r -> z (the stepper passes the
fast-Poisson one of `operators.pressure_preconditioner` to CG, and the
sine-transform one of `operators.momentum_preconditioner` to the momentum
BiCGStab when viscosity dominates); without one, they use the Jacobi
(diagonal) preconditioner.  Everything reports iteration counts and
final residuals; non-convergence and non-finite recurrences raise with the
residual history attached.
"""

import math
from dataclasses import dataclass, field

import numpy as np


class LinearSolverError(RuntimeError):
    def __init__(self, msg, history=None):
        super().__init__(msg)
        self.history = list(history) if history is not None else []


@dataclass
class SolverConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_iter: int | None = None          # default 10 * unknown count

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("solver tolerances must be positive")

    def iterations(self, n):
        return self.max_iter if self.max_iter is not None else max(50, 10 * n)


@dataclass
class SolveReport:
    iterations: int
    residual: float
    target: float
    converged: bool
    history: list = field(default_factory=list)


def _jacobi(A):
    """The preconditioner r -> r / diag(A), with zero diagonal entries read as 1."""
    d = A.diagonal().copy()
    d[np.abs(d) < 1e-300] = 1.0
    minv = 1.0 / d
    return lambda r: minv * r


def cg_solve(A, b, config=None, precond=None, _project=None):
    """Preconditioned conjugate gradients for symmetric positive (semi-)definite A.

    Starts from x = 0 and stops when ||b - A x|| <= max(rel_tol * ||b||,
    abs_tol).  `precond` maps a residual r to z ~ A^-1 r and must be
    symmetric positive definite on the range of A; by default it is the
    Jacobi (diagonal) preconditioner.  `_project` is an optional
    per-iteration hook applied to the iterate, used by neumann_solve to pin
    the constant null-space component.
    """
    config = config or SolverConfig()
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise LinearSolverError("right-hand side is not finite")
    n = b.size
    target = max(config.rel_tol * np.linalg.norm(b), config.abs_tol)
    x = np.zeros(n)
    precond = precond or _jacobi(A)

    r = b.copy()
    history = [np.linalg.norm(r)]
    if history[-1] <= target:
        return x, SolveReport(0, history[-1], target, True, history)
    z = precond(r)
    p = z.copy()
    rz = r @ z

    maxit = config.iterations(n)
    for k in range(1, maxit + 1):
        Ap = A @ p
        pAp = p @ Ap
        if not (np.isfinite(rz) and np.isfinite(pAp)):
            raise LinearSolverError(
                f"CG recurrence not finite at iteration {k}: r.z = {rz:.3e}, "
                f"p.Ap = {pAp:.3e}", history)
        if pAp <= 0.0:
            raise LinearSolverError(
                f"CG breakdown at iteration {k}: p.Ap = {pAp:.3e} (matrix not SPD?)",
                history)
        alpha = rz / pAp
        x += alpha * p
        if _project is not None:
            x = _project(x)
        r -= alpha * Ap
        res = np.linalg.norm(r)
        history.append(res)
        if not np.isfinite(res):
            raise LinearSolverError(f"CG residual not finite at iteration {k}", history)
        if res <= target:
            # guard against drift in the recurrence residual
            r = b - A @ x
            res = np.linalg.norm(r)
            history[-1] = res
            if res <= target:
                return x, SolveReport(k, res, target, True, history)
            # the old direction is not conjugate to the true residual: restart
            z = precond(r)
            p = z.copy()
            rz = r @ z
            continue
        z = precond(r)
        rz_new = r @ z
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new
    raise LinearSolverError(
        f"CG did not converge in {maxit} iterations (residual {history[-1]:.3e}, "
        f"target {target:.3e})", history)


def bicgstab_solve(A, b, config=None, x0=None, precond=None):
    """Right-preconditioned BiCGStab for general nonsingular A.

    Same stopping rule as cg_solve.  `precond` maps a vector r to
    z ~ A^-1 r; by default it is the Jacobi (diagonal) preconditioner.
    A non-finite recurrence scalar or residual raises at once.
    """
    config = config or SolverConfig()
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise LinearSolverError("right-hand side is not finite")
    n = b.size
    target = max(config.rel_tol * np.linalg.norm(b), config.abs_tol)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    precond = precond or _jacobi(A)

    def check(k, name, value):
        if not math.isfinite(value):
            raise LinearSolverError(
                f"BiCGStab recurrence not finite at iteration {k}: {name} = {value:.3e}",
                history)

    r = b - A @ x
    history = [np.linalg.norm(r)]
    if history[-1] <= target:
        return x, SolveReport(0, history[-1], target, True, history)
    rhat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)

    maxit = config.iterations(n)
    for k in range(1, maxit + 1):
        rho_new = rhat @ r
        check(k, "rho", rho_new)
        if rho_new == 0.0 or (omega == 0.0 and k > 1):
            # stagnated shadow residual: restart from the current iterate
            r = b - A @ x
            rhat = r.copy()
            rho = alpha = omega = 1.0
            v[:] = 0.0
            p[:] = 0.0
            rho_new = rhat @ r
            if rho_new == 0.0:
                break
        beta = (rho_new / rho) * (alpha / omega) if k > 1 else 0.0
        rho = rho_new
        p = r + beta * (p - omega * v)
        phat = precond(p)
        v = A @ phat
        denom = rhat @ v
        check(k, "rhat.v", denom)
        if denom == 0.0:
            raise LinearSolverError(f"BiCGStab breakdown at iteration {k}", history)
        alpha = rho / denom
        s = r - alpha * v
        if np.linalg.norm(s) <= target:
            x += alpha * phat
            res = np.linalg.norm(b - A @ x)
            history.append(res)
            if res <= target:
                return x, SolveReport(k, res, target, True, history)
            r = b - A @ x
            continue
        shat = precond(s)
        t = A @ shat
        tt = t @ t
        check(k, "t.t", tt)
        if tt == 0.0:
            raise LinearSolverError(f"BiCGStab breakdown (t = 0) at iteration {k}", history)
        omega = (t @ s) / tt
        check(k, "omega", omega)
        x += alpha * phat + omega * shat
        r = s - omega * t
        res = np.linalg.norm(r)
        history.append(res)
        check(k, "residual", res)
        if res <= target:
            true_res = np.linalg.norm(b - A @ x)
            history[-1] = true_res
            if true_res <= target:
                return x, SolveReport(k, true_res, target, True, history)
            r = b - A @ x
    raise LinearSolverError(
        f"BiCGStab did not converge in {maxit} iterations (residual {history[-1]:.3e}, "
        f"target {target:.3e})", history)


def neumann_solve(A, b, volumes, config=None, precond=None):
    """Solve a singular symmetric system whose null space is the constants.

    The right-hand side must be (numerically) orthogonal to constants;
    the returned solution has zero volume-weighted mean.  Callers may add
    any constant afterwards.  `precond` is passed to cg_solve; it should
    map residuals orthogonal to the constants to the same subspace.
    """
    config = config or SolverConfig()
    b = np.asarray(b, dtype=float)
    volumes = np.asarray(volumes, dtype=float)
    bnorm = np.linalg.norm(b)
    if bnorm <= config.abs_tol:
        return np.zeros(b.size), SolveReport(0, bnorm, config.abs_tol, True, [bnorm])
    constant_part = abs(b.sum()) / np.sqrt(b.size)
    if constant_part > max(1e3 * config.rel_tol * bnorm, config.abs_tol):
        raise LinearSolverError(
            f"incompatible right-hand side: constant component "
            f"{constant_part / bnorm:.3e} of |b|")
    vtot = volumes.sum()

    def project(x):
        return x - (volumes @ x) / vtot

    x, report = cg_solve(A, b, config, precond=precond, _project=project)
    return project(x), report
