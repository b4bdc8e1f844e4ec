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


class HistoryError(RuntimeError):
    """A failure that carries the residual (or iterate) history up to it."""

    def __init__(self, msg, history=None):
        super().__init__(msg)
        self.history = list(history) if history is not None else []


class LinearSolverError(HistoryError):
    pass


@dataclass
class SolverConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_iter: int | None = None          # default 10 * unknown count

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("solver tolerances must be positive")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")

    def iterations(self, n):
        return self.max_iter if self.max_iter is not None else max(50, 10 * n)


@dataclass
class SolveReport:
    iterations: int
    residual: float
    target: float
    history: list = field(default_factory=list)


def _jacobi(A):
    """The preconditioner r -> r / diag(A), with zero diagonal entries read as 1."""
    d = A.diagonal().copy()
    d[np.abs(d) < 1e-300] = 1.0
    minv = 1.0 / d
    return lambda r: minv * r


def _start(A, b, config, precond):
    """The checked right-hand side, the finite stopping target max(rel_tol |b|,
    abs_tol), the preconditioner (Jacobi by default) and the iteration cap."""
    config = config or SolverConfig()
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise LinearSolverError("right-hand side is not finite")
    target = max(config.rel_tol * np.linalg.norm(b), config.abs_tol)
    if not np.isfinite(target):
        raise LinearSolverError(
            f"stopping target is not finite: {target} (rel_tol {config.rel_tol})")
    return b, target, precond or _jacobi(A), config.iterations(b.size)


def cg_solve(A, b, config=None, precond=None):
    """Preconditioned conjugate gradients for symmetric positive (semi-)definite A.

    Starts from x = 0 and stops when ||b - A x|| <= max(rel_tol * ||b||,
    abs_tol).  `precond` maps a residual r to z ~ A^-1 r and must be
    symmetric positive definite on the range of A; by default it is the
    Jacobi (diagonal) preconditioner.
    """
    b, target, precond, maxit = _start(A, b, config, precond)
    x = np.zeros(b.size)
    r = b.copy()
    history = [np.linalg.norm(r)]
    if history[-1] <= target:
        return x, SolveReport(0, history[-1], target, history)
    p, rz = np.zeros(b.size), np.inf       # beta = 0: the first direction is z
    for k in range(1, maxit + 1):
        z = precond(r)
        rz_old, rz = rz, r @ z
        p = z + (rz / rz_old) * p
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
                return x, SolveReport(k, res, target, history)
            rz = np.inf    # the old direction is not conjugate to the true residual: restart
    raise LinearSolverError(
        f"CG did not converge in {maxit} iterations (residual {history[-1]:.3e}, "
        f"target {target:.3e})", history)


def bicgstab_solve(A, b, config=None, x0=None, precond=None):
    """Right-preconditioned BiCGStab for general nonsingular A.

    Same stopping rule as cg_solve.  `precond` maps a vector r to
    z ~ A^-1 r; by default it is the Jacobi (diagonal) preconditioner.
    A non-finite recurrence scalar or residual raises at once.  A
    breakdown (rhat . v = 0) restarts from the current iterate with its
    residual as the new shadow residual; it raises only where it recurs
    right after a (re)start.
    """
    b, target, precond, maxit = _start(A, b, config, precond)
    n = b.size
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)

    def check(k, name, value):
        if not math.isfinite(value):
            raise LinearSolverError(
                f"BiCGStab recurrence not finite at iteration {k}: {name} = {value:.3e}",
                history)

    r = b - A @ x
    history = [np.linalg.norm(r)]
    if history[-1] <= target:
        return x, SolveReport(0, history[-1], target, history)
    rhat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    for k in range(1, maxit + 1):
        rho_new = rhat @ r
        check(k, "rho", rho_new)
        fresh = k == 1
        if rho_new == 0.0 or (omega == 0.0 and k > 1):
            # stagnated shadow residual: restart from the current iterate
            fresh = True
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
            if fresh:              # a restart would repeat this iteration
                raise LinearSolverError(f"BiCGStab breakdown at iteration {k}", history)
            omega = 0.0            # restart from the current iterate next iteration
            continue
        alpha = rho / denom
        s = r - alpha * v
        res = np.linalg.norm(s)
        if res <= target:          # converged half way: the omega step is not needed
            x += alpha * phat
            history.append(res)
        else:
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
            # confirm on the true residual, against drift in the recurrence
            r = b - A @ x
            history[-1] = res = np.linalg.norm(r)
            if res <= target:
                return x, SolveReport(k, res, target, history)
    raise LinearSolverError(
        f"BiCGStab did not converge in {maxit} iterations (residual {history[-1]:.3e}, "
        f"target {target:.3e})", history)


def neumann_solve(A, b, volumes, config=None, precond=None):
    """Solve a singular symmetric system whose null space is the constants.

    The right-hand side must be (numerically) orthogonal to constants; its
    rounding-level constant component is removed before CG, and the
    solution's once after it, to zero volume-weighted mean.  Callers may add
    any constant afterwards.  `precond` is passed to cg_solve; it should
    map residuals orthogonal to the constants to the same subspace.
    """
    config = config or SolverConfig()
    b = np.asarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    constant_part = abs(b.sum()) / np.sqrt(b.size)
    if constant_part > max(1e3 * config.rel_tol * bnorm, config.abs_tol):
        raise LinearSolverError(
            f"incompatible right-hand side: constant component "
            f"{constant_part / bnorm:.3e} of |b|")
    x, report = cg_solve(A, b - b.sum() / b.size, config, precond=precond)
    return x - (volumes @ x) / np.sum(volumes), report
