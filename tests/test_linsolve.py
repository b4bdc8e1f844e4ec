import numpy as np
import pytest
import scipy.sparse as sp

from baropc.linsolve import (LinearSolverError, SolverConfig, bicgstab_solve,
                             cg_solve, neumann_solve)
from baropc.mesh import build_rect_mesh
from baropc import operators as ops


def _poisson_1d(n):
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


def test_cg_identity_single_iteration():
    A = sp.identity(12, format="csr")
    b = np.arange(12, dtype=float) - 3.0
    x, report = cg_solve(A, b)
    np.testing.assert_allclose(x, b, rtol=1e-14)
    assert report.iterations <= 1
    assert np.linalg.norm(b - A @ x) <= report.target


def test_cg_poisson_against_dense_solve():
    A = _poisson_1d(10)
    b = np.sin(np.arange(10, dtype=float))
    x, report = cg_solve(A, b, SolverConfig(rel_tol=1e-12))
    expect = np.linalg.solve(A.toarray(), b)
    np.testing.assert_allclose(x, expect, atol=1e-10)
    assert np.linalg.norm(b - A @ x) <= report.target


def test_cg_random_spd(rng):
    n = 50
    M = rng.normal(size=(n, n))
    A = sp.csr_matrix(M @ M.T + n * np.eye(n))
    b = rng.normal(size=n)
    x, report = cg_solve(A, b)
    # re-verify the reported residual with an independent mat-vec
    assert np.linalg.norm(b - A @ x) <= report.target
    assert report.residual == pytest.approx(np.linalg.norm(b - A @ x), rel=1e-8)


def test_cg_nonconvergence_carries_history():
    A = _poisson_1d(40)
    b = np.ones(40)
    with pytest.raises(LinearSolverError) as err:
        cg_solve(A, b, SolverConfig(rel_tol=1e-14, max_iter=3))
    assert len(err.value.history) == 4                 # initial + 3 iterations


class _RoundedProducts:
    """A whose first `count` products (all, by default) are rounded to float32."""

    def __init__(self, A, count=None):
        self.A, self.count, self.calls = A, count, 0

    def __matmul__(self, x):
        self.calls += 1
        y = self.A @ x
        rounded = self.count is None or self.calls <= self.count
        return y.astype(np.float32).astype(float) if rounded else y

    def diagonal(self):
        return self.A.diagonal()


def test_cg_checks_the_true_residual_and_restarts_on_drift():
    # rounded products make the recurrence residual drift from the true one;
    # CG must never report the recurrence's convergence without the true
    # residual's, and must restart from the true residual to converge
    A, b = _poisson_1d(40), np.sin(np.arange(40.0))
    config = SolverConfig(rel_tol=1e-12, max_iter=400)
    with pytest.raises(LinearSolverError, match="did not converge") as err:
        cg_solve(_RoundedProducts(A), b, config)
    assert len(err.value.history) == 401
    x, report = cg_solve(_RoundedProducts(A, count=30), b, config)
    assert np.linalg.norm(b - A @ x) <= report.target


def test_cg_nonfinite_preconditioner_raises_early():
    A = _poisson_1d(40)
    with pytest.raises(LinearSolverError, match="not finite") as err:
        cg_solve(A, np.ones(40), SolverConfig(max_iter=1000),
                 precond=lambda r: np.full_like(r, np.nan))
    assert 1 <= len(err.value.history) <= 2


def test_cg_rejects_non_spd():
    A = sp.csr_matrix(-np.eye(5))
    with pytest.raises(LinearSolverError):
        cg_solve(A, np.ones(5))


@pytest.mark.parametrize("max_iter", [0, -5])
def test_solver_config_rejects_an_iteration_cap_below_one(max_iter):
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig(max_iter=max_iter)


def test_neumann_zero_rhs():
    m = build_rect_mesh(2, 1)
    A = ops.pressure_laplacian(m, np.ones(m.nedges))
    x, report = neumann_solve(A, np.zeros(2), m.cell_volumes)
    np.testing.assert_allclose(x, 0.0)
    assert np.linalg.norm(A @ x) <= report.target


def test_neumann_against_pseudo_inverse():
    m = build_rect_mesh(2, 1)
    A = ops.pressure_laplacian(m, np.ones(m.nedges))
    c = 0.8
    b = np.array([c, -c])
    x, _ = neumann_solve(A, b, m.cell_volumes)
    expect = np.linalg.pinv(A.toarray()) @ b
    expect -= (m.cell_volumes @ expect) / m.cell_volumes.sum()
    np.testing.assert_allclose(x, expect, atol=1e-11)
    assert abs(m.cell_volumes @ x) <= 1e-12 * max(np.abs(x).max(), 1.0)


def test_neumann_mean_zero_on_larger_problem(rng):
    m = build_rect_mesh(6, 5)
    w = rng.uniform(0.5, 2.0, m.nedges)
    A = ops.pressure_laplacian(m, w)
    b = rng.normal(size=m.ncells)
    b -= b.mean()                                      # compatible
    x, report = neumann_solve(A, b, m.cell_volumes, SolverConfig(rel_tol=1e-12))
    assert np.linalg.norm(b - A @ x) <= report.target
    assert abs(m.cell_volumes @ x) <= 1e-12 * np.abs(x).max() * m.cell_volumes.sum()


def test_neumann_strips_a_constant_inside_the_compatibility_tolerance(rng):
    # a constant component of 1e-9 |b| passes the check at 1e3 rel_tol but lies
    # above CG's target, so neumann_solve must remove it before CG
    m = build_rect_mesh(6, 5)
    w = rng.uniform(0.5, 2.0, m.nedges)
    A = ops.pressure_laplacian(m, w)
    b = rng.normal(size=m.ncells)
    b -= b.mean()
    x, _ = neumann_solve(A, b, m.cell_volumes)
    y, _ = neumann_solve(A, b + 1e-9 * np.linalg.norm(b) / np.sqrt(b.size), m.cell_volumes)
    np.testing.assert_allclose(y, x, rtol=0.0, atol=1e-12 * np.abs(x).max())


def test_neumann_rejects_incompatible_rhs():
    m = build_rect_mesh(3, 3)
    A = ops.pressure_laplacian(m, np.ones(m.nedges))
    with pytest.raises(LinearSolverError):
        neumann_solve(A, np.ones(m.ncells), m.cell_volumes)


def test_bicgstab_identity():
    A = sp.identity(9, format="csr")
    b = np.linspace(-1, 1, 9)
    x, report = bicgstab_solve(A, b)
    np.testing.assert_allclose(x, b, rtol=1e-12)
    assert np.linalg.norm(b - A @ x) <= report.target


def test_bicgstab_advection_diffusion_against_dense(rng):
    n = 30
    A = _poisson_1d(n).toarray()
    A += 0.8 * (np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1))
    A = sp.csr_matrix(A)
    b = rng.normal(size=n)
    x, report = bicgstab_solve(A, b, SolverConfig(rel_tol=1e-12))
    np.testing.assert_allclose(x, np.linalg.solve(A.toarray(), b), atol=1e-10)
    assert np.linalg.norm(b - A @ x) <= report.target


def test_bicgstab_takes_a_preconditioner():
    n = 30
    A = _poisson_1d(n) + 0.8 * sp.diags([np.ones(n - 1), -np.ones(n - 1)], [1, -1])
    inverse = np.linalg.inv(A.toarray())
    b = np.linspace(-1.0, 2.0, n)
    x, report = bicgstab_solve(A.tocsr(), b, precond=lambda r: inverse @ r)
    assert report.iterations == 1
    assert np.linalg.norm(b - A @ x) <= report.target


def test_bicgstab_nonfinite_matrix_entry_raises_early():
    A = _poisson_1d(40).tolil()
    A[7, 8] = np.nan
    with pytest.raises(LinearSolverError, match="not finite") as err:
        bicgstab_solve(A.tocsr(), np.ones(40), SolverConfig(max_iter=1000))
    assert 1 <= len(err.value.history) <= 2


def test_bicgstab_nonfinite_preconditioner_raises_early():
    A = _poisson_1d(40)
    with pytest.raises(LinearSolverError, match="not finite") as err:
        bicgstab_solve(A, np.ones(40), SolverConfig(max_iter=1000),
                       precond=lambda r: np.full_like(r, np.nan))
    assert 1 <= len(err.value.history) <= 2


def test_bicgstab_restarts_after_a_breakdown():
    # the third preconditioner call, iteration 2's direction, returns zero,
    # so rhat . v = 0 there: the solve restarts and still converges
    n = 30
    A = (_poisson_1d(n) + 0.8 * sp.diags([np.ones(n - 1), -np.ones(n - 1)], [1, -1])).tocsr()
    b = np.linspace(-1.0, 2.0, n)
    calls = []

    def precond(r):
        calls.append(r)
        return np.zeros_like(r) if len(calls) == 3 else r / 2.0
    x, report = bicgstab_solve(A, b, SolverConfig(rel_tol=1e-12), precond=precond)
    assert len(calls) > 3
    assert np.linalg.norm(b - A @ x) <= report.target


def test_bicgstab_breakdown_at_a_fresh_start_raises():
    # r . A r = 0 for a skew matrix: restarting cannot help
    A = sp.csr_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(LinearSolverError, match="breakdown at iteration 1") as err:
        bicgstab_solve(A, np.array([1.0, 0.0]))
    assert len(err.value.history) == 1


def test_bicgstab_singular_system_fails():
    A = sp.csr_matrix(np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(LinearSolverError):
        bicgstab_solve(A, np.array([1.0, 1.0, 1.0]),
                       SolverConfig(max_iter=50))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(abs_tol=-1.0)
    cfg = SolverConfig()
    assert cfg.iterations(100) == 1000
    assert SolverConfig(max_iter=7).iterations(100) == 7


def test_nonfinite_rhs_rejected():
    A = sp.identity(3, format="csr")
    with pytest.raises(LinearSolverError):
        cg_solve(A, np.array([1.0, np.nan, 0.0]))
    with pytest.raises(LinearSolverError):
        bicgstab_solve(A, np.array([np.inf, 0.0, 0.0]))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("solver", [cg_solve, bicgstab_solve])
@pytest.mark.parametrize("rel_tol, scale", [(np.nan, 1.0), (np.inf, 1.0), (1e-10, 1e200)])
def test_nonfinite_stopping_target_rejected_before_iterating(solver, rel_tol, scale):
    """A nan target never stops the iteration and an inf one accepts any
    residual, so both fail before the first iteration; |b| overflowing to
    inf (the last case) gives such a target from a finite tolerance."""
    A = sp.identity(3, format="csr")
    with pytest.raises(LinearSolverError, match="stopping target is not finite"):
        solver(A, np.full(3, scale), SolverConfig(rel_tol=rel_tol),
               precond=lambda r: pytest.fail("the solver iterated"))
