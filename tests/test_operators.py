import numpy as np
import pytest

from baropc.mesh import build_rect_mesh
from baropc import operators as ops
from baropc.operators import FieldError

from conftest import meshes_for_tests, smooth_cell_field, zero_boundary_velocity
import oracles


# ----------------------------------------------------------------------
# an independent construction of the rotated bilinear basis: solve for the
# coefficients of span{1, x, y, x^2 - y^2} from edge-mean conditions
# evaluated with dense Gauss quadrature

def _oracle_basis_coeffs():
    x, w = np.polynomial.legendre.leggauss(10)
    w = w / 2.0
    edges = {
        0: np.column_stack([-np.ones_like(x), x]),     # left
        1: np.column_stack([np.ones_like(x), x]),      # right
        2: np.column_stack([x, -np.ones_like(x)]),     # bottom
        3: np.column_stack([x, np.ones_like(x)]),      # top
    }
    monomials = lambda p: np.stack(
        [np.ones_like(p[:, 0]), p[:, 0], p[:, 1], p[:, 0] ** 2 - p[:, 1] ** 2],
        axis=-1)
    M = np.array([w @ monomials(edges[k]) for k in range(4)])
    return np.linalg.solve(M, np.eye(4))               # columns: basis coeffs


def _oracle_basis_values(pts):
    coeffs = _oracle_basis_coeffs()
    mono = np.stack([np.ones_like(pts[..., 0]), pts[..., 0], pts[..., 1],
                     pts[..., 0] ** 2 - pts[..., 1] ** 2], axis=-1)
    return mono @ coeffs


def test_basis_matches_independent_construction(rng):
    pts = rng.uniform(-1, 1, (200, 2))
    np.testing.assert_allclose(ops.basis_values(pts), _oracle_basis_values(pts),
                               atol=1e-12)


def test_basis_edge_mean_nodal_property():
    x, w = np.polynomial.legendre.leggauss(7)
    w = w / 2.0
    lines = [np.column_stack([-np.ones_like(x), x]),
             np.column_stack([np.ones_like(x), x]),
             np.column_stack([x, -np.ones_like(x)]),
             np.column_stack([x, np.ones_like(x)])]
    means = np.array([w @ ops.basis_values(line) for line in lines])
    np.testing.assert_allclose(means, np.eye(4), atol=1e-14)


def test_partition_of_unity(rng):
    pts = rng.uniform(-1, 1, (64, 2))
    np.testing.assert_allclose(ops.basis_values(pts).sum(axis=-1), 1.0,
                               rtol=1e-14)


def test_basis_gradients_fd(rng):
    pts = rng.uniform(-0.9, 0.9, (30, 2))
    d = 1e-6
    ex = np.zeros_like(pts); ex[:, 0] = d
    ey = np.zeros_like(pts); ey[:, 1] = d
    gx = (ops.basis_values(pts + ex) - ops.basis_values(pts - ex)) / (2 * d)
    gy = (ops.basis_values(pts + ey) - ops.basis_values(pts - ey)) / (2 * d)
    grads = ops.basis_gradients(pts)
    np.testing.assert_allclose(grads[..., 0], gx, atol=1e-9)
    np.testing.assert_allclose(grads[..., 1], gy, atol=1e-9)


def test_shape_value_interface():
    m = build_rect_mesh(2, 2)
    k = 0
    own = m.cell_edges[k][1]
    val = oracles.shape_value(m, k, own, m.cell_centroids[k])
    assert val == pytest.approx(0.25)                 # 1/4 + 0 + 0 at center
    with pytest.raises(FieldError):
        oracles.shape_value(m, k, own, m.cell_centroids[3])
    with pytest.raises(FieldError):
        oracles.shape_value(m, k, m.cell_edges[3][1], m.cell_centroids[k])


def test_interpolate_constant_field(rng):
    m = build_rect_mesh(3, 2)
    c = np.array([1.7, -0.4])
    u = np.tile(c, (m.nedges, 1))
    for k in (0, 3, 5):
        pts = m.cell_centroids[k] + rng.uniform(-0.1, 0.1, (5, 2)) * np.array([m.hx, m.hy])
        np.testing.assert_allclose(oracles.interpolate_velocity(m, u, k, pts),
                                   np.tile(c, (5, 1)), rtol=1e-14)


def test_interpolate_reproduces_affine_fields(rng):
    # the space contains affines; edge means of an affine field reproduce it
    m = build_rect_mesh(1, 1, (0.2, 1.1, -0.3, 0.5))
    A = rng.normal(size=(2, 2))
    b = rng.normal(size=2)
    field = lambda p: p @ A.T + b
    u = ops.edge_mean(m, field)
    pts = np.column_stack([rng.uniform(0.2, 1.1, 20), rng.uniform(-0.3, 0.5, 20)])
    np.testing.assert_allclose(oracles.interpolate_velocity(m, u, 0, pts),
                               field(pts), rtol=1e-12, atol=1e-13)


def test_interpolation_at_subedge_midpoints_brute_force(rng):
    # independent route: oracle basis evaluated at reference midpoints
    m = build_rect_mesh(4, 3, (0.0, 2.0, 0.0, 1.5))
    u = rng.normal(size=(m.nedges, 2))
    a = ops.subedge_velocity_coeffs(m, u)
    ref = np.stack([
        2.0 * (m.sub_midpoints[:, 0] - m.cell_centroids[m.sub_cell, 0]) / m.hx,
        2.0 * (m.sub_midpoints[:, 1] - m.cell_centroids[m.sub_cell, 1]) / m.hy,
    ], axis=-1)
    phi = _oracle_basis_values(ref)
    umid = np.einsum("sa,sad->sd", phi, u[m.cell_edges[m.sub_cell]])
    expect = m.sub_lengths * np.einsum("sd,sd->s", umid, m.sub_normals)
    np.testing.assert_allclose(a, expect, atol=1e-13)
    # for this element the midpoint value is the mean of the two edge values
    pair_mean = 0.5 * (u[m.sub_pair[:, 0]] + u[m.sub_pair[:, 1]])
    expect2 = m.sub_lengths * np.einsum("sd,sd->s", pair_mean, m.sub_normals)
    np.testing.assert_allclose(a, expect2, atol=1e-13)


# ----------------------------------------------------------------------
# averaging and first-order operators

def test_edge_density_uniform_and_two_cell():
    m = build_rect_mesh(2, 1)
    np.testing.assert_allclose(ops.edge_density(m, np.array([3.0, 3.0])), 3.0)
    rho_e = ops.edge_density(m, np.array([1.0, 3.0]))
    assert rho_e[m.interior_edges[0]] == pytest.approx(2.0)


def test_edge_density_conserves_mass(rng):
    for m in meshes_for_tests():
        rho = smooth_cell_field(m, rng)
        rho_e = ops.edge_density(m, rho)
        assert (m.diamond_volumes @ rho_e) == pytest.approx(
            m.cell_volumes @ rho, rel=1e-13)


def test_edge_density_requires_positive():
    m = build_rect_mesh(2, 2)
    with pytest.raises(FieldError):
        ops.edge_density(m, np.array([1.0, -0.1, 1.0, 1.0]))


def test_divergence_zero_and_telescoping(rng):
    m = build_rect_mesh(3, 4)
    np.testing.assert_allclose(ops.divergence(m, np.zeros((m.nedges, 2))), 0.0)
    u = zero_boundary_velocity(m, rng)
    assert ops.divergence(m, u).sum() == pytest.approx(0.0, abs=1e-13)


def test_divergence_of_identity_map():
    m = build_rect_mesh(1, 1)
    u = ops.edge_mean(m, lambda p: p)
    np.testing.assert_allclose(ops.divergence(m, u), 2.0 * m.cell_volumes,
                               rtol=1e-14)


def test_gradient_constant_and_two_cell():
    m = build_rect_mesh(2, 1)
    np.testing.assert_allclose(ops.gradient(m, np.full(2, 3.3)), 0.0, atol=1e-14)
    g = ops.gradient(m, np.array([0.0, 1.0]))
    sig = m.interior_edges[0]
    np.testing.assert_allclose(g[sig], [1.0, 0.0])    # |sigma| (q_L - q_K) n
    np.testing.assert_allclose(g[m.boundary_edges], 0.0)


def test_gradient_divergence_duality(rng):
    for m in meshes_for_tests():
        for _ in range(20):
            q = rng.normal(size=m.ncells)
            v = zero_boundary_velocity(m, rng, amp=1.0)
            lhs = np.sum(ops.gradient(m, q) * v)
            rhs = np.sum(q * ops.divergence(m, v))
            scale = np.abs(ops.gradient(m, q) * v).sum() + np.abs(q * ops.divergence(m, v)).sum()
            assert abs(lhs + rhs) <= 1e-13 * max(scale, 1e-30)


def test_div_matrix_matches_function(rng):
    for m in meshes_for_tests():
        D = oracles.div_matrix_interior(m)
        u = zero_boundary_velocity(m, rng, amp=1.0)
        flat = u[m.interior_edges].ravel()
        np.testing.assert_allclose(D @ flat, ops.divergence(m, u), atol=1e-13)


def test_lumped_mass_values_and_inverse():
    m = build_rect_mesh(5, 5)                          # h = 0.2
    np.testing.assert_allclose(oracles.lumped_mass(m, np.ones(m.nedges)),
                               m.diamond_volumes)
    vals = oracles.lumped_mass(m, np.full(m.nedges, 2.0))
    internal = ~m.edge_is_boundary
    np.testing.assert_allclose(vals[internal], 0.2 ** 2)   # 2 |D| = h^2
    np.testing.assert_allclose(vals * (1.0 / vals), 1.0, rtol=1e-14)
    with pytest.raises(FieldError):
        oracles.lumped_mass(m, np.zeros(m.nedges))


# ----------------------------------------------------------------------
# viscous stiffness

def test_stiffness_symmetric_psd_with_constant_kernel():
    m = build_rect_mesh(4, 3, (0.0, 1.0, 0.0, 0.9))
    A = ops.viscous_stiffness(m, 1e-2)
    assert abs(A - A.T).max() == 0.0
    const = np.tile([0.8, -1.1], (m.nedges, 1)).ravel()
    assert np.abs(A @ const).max() < 1e-14
    evals = np.linalg.eigvalsh(A.toarray())
    assert evals.min() > -1e-13
    assert (evals < 1e-12).sum() == 2                 # one constant per component


def test_stiffness_quadratic_form_against_quadrature(rng):
    # independent numerical integration of mu grad:grad + (mu/3) div.div
    m = build_rect_mesh(3, 2, (0.0, 1.2, 0.0, 0.7))
    mu = 0.37
    A = ops.viscous_stiffness(m, mu)
    ref, _ = ops.gauss_points_2d(5)
    _, w = ops.cell_quadrature_points(m, 5)
    grads = ops.basis_gradients(ref)                   # reference gradients
    scale = np.array([2.0 / m.hx, 2.0 / m.hy])
    for _ in range(5):
        u = rng.normal(size=(m.nedges, 2))
        coeffs = u[m.cell_edges]                       # (ncells, 4, 2)
        # physical jacobian J[c, q, i, j] = d u_i / d x_j
        J = np.einsum("qaj,cai->cqij", grads, coeffs) * scale[None, None, None, :]
        gradgrad = np.einsum("q,cqij,cqij->", w, J, J)
        divdiv = np.einsum("q,cq,cq->", w, J[..., 0, 0] + J[..., 1, 1],
                           J[..., 0, 0] + J[..., 1, 1])
        expect = mu * gradgrad + mu / 3.0 * divdiv
        got = u.ravel() @ (A @ u.ravel())
        assert got == pytest.approx(expect, rel=1e-12)


# ----------------------------------------------------------------------
# convection matrices

def test_convection_zero_fluxes():
    m = build_rect_mesh(3, 3)
    C = ops.convection_matrix(m, np.zeros(m.nsubedges), "centered")
    assert abs(C).max() == 0.0


def test_convection_centered_stencil_by_hand():
    m = build_rect_mesh(2, 1)
    fluxes = np.zeros(m.nsubedges)
    e = 0                                              # some sub-edge
    s1, s2 = m.sub_pair[e]
    F = 0.7
    fluxes[e] = F
    C = ops.convection_matrix(m, fluxes, "centered").toarray()
    expect = np.zeros_like(C)
    for i in range(2):
        expect[2 * s1 + i, 2 * s1 + i] = F / 2
        expect[2 * s1 + i, 2 * s2 + i] = F / 2
        expect[2 * s2 + i, 2 * s2 + i] = -F / 2
        expect[2 * s2 + i, 2 * s1 + i] = -F / 2
    np.testing.assert_allclose(C, expect, atol=1e-15)


def test_convection_upwind_offdiagonals_nonpositive(rng):
    m = build_rect_mesh(4, 4)
    fluxes = rng.normal(size=m.nsubedges)
    C = ops.convection_matrix(m, fluxes, "upwind").tocoo()
    off = C.data[C.row != C.col]
    assert np.all(off <= 1e-15)


def test_convection_row_sums_equal_flux_sums(rng):
    # acting on a constant vector returns the per-diamond flux total
    m = build_rect_mesh(3, 4)
    fluxes = rng.normal(size=m.nsubedges)
    total = np.zeros(m.nedges)
    np.add.at(total, m.sub_pair[:, 0], fluxes)
    np.add.at(total, m.sub_pair[:, 1], -fluxes)
    z = np.full(2 * m.nedges, -1.3)
    for mode in ("centered", "upwind"):
        C = ops.convection_matrix(m, fluxes, mode)
        np.testing.assert_allclose((C @ z)[0::2], -1.3 * total, atol=1e-13)


def test_convection_rejects_unknown_mode(rng):
    m = build_rect_mesh(2, 2)
    F = rng.normal(size=m.nsubedges)
    with pytest.raises(ValueError):
        ops.convection_matrix(m, F, "quick")


# ----------------------------------------------------------------------
# pressure operator

def test_pressure_laplacian_uniform_grid_coefficient():
    m = build_rect_mesh(4, 4)                          # unit square, h = 0.25
    L = ops.pressure_laplacian(m, np.ones(m.nedges)).toarray()
    sig = m.interior_edges[0]
    K, Lc = m.edge_cells[sig]
    # |sigma|^2 / |D_sigma| = 2 |sigma| / h: twice the two-point coefficient
    assert L[K, Lc] == pytest.approx(-2.0)
    assert L[K, K] == pytest.approx(-L[K].sum() + L[K, K])


def test_pressure_laplacian_annihilates_constants():
    for m in meshes_for_tests():
        L = ops.pressure_laplacian(m, np.full(m.nedges, 0.7))
        np.testing.assert_allclose(L @ np.full(m.ncells, 2.2), 0.0, atol=1e-13)


def test_pressure_laplacian_product_equivalence(rng):
    for m in meshes_for_tests():
        w = rng.uniform(0.5, 2.0, m.nedges)
        q = rng.uniform(0.0, 3.0, m.nedges)
        A = ops.pressure_laplacian(m, w, q)
        B = oracles.pressure_laplacian_product(m, w, q)
        scale = abs(A).max()
        assert abs(A - B).max() <= 1e-12 * scale
        assert abs(A - A.T).max() <= 1e-13 * scale


def test_pressure_laplacian_positive_semidefinite(rng):
    m = build_rect_mesh(5, 4)
    w = rng.uniform(0.5, 2.0, m.nedges)
    q = rng.uniform(0.1, 3.0, m.nedges)
    L = ops.pressure_laplacian(m, w, q).toarray()
    evals = np.linalg.eigvalsh(L)
    assert evals.min() > -1e-12


def test_pressure_laplacian_weight_validation():
    m = build_rect_mesh(2, 2)
    with pytest.raises(FieldError):
        ops.pressure_laplacian(m, np.zeros(m.nedges))
    with pytest.raises(FieldError):
        ops.pressure_laplacian(m, np.ones(m.nedges), -np.ones(m.nedges))
