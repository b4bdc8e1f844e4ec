import numpy as np
import pytest

from baropc.mesh import MeshError, build_rect_mesh
from baropc import operators as ops

from conftest import meshes_for_tests
import oracles


def test_single_cell_counts():
    m = build_rect_mesh(1, 1)
    assert m.ncells == 1
    assert m.n_interior == 0
    assert len(m.boundary_edges) == 4
    assert m.nsubedges == 4


def test_edge_counting_20x20():
    m = build_rect_mesh(20, 20, (0.0, 1.0, -0.5, 0.5))
    assert m.ncells == 400
    assert m.n_interior == 20 * 19 + 20 * 19 == 760
    assert len(m.boundary_edges) == 80


def test_two_cells_share_one_edge_with_oriented_normal():
    m = build_rect_mesh(2, 1)
    assert m.ncells == 2
    assert m.n_interior == 1
    sig = m.interior_edges[0]
    K, L = m.edge_cells[sig]
    assert m.cell_centroids[K, 0] < m.cell_centroids[L, 0]
    np.testing.assert_allclose(m.edge_normals[sig], [1.0, 0.0])


def test_cell_polygon_closure():
    for m in meshes_for_tests():
        ce = m.cell_edges
        contrib = (m.edge_lengths[ce] * m.cell_edge_signs)[..., None] * m.edge_normals[ce]
        np.testing.assert_allclose(contrib.sum(axis=1), 0.0, atol=1e-13)


def test_diamonds_partition_domain():
    for m in meshes_for_tests():
        x0, x1, y0, y1 = m.domain
        assert m.diamond_volumes.sum() == pytest.approx((x1 - x0) * (y1 - y0), rel=1e-14)
        np.testing.assert_allclose(m.half_diamond_volumes[:, 0],
                                   m.cell_volumes[m.edge_cells[:, 0]] / 4.0)


def test_half_diamond_values_h005():
    m = build_rect_mesh(20, 20, (0.0, 1.0, 0.0, 1.0))
    sig = m.interior_edges[0]
    assert m.half_diamond_volumes[sig, 0] == pytest.approx(6.25e-4, rel=1e-14)
    assert m.diamond_volumes[sig] == pytest.approx(1.25e-3, rel=1e-14)
    internal = ~m.edge_is_boundary
    np.testing.assert_allclose(m.diamond_volumes[internal],
                               m.half_diamond_volumes[internal].sum(axis=1))


def test_diamond_volume_equals_basis_integral():
    # independent quadrature of the basis function over its support
    for m in meshes_for_tests():
        pts, w = oracles.cell_quadrature_points(m, 3)
        ref, _ = ops.gauss_points_2d(3)
        phi = ops.basis_values(ref)                   # (q, 4)
        integral = np.zeros(m.nedges)
        np.add.at(integral, m.cell_edges, np.einsum("q,qa->a", w, phi)[None, :]
                  * np.ones((m.ncells, 1)))
        np.testing.assert_allclose(integral, m.diamond_volumes, rtol=1e-12)


def test_subedge_lengths_uniform_grid():
    m = build_rect_mesh(4, 4, (0.0, 1.0, 0.0, 1.0))
    h = 0.25
    np.testing.assert_allclose(m.sub_lengths, (h / 2.0) * np.sqrt(2.0))


def test_subedge_closure():
    for m in meshes_for_tests():
        acc = np.zeros((m.nedges, 2))
        np.add.at(acc, m.sub_pair[:, 0], m.sub_lengths[:, None] * m.sub_normals)
        np.add.at(acc, m.sub_pair[:, 1], -m.sub_lengths[:, None] * m.sub_normals)
        np.testing.assert_allclose(acc[m.interior_edges], 0.0, atol=1e-13)
        bnd = m.boundary_edges
        outward = m.edge_lengths[bnd, None] * m.edge_normals[bnd]
        np.testing.assert_allclose(acc[bnd] + outward, 0.0, atol=1e-13)


def test_subedge_counts_per_diamond():
    m = build_rect_mesh(5, 3)
    counts = np.zeros(m.nedges, dtype=int)
    np.add.at(counts, m.sub_pair.ravel(), 1)
    assert np.all(counts[m.interior_edges] == 4)
    assert np.all(counts[m.boundary_edges] == 2)
    assert m.nsubedges == 4 * m.ncells


def test_subedges_single_cell_separate_boundary_half_diamonds():
    m = build_rect_mesh(1, 1)
    assert m.nsubedges == 4
    assert np.all(m.edge_is_boundary[m.sub_pair])
    assert np.all(m.sub_pair[:, 0] != m.sub_pair[:, 1])


def test_deterministic_construction():
    a = build_rect_mesh(7, 5, (0.0, 2.0, -1.0, 1.0))
    b = build_rect_mesh(7, 5, (0.0, 2.0, -1.0, 1.0))
    for name in ("cell_centroids", "cell_edges", "cell_edge_signs",
                 "edge_lengths", "edge_midpoints", "edge_normals", "edge_cells",
                 "diamond_volumes", "sub_pair", "sub_lengths",
                 "sub_normals"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_construction_errors():
    with pytest.raises(MeshError):
        build_rect_mesh(0, 3)
    with pytest.raises(MeshError):
        build_rect_mesh(3, 0)
    with pytest.raises(MeshError):
        build_rect_mesh(2, 2, (1.0, 0.0, 0.0, 1.0))
    with pytest.raises(MeshError):
        build_rect_mesh(2, 2, (0.0, 1.0, 0.5, 0.5))
    # a non-finite bound, or a width past the largest float, gives no mesh width
    for domain in ((0.0, np.inf, 0.0, 1.0), (-np.inf, 1.0, 0.0, 1.0), (0.0, 1.0, 0.0, np.nan),
                   (-np.inf, np.inf, 0.0, 1.0), (0.0, 1.0, -1e308, 1e308)):
        with pytest.raises(MeshError, match="unbounded"):
            build_rect_mesh(2, 2, domain)


def test_mesh_arrays_frozen():
    m = build_rect_mesh(2, 2)
    with pytest.raises(ValueError):
        m.edge_lengths[0] = 99.0
