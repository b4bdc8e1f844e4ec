"""Structured rectangular meshes with edge and diamond-cell connectivity.

Cells are axis-aligned rectangles on a uniform grid.  Velocity degrees of
freedom live on edges, so besides the usual cell/edge incidence the mesh
precomputes the dual "diamond" control volumes around the edges: the two
cones with basis sigma and apex at the adjacent cell centroids, and the
vertex-to-centroid sub-edges that bound them.  Everything is stored as flat
numpy arrays and frozen after construction.
"""

import numpy as np

# local edge slots within a cell
LEFT, RIGHT, BOTTOM, TOP = 0, 1, 2, 3

# vertex slot -> the two cell edges meeting at that vertex
_VERTEX_EDGES = ((LEFT, BOTTOM), (RIGHT, BOTTOM), (LEFT, TOP), (RIGHT, TOP))


class MeshError(ValueError):
    pass


class RectMesh:
    """Uniform nx-by-ny rectangular mesh of domain (x0, x1, y0, y1).

    Cell k = j*nx + i (row major).  Edges are numbered with all vertical
    (x-normal) edges first, column-fastest, then all horizontal (y-normal)
    edges.  For an internal edge the stored unit normal points from the
    first adjacent cell K to the second one L; for a boundary edge it points
    outward and the second adjacency is -1.  Every sub-edge joins the
    diamond of a vertical edge, sub_pair[:, 0], to that of a horizontal
    edge, sub_pair[:, 1].
    """

    def __init__(self, nx, ny, domain=(0.0, 1.0, 0.0, 1.0)):
        nx, ny = int(nx), int(ny)
        if nx < 1 or ny < 1:
            raise MeshError(f"cell counts must be >= 1, got {nx}x{ny}")
        x0, x1, y0, y1 = map(float, domain)
        if not (0.0 < x1 - x0 < np.inf and 0.0 < y1 - y0 < np.inf):
            raise MeshError(f"degenerate, inverted or unbounded domain {domain}")

        self.nx, self.ny = nx, ny
        self.domain = (x0, x1, y0, y1)
        self.hx = (x1 - x0) / nx
        self.hy = (y1 - y0) / ny
        self.ncells = nx * ny

        self._build_cells()
        self._build_edges()
        self._build_subedges()
        self._freeze()
        self._cache = {}

    # ------------------------------------------------------------------
    def _build_cells(self):
        x0, _, y0, _ = self.domain
        self.cell_centroids = np.empty((self.ncells, 2))
        grid = self.cell_centroids.reshape(self.ny, self.nx, 2)     # row major: index [j, i]
        grid[..., 0] = x0 + (np.arange(self.nx) + 0.5) * self.hx
        grid[..., 1] = y0 + (np.arange(self.ny)[:, None] + 0.5) * self.hy
        self.cell_volumes = np.full(self.ncells, self.hx * self.hy)

    def _build_edges(self):
        # each edge family is a grid, written by broadcasting its grid lines
        nx, ny, hx, hy = self.nx, self.ny, self.hx, self.hy
        x0, _, y0, _ = self.domain
        nvert = (nx + 1) * ny                 # x-normal edges
        ne = nvert + nx * (ny + 1)            # then the y-normal edges
        self.nedges, self.n_vertical = ne, nvert
        length, mid, p0, p1 = np.empty(ne), *(np.empty((ne, 2)) for _ in range(3))
        normal = np.zeros((ne, 2))
        cells = np.empty((ne, 2), dtype=np.int64)
        i, j = np.arange(nx + 1), np.arange(ny + 1)[:, None]
        V = lambda a: a[:nvert].reshape(ny, nx + 1, *a.shape[1:])    # noqa: E731
        H = lambda a: a[nvert:].reshape(ny + 1, nx, *a.shape[1:])    # noqa: E731

        # vertical edges: id = j*(nx+1) + i, at x = x0 + i*hx
        xe, ye = x0 + i * hx, y0 + (j[:ny] + 0.5) * hy
        length[:nvert] = hy
        for a, y in ((mid, ye), (p0, ye - 0.5 * hy), (p1, ye + 0.5 * hy)):
            V(a)[..., 0], V(a)[..., 1] = xe, y
        V(cells)[..., 0] = j[:ny] * nx + np.maximum(i - 1, 0)     # left, right at i = 0
        V(cells)[..., 1] = np.where((i > 0) & (i < nx), j[:ny] * nx + i, -1)
        # K -> L points +x for interior; outward at the boundary
        V(normal)[..., 0] = np.where(i == 0, -1.0, 1.0)

        # horizontal edges: id = nvert + j*nx + i, at y = y0 + j*hy
        xe, ye = x0 + (i[:nx] + 0.5) * hx, y0 + j * hy
        length[nvert:] = hx
        for a, x in ((mid, xe), (p0, xe - 0.5 * hx), (p1, xe + 0.5 * hx)):
            H(a)[..., 0], H(a)[..., 1] = x, ye
        H(cells)[..., 0] = np.maximum(j - 1, 0) * nx + i[:nx]     # below, above at j = 0
        H(cells)[..., 1] = np.where((j > 0) & (j < ny), j * nx + i[:nx], -1)
        H(normal)[..., 1] = np.where(j == 0, -1.0, 1.0)

        self.edge_lengths, self.edge_midpoints, self.edge_p0, self.edge_p1 = length, mid, p0, p1
        self.edge_normals, self.edge_cells = normal, cells
        self.edge_is_boundary = cells[:, 1] < 0
        self.interior_edges = np.nonzero(~self.edge_is_boundary)[0]
        self.boundary_edges = np.nonzero(self.edge_is_boundary)[0]
        self.n_interior = self.interior_edges.size

        # per-cell edge list [left, right, bottom, top] and the sign such
        # that sign * edge_normal is the outward normal n_{K,sigma}: the
        # cell is the second of its left and bottom edges, but on the boundary
        ce = np.empty((ny, nx, 4), dtype=np.int64)
        ce[..., LEFT] = j[:ny] * (nx + 1) + i[:nx]
        ce[..., RIGHT] = ce[..., LEFT] + 1
        ce[..., BOTTOM] = nvert + j[:ny] * nx + i[:nx]
        ce[..., TOP] = ce[..., BOTTOM] + nx
        signs = np.ones((ny, nx, 4))
        signs[..., LEFT] = np.where(i[:nx] == 0, 1.0, -1.0)
        signs[..., BOTTOM] = np.where(j[:ny] == 0, 1.0, -1.0)
        self.cell_edges = ce.reshape(-1, 4)
        self.cell_edge_signs = signs.reshape(-1, 4)

        # diamonds: cones with basis sigma and apex at the centroid, |K|/4
        # exactly for axis-aligned rectangles
        quarter = self.cell_volumes[0] / 4.0
        half = np.empty((self.nedges, 2))
        half[:, 0] = quarter
        half[:, 1] = np.where(self.edge_is_boundary, 0.0, quarter)
        self.half_diamond_volumes = half
        self.diamond_volumes = half[:, 0] + half[:, 1]

    def _build_subedges(self):
        # the grid is uniform, so each of a cell's four sub-edges has the
        # same length and normal in every cell; vertex slots BL, BR, TL, TR.
        # The normal is the offset vertex - centroid, (+-hx, +-hy) / 2, turned
        # a quarter, signed to point out of the cone of the pair's vertical edge
        hx, hy = self.hx, self.hy
        diag = np.hypot(hx, hy)
        normal = np.array([[hy, -hx], [-hy, -hx], [hy, hx], [-hy, hx]]) / diag

        self.sub_cell = np.repeat(np.arange(self.ncells), 4)
        self.sub_pair = self.cell_edges[:, np.array(_VERTEX_EDGES)].reshape(-1, 2)
        self.sub_lengths = np.full(self.sub_cell.size, 0.5 * diag)
        self.sub_normals = np.tile(normal, (self.ncells, 1))
        self.nsubedges = self.sub_cell.size

    def _freeze(self):
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    # ------------------------------------------------------------------
    def cached(self, key, build):
        """Derived data of this mesh (patterns, gather indices, quadrature
        data), made by build(mesh) on first request and kept with the mesh."""
        if key not in self._cache:
            self._cache[key] = build(self)
        return self._cache[key]

    def __repr__(self):
        return f"RectMesh({self.nx}x{self.ny}, domain={self.domain})"


def build_rect_mesh(nx, ny, domain=(0.0, 1.0, 0.0, 1.0)):
    """Build a structured rectangular mesh (see RectMesh)."""
    return RectMesh(nx, ny, domain)
