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
        self._build_diamonds()
        self._build_subedges()
        self._freeze()
        self._cache = {}

    # ------------------------------------------------------------------
    def _build_cells(self):
        nx, ny = self.nx, self.ny
        x0, _, y0, _ = self.domain
        i = np.arange(nx)
        j = np.arange(ny)
        cx = x0 + (i + 0.5) * self.hx
        cy = y0 + (j + 0.5) * self.hy
        xx, yy = np.meshgrid(cx, cy)          # row major: index [j, i]
        self.cell_centroids = np.column_stack([xx.ravel(), yy.ravel()])
        self.cell_volumes = np.full(self.ncells, self.hx * self.hy)

    def _build_edges(self):
        nx, ny = self.nx, self.ny
        x0, _, y0, _ = self.domain
        hx, hy = self.hx, self.hy
        nvert = (nx + 1) * ny                 # x-normal edges
        nhorz = nx * (ny + 1)                 # y-normal edges
        ne = nvert + nhorz
        self.nedges = ne
        self.n_vertical = nvert

        length = np.empty(ne)
        mid = np.empty((ne, 2))
        p0 = np.empty((ne, 2))
        p1 = np.empty((ne, 2))
        normal = np.zeros((ne, 2))
        cells = np.full((ne, 2), -1, dtype=np.int64)

        # vertical edges: id = j*(nx+1) + i, at x = x0 + i*hx
        jj, ii = np.divmod(np.arange(nvert), nx + 1)
        xe = x0 + ii * hx
        ye = y0 + (jj + 0.5) * hy
        length[:nvert] = hy
        mid[:nvert] = np.column_stack([xe, ye])
        p0[:nvert] = np.column_stack([xe, ye - 0.5 * hy])
        p1[:nvert] = np.column_stack([xe, ye + 0.5 * hy])
        left = jj * nx + (ii - 1)
        right = jj * nx + ii
        interior = (ii > 0) & (ii < nx)
        cells[:nvert, 0] = np.where(ii > 0, left, right)
        cells[:nvert, 1] = np.where(interior, right, -1)
        # K -> L points +x for interior; outward at the boundary
        normal[:nvert, 0] = np.where(ii == 0, -1.0, 1.0)

        # horizontal edges: id = nvert + j*nx + i, at y = y0 + j*hy
        jj, ii = np.divmod(np.arange(nhorz), nx)
        xe = x0 + (ii + 0.5) * hx
        ye = y0 + jj * hy
        sl = slice(nvert, ne)
        length[sl] = hx
        mid[sl] = np.column_stack([xe, ye])
        p0[sl] = np.column_stack([xe - 0.5 * hx, ye])
        p1[sl] = np.column_stack([xe + 0.5 * hx, ye])
        below = (jj - 1) * nx + ii
        above = jj * nx + ii
        interior = (jj > 0) & (jj < ny)
        cells[sl, 0] = np.where(jj > 0, below, above)
        cells[sl, 1] = np.where(interior, above, -1)
        normal[sl, 1] = np.where(jj == 0, -1.0, 1.0)

        self.edge_lengths = length
        self.edge_midpoints = mid
        self.edge_p0 = p0
        self.edge_p1 = p1
        self.edge_normals = normal
        self.edge_cells = cells
        self.edge_is_boundary = cells[:, 1] < 0
        self.interior_edges = np.nonzero(~self.edge_is_boundary)[0]
        self.boundary_edges = np.nonzero(self.edge_is_boundary)[0]
        self.n_interior = self.interior_edges.size

        # per-cell edge list [left, right, bottom, top] and the sign such
        # that sign * edge_normal is the outward normal n_{K,sigma}
        nxp = nx + 1
        j, i = np.divmod(np.arange(self.ncells), nx)
        ce = np.empty((self.ncells, 4), dtype=np.int64)
        ce[:, LEFT] = j * nxp + i
        ce[:, RIGHT] = j * nxp + i + 1
        ce[:, BOTTOM] = nvert + j * nx + i
        ce[:, TOP] = nvert + (j + 1) * nx + i
        self.cell_edges = ce
        owner = cells[ce, 0] == np.arange(self.ncells)[:, None]
        self.cell_edge_signs = np.where(owner, 1.0, -1.0)

    def _build_diamonds(self):
        # cones with basis sigma and apex at the centroid: |K|/4 exactly
        # for axis-aligned rectangles
        quarter = self.cell_volumes[0] / 4.0
        half = np.zeros((self.nedges, 2))
        half[:, 0] = quarter
        half[~self.edge_is_boundary, 1] = quarter
        self.half_diamond_volumes = half
        self.diamond_volumes = half.sum(axis=1)

    def _build_subedges(self):
        # the grid is uniform, so each of a cell's four sub-edges has the
        # same length, normal and offset from the centroid in every cell;
        # vertex slots BL, BR, TL, TR
        hx, hy = self.hx, self.hy
        sx = np.array([-1.0, 1.0, -1.0, 1.0])
        sy = np.array([-1.0, -1.0, 1.0, 1.0])
        off = 0.5 * np.column_stack([sx * hx, sy * hy])     # vertex - centroid
        diag = np.hypot(hx, hy)
        # off turned a quarter, signed to point out of the cone of the
        # vertical edge of the pair
        normal = np.column_stack([-sx * hy, sy * hx]) / diag

        self.sub_cell = np.repeat(np.arange(self.ncells), 4)
        self.sub_pair = self.cell_edges[:, np.array(_VERTEX_EDGES)].reshape(-1, 2)
        self.sub_lengths = np.full(self.sub_cell.size, 0.5 * diag)
        self.sub_midpoints = (self.cell_centroids[:, None] + 0.5 * off).reshape(-1, 2)
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
