"""Discrete fields and spatial operators on rectangular meshes.

Velocity fields are (nedges, 2) arrays of edge-mean degrees of freedom for
the rotated-bilinear nonconforming element, cell fields are (ncells,)
arrays (piecewise constants).  The operators below follow one fixed sign
convention:

    divergence   (D u)_K     = sum_{sigma in E(K)} |sigma| u_sigma . n_{K,sigma}
    gradient     (G q)_sigma = |sigma| (q_L - q_K) n_KL        (internal edges)

so that G = -D^T on interior unknowns and <G q, v> + <q, D v> = 0 for any
velocity v vanishing on the boundary.

What depends only on the mesh (sparsity patterns, gather indices, weights)
is built on first use and kept in `RectMesh.cached`; calls compute values.
"""

import numpy as np
import scipy.sparse as sp


class FieldError(ValueError):
    pass


# ----------------------------------------------------------------------
# rotated bilinear basis on the reference square [-1,1]^2
#
# span{1, x, y, x^2 - y^2} with edge-mean nodal functionals; basis ordered
# [left, right, bottom, top] like the per-cell edge lists.

def basis_values(ref_points):
    """Values of the 4 basis functions at reference points (..., 2) -> (..., 4)."""
    ref_points = np.asarray(ref_points, dtype=float)
    x = ref_points[..., 0]
    y = ref_points[..., 1]
    q = 0.375 * (x * x - y * y)
    return np.stack([0.25 - 0.5 * x + q,
                     0.25 + 0.5 * x + q,
                     0.25 - 0.5 * y - q,
                     0.25 + 0.5 * y - q], axis=-1)


def basis_gradients(ref_points):
    """Reference gradients at points (..., 2) -> (..., 4, 2)."""
    ref_points = np.asarray(ref_points, dtype=float)
    x = ref_points[..., 0]
    y = ref_points[..., 1]
    gx = 0.75 * x
    gy = 0.75 * y
    one = np.ones_like(x)
    grads = np.stack([
        np.stack([-0.5 * one + gx, -gy], axis=-1),
        np.stack([0.5 * one + gx, -gy], axis=-1),
        np.stack([-gx, -0.5 * one + gy], axis=-1),
        np.stack([-gx, 0.5 * one + gy], axis=-1),
    ], axis=-2)
    return grads


# ----------------------------------------------------------------------
# Gauss-Legendre tensor quadrature on the reference square

_GAUSS_1D = {
    2: (np.array([-1.0, 1.0]) / np.sqrt(3.0), np.array([1.0, 1.0])),
    3: (np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)]),
        np.array([5.0, 8.0, 5.0]) / 9.0),
}


def gauss_points_1d(n):
    if n in _GAUSS_1D:
        return _GAUSS_1D[n]
    return np.polynomial.legendre.leggauss(n)


def gauss_points_2d(n):
    """Tensor rule on [-1,1]^2: (points (n*n, 2), weights (n*n,))."""
    x, w = gauss_points_1d(n)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    ww = np.outer(w, w)
    return np.column_stack([xx.ravel(), yy.ravel()]), ww.ravel()


def cell_quadrature_points(mesh, n):
    """Physical quadrature points per cell: (ncells, n*n, 2) and weights.

    Weights already include the Jacobian hx*hy/4, i.e. they sum to |K|.
    """
    ref, w = gauss_points_2d(n)
    pts = mesh.cell_centroids[:, None, :] + 0.5 * ref[None, :, :] * np.array([mesh.hx, mesh.hy])
    return pts, w * (mesh.hx * mesh.hy / 4.0)


def edge_mean(mesh, func, n=3, edges=None):
    """Edge-mean functionals of a pointwise field, one row per edge.

    `func(points)` must accept an (m, 2) array of points and return
    (m,) or (m, d) values.  Used to set velocity data and initial states.
    For a given mesh, n and index array `edges` (all edges when None) the
    points are the same read-only array; each edge of `edges` gets a row.
    """
    def build(mesh):
        x, w = gauss_points_1d(n)
        pts = (mesh.edge_p0[:, None, :] * (1.0 - x[None, :, None]) / 2.0
               + mesh.edge_p1[:, None, :] * (1.0 + x[None, :, None]) / 2.0)
        return _frozen(pts.reshape(-1, 2)), w / 2.0     # means, not integrals
    every, w = mesh.cached(("edge_points", n), build)
    flat = every if edges is None else mesh.cached(
        ("edge_points", n, edges.dtype.str, edges.tobytes()),
        lambda mesh: _frozen(every.reshape(mesh.nedges, w.size, 2)[edges].reshape(-1, 2)))
    vals = np.asarray(func(flat), dtype=float)
    vals = vals.reshape(len(flat) // w.size, w.size, -1)
    out = np.einsum("q,eqd->ed", w, vals)
    return out[:, 0] if out.shape[1] == 1 else out


# ----------------------------------------------------------------------
# field averaging and first-order operators

def _edge_cells(mesh):
    """Both cells of every edge; a boundary edge repeats its inner cell."""
    def build(mesh):
        K, L = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
        return K, _frozen(np.where(mesh.edge_is_boundary, K, L).astype(np.int32))
    return mesh.cached("edge_cells", build)


def edge_density(mesh, rho):
    """Half-diamond weighted average of a positive cell density on edges."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise FieldError("cell density must be strictly positive")
    K, L = _edge_cells(mesh)
    hd = mesh.half_diamond_volumes                 # the outer half is 0 on the boundary
    return (hd[:, 0] * rho[K] + hd[:, 1] * rho[L]) / mesh.diamond_volumes


def _incidence(mesh):
    """Signed cell-edge incidence |sigma| n_{K,sigma} . e_axis as a CSR
    (ncells x nedges), and the flat dof 2*edge + axis of each edge's normal
    component: the normals are axis-aligned, x for vertical edges."""
    def build(mesh):
        ce, axis = mesh.cell_edges, np.array([0, 0, 1, 1])
        coeff = mesh.edge_lengths[ce] * mesh.cell_edge_signs * mesh.edge_normals[ce, axis]
        D = sp.csr_matrix((coeff.ravel(), ce.ravel(), np.arange(0, ce.size + 1, 4)),
                          shape=(mesh.ncells, mesh.nedges))
        edges = np.arange(mesh.nedges)
        return D, _frozen((2 * edges + (edges >= mesh.n_vertical)).astype(np.int32))
    return mesh.cached("incidence", build)


def divergence(mesh, u):
    """Cell divergence (D u)_K, boundary edges included with their values."""
    D, normal = _incidence(mesh)
    return D @ np.asarray(u, dtype=float).ravel()[normal]


def gradient(mesh, q):
    """(G q)_sigma = |sigma| (q_L - q_K) n_KL on internal edges, 0 on boundary."""
    K, L = _edge_cells(mesh)                       # q_L - q_K = +0 on the boundary
    normal = mesh.cached("interior_normals", lambda mesh: _frozen(
        np.where(mesh.edge_is_boundary[:, None], 0.0, mesh.edge_normals)))
    return (mesh.edge_lengths * (q[L] - q[K]))[:, None] * normal


# ----------------------------------------------------------------------
# fixed sparsity patterns

def _frozen(a):
    a.flags.writeable = False
    return a


class Pattern:
    """Fixed CSR sparsity whose values are one fixed linear map of per-call inputs.

    `assemble` lists COO entries, each a multiple of one input, and `fill(x)`
    sums each stored entry's terms in the order of their inputs: one cached
    CSC product, whose columns are the inputs, or a plain gather where every
    stored entry is one input.  Listed by input, the entries are thus summed
    in entry order, as scipy's COO -> CSR conversion does, so a refilled
    matrix equals a fresh COO assembly entry for entry.  All matrices of a
    pattern share its read-only index arrays.
    """

    def __init__(self, indptr, indices, shape, source=None):
        self.indptr = _frozen(np.asarray(indptr, dtype=np.int32))
        self.indices = _frozen(np.asarray(indices, dtype=np.int32))
        self.shape, self.source, self.nnz = shape, source, self.indices.size

    @classmethod
    def assemble(cls, rows, cols, shape, src=None, weight=None, size=None, within=None):
        """The pattern of a COO assembly of the given entries.

        Entry i holds weight[i] * x[src[i]] of inputs x of length `size` (by
        default x[i] and len(rows)), no two of them one input at one place.
        With `within`, a CSR pattern with sorted columns holding every entry,
        the stored pattern is that one.
        """
        if within is None:                    # scipy's COO -> CSR structure of the entries
            within = sp.csr_matrix((np.ones(len(rows), dtype=bool), (rows, cols)), shape=shape)
        within = cls(within.indptr, within.indices, shape)
        slot, nnz = within.find(rows, cols), within.nnz
        src = np.arange(len(slot)) if src is None else src
        if weight is None and len(slot) == nnz and np.all(np.bincount(slot, minlength=nnz)):
            source = np.empty(nnz, dtype=np.int32)            # one input per stored entry
            source[slot] = src
        else:
            weight = np.ones(len(slot)) if weight is None else np.asarray(weight, dtype=float)
            source = sp.csc_matrix((weight, (slot, src)),
                                   shape=(nnz, len(slot) if size is None else size))
        return cls(within.indptr, within.indices, shape, source)

    def fill(self, x):
        data = self.source @ x if sp.issparse(self.source) else x[self.source]
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)

    def find(self, rows, cols):
        """Data positions of the stored entries (rows[i], cols[i])."""
        marks = np.asarray(marker(self)[rows, cols]).ravel() if len(rows) else np.ones(0, int)
        if np.any(marks == 0):
            raise ValueError("entries outside the sparsity pattern")
        return _frozen(marks - 1)


def marker(A):
    """A matrix on A's pattern holding 1, 2, ..., nnz: slices and samples of
    it read back where the selected entries sit in A, 0 where none does."""
    return sp.csr_matrix((np.arange(1, A.nnz + 1, dtype=np.int32), A.indices, A.indptr),
                         shape=A.shape)


# ----------------------------------------------------------------------
# viscous stiffness

def _viscous_local(mesh, mu):
    """Cell matrix of the viscous stiffness, dof order (edge slot a,
    component i) -> 2a + i, and which of its entries are couplings."""
    ref, w = gauss_points_2d(2)
    grads = basis_gradients(ref)                   # (q, 4, 2)
    # reference moments I[a, b, i, j] = int dphi_a/dx_i dphi_b/dx_j
    I = np.einsum("q,qai,qbj->abij", w, grads, grads)
    hx, hy = mesh.hx, mesh.hy
    scale = np.array([[hy / hx, 1.0], [1.0, hx / hy]])
    loc = np.zeros((8, 8))
    coupled = np.zeros((8, 8), dtype=bool)
    for a in range(4):
        for b in range(4):
            grad_dot = scale[0, 0] * I[a, b, 0, 0] + scale[1, 1] * I[a, b, 1, 1]
            for i in range(2):
                for j in range(2):
                    val = (mu / 3.0) * scale[i, j] * I[a, b, i, j]
                    if i == j:
                        val += mu * grad_dot
                    loc[2 * a + i, 2 * b + j] = val
                    coupled[2 * a + i, 2 * b + j] = i == j or I[a, b, i, j] != 0.0
    return loc, coupled


def viscous_stiffness(mesh, mu):
    """Broken stiffness mu*grad:grad + (mu/3)*div*div over all edge dofs.

    Assembled cellwise with 2x2 Gauss (exact for the rotated bilinear
    gradients); returns CSR of size (2*nedges, 2*nedges), flat dof 2*edge
    + component.  Symmetric positive semi-definite.  Couplings that vanish
    for every mu are not stored: the pattern depends on the mesh only.
    """
    if mu < 0.0:
        raise FieldError("viscosity must be nonnegative")
    loc, coupled = _viscous_local(mesh, mu)
    gdof = np.repeat(2 * mesh.cell_edges.astype(np.int32), 2, axis=1)
    gdof[:, 1::2] += 1                             # (ncells, 8)
    r, c = np.divmod(np.flatnonzero(coupled), 8)   # local slots, row major
    rows = gdof[:, r].ravel()
    cols = gdof[:, c].ravel()
    vals = np.tile(loc[r, c], mesh.ncells)
    n = 2 * mesh.nedges
    A = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    A.sum_duplicates()
    return A


def _dirichlet_sines(n):
    """Sine bases of a uniform 1-D grid of n cells with Dirichlet ends.

    Returns the orthonormal DST-I S1 on the n - 1 inner nodes, the
    orthonormal DST-II S2 on the n cells, cos(pi k / n) and
    2 cos(pi k / 2n) for k = 1 .. n-1.  S1 diagonalizes a Dirichlet
    tridiagonal d I + o (shift up + shift down) on the nodes, with
    eigenvalues d + 2 o cos(pi k / n); the sum of the two cells next to
    each node maps DST-II mode k to 2 cos(pi k / 2n) times DST-I mode k,
    and mode n to zero.
    """
    k = np.arange(1, n + 1)
    S1 = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(k[:-1], k[:-1]) / n)
    S2 = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(k, k - 0.5) / n)
    S2[-1] /= np.sqrt(2.0)
    theta = np.pi * k[:-1] / n
    return _frozen(S1), _frozen(S2), _frozen(np.cos(theta)), _frozen(2.0 * np.cos(theta / 2.0))


def momentum_preconditioner(mesh, mu, mass):
    """Fast solver r -> z for the interior momentum block, viscous part.

    z is the exact inverse of mass * I + K_c applied to r, on the
    interior dofs in `scheme` order (interior edges, vertical ones first,
    two components each).  K_c is the interior block of
    `viscous_stiffness(mesh, mu)` without the div-div coupling of u1 and
    u2; since |2 dx u1 dy u2| <= |grad u|^2 pointwise, K_c and the full
    block are spectrally equivalent with constants 3/4 and 5/4.  Per
    component, K_c couples each vertical edge with its x-neighbours and
    with the four horizontal edges of its two cells, and each horizontal
    edge with its y-neighbours.  Taken with DST-I along the node direction
    and DST-II along the cell direction of each edge family, vertical mode
    (k, l) then couples only with horizontal mode (k, l): the inverse is a
    2x2 solve per mode, 1x1 where k = nx or l = ny has no partner.
    """
    nx, ny = mesh.nx, mesh.ny

    def build(mesh):
        loc, _ = _viscous_local(mesh, 1.0)
        L, R, B, T = (2 * np.arange(4))[:, None] + np.arange(2)   # dofs of each slot
        stencil = np.stack([loc[L, L] + loc[R, R],   # vertical diagonal
                            loc[L, R],               # x-neighbour
                            loc[B, B] + loc[T, T],   # horizontal diagonal
                            loc[B, T],               # y-neighbour
                            loc[L, B]])              # vertical-horizontal, same for L|R, B|T
        return _dirichlet_sines(nx), _dirichlet_sines(ny), _frozen(stencil)
    (S1x, S2x, cos_x, fx), (S1y, S2y, cos_y, fy), stencil = mesh.cached("momentum_dst", build)
    dv, ov, dh, oh, cvh = mu * stencil[:, :, None, None]           # (2, 1, 1) each
    # spectral arrays are (component, mode l along y, mode k along x)
    lam_v = np.broadcast_to(mass + dv + 2.0 * ov * cos_x, (2, ny, nx - 1))
    lam_h = np.broadcast_to(mass + dh + 2.0 * oh * cos_y[:, None], (2, ny - 1, nx))
    a, d = lam_v[:, :ny - 1], lam_h[:, :, :nx - 1]
    beta = cvh * fy[:, None] * fx
    det = a * d - beta * beta
    inv_v, inv_h = 1.0 / lam_v, 1.0 / lam_h
    inv_v[:, :ny - 1] = d / det
    inv_h[:, :, :nx - 1] = a / det
    inv_vh = -beta / det
    nv = ny * (nx - 1)

    def apply(r):
        r = r.reshape(-1, 2)
        V = S2y @ r[:nv].reshape(ny, nx - 1, 2).transpose(2, 0, 1) @ S1x.T
        H = S1y @ r[nv:].reshape(ny - 1, nx, 2).transpose(2, 0, 1) @ S2x.T
        Zv = inv_v * V
        Zv[:, :ny - 1, :nx - 1] += inv_vh * H[:, :, :nx - 1]
        Zh = inv_h * H
        Zh[:, :, :nx - 1] += inv_vh * V[:, :ny - 1, :nx - 1]
        z = np.empty_like(r)
        z[:nv] = (S2y.T @ Zv @ S1x).transpose(1, 2, 0).reshape(-1, 2)
        z[nv:] = (S1y.T @ Zh @ S2x).transpose(1, 2, 0).reshape(-1, 2)
        return z.ravel()
    return apply


# ----------------------------------------------------------------------
# diamond-cell convection

def subedge_velocity_coeffs(mesh, u):
    """|eps| * (u(m_eps) . n_eps) per sub-edge, oriented out of sub_pair[:, 0].

    u is interpolated with the finite element expansion at the sub-edge
    midpoints, which for this element is the average of the two edge
    values meeting at the sub-edge's vertex: one cached product with the
    flat dofs 2*edge + component.
    """
    def build(mesh):
        weight = 0.5 * mesh.sub_lengths[:, None] * mesh.sub_normals       # (nsub, 2)
        cols = 2 * mesh.sub_pair[:, :, None] + np.arange(2)              # (nsub, 2, 2)
        return sp.csr_matrix((np.repeat(weight, 2, axis=0).ravel(), cols.ravel(),
                              np.arange(0, cols.size + 1, 4)),
                             shape=(mesh.nsubedges, 2 * mesh.nedges))
    return mesh.cached("subedge_velocity", build) @ np.asarray(u, dtype=float).ravel()


def convection_entries(mesh, number=None, subedges=None):
    """Rows, columns, inputs and signs of the convection matrix's entries from
    the given sub-edges (all by default), as arrays of shape (2, n, 2, 2):
    input X or Y (`convection_stencil`), sub-edge, term, velocity component.
    X_s adds at (s1, s1) and its negative at (s2, s1), Y_s at (s1, s2) and its
    negative at (s2, s2); rows and columns are flat dofs 2 * number[edge] +
    component (number[e] = e by default).  Inputs and signs are read-only."""
    s = np.arange(mesh.nsubedges, dtype=np.int32)
    s = s if subedges is None else s[subedges]
    pair = mesh.sub_pair[s] if number is None else number[mesh.sub_pair[s]]
    dof = 2 * pair.astype(np.int32)[:, :, None] + np.arange(2, dtype=np.int32)
    shape = (2,) + dof.shape
    return (np.stack([dof, dof]), np.stack([dof[:, [0, 0]], dof[:, [1, 1]]]),
            np.broadcast_to(np.stack([s, s + mesh.nsubedges])[:, :, None, None], shape),
            np.broadcast_to(np.array([1, -1], dtype=np.int8)[:, None], shape))


def convection_stencil(fluxes, mode):
    """Inputs [X, Y] of the diamond stencil from per-sub-edge fluxes: X = Y
    = F/2 centered; X = max(F, 0), Y = -max(-F, 0) upwind."""
    if mode == "centered":
        half = 0.5 * fluxes
        return half, half
    if mode == "upwind":
        return np.maximum(fluxes, 0.0), -np.maximum(-fluxes, 0.0)
    raise ValueError(f"unknown convection mode '{mode}'")


def convection_matrix(mesh, fluxes, mode="centered"):
    """Momentum convection matrix from per-sub-edge mass fluxes.

    `fluxes` is (nsub,), oriented out of sub_pair[:, 0].  Both velocity
    components get the same scalar stencil; the returned CSR acts on flat
    dofs 2*edge + component over all edges.
    """
    def build(mesh):
        rows, cols, src, sign = (a.ravel() for a in convection_entries(mesh))
        n = 2 * mesh.nedges
        return Pattern.assemble(rows, cols, (n, n), src, sign, 2 * mesh.nsubedges)
    stencil = convection_stencil(np.asarray(fluxes, dtype=float), mode)
    return mesh.cached("convection_pattern", build).fill(np.concatenate(stencil))


# ----------------------------------------------------------------------
# pressure operator

def pressure_pattern(mesh):
    """Two-point stencil over interior edges, with every diagonal entry: row
    j*nx + i holds the cells below, left, itself, right and above, where
    they exist.

    Its inputs are [c, c, shift]: each interior edge's coefficient c as seen
    from K, adding at (K, K) and its negative at (K, L), then as seen from L,
    adding at (L, L) and its negative at (L, K), and a diagonal shift."""
    def build(mesh):
        nx, nc = mesh.nx, mesh.ncells
        j, i = np.divmod(np.arange(nc, dtype=np.int32), nx)
        below, left, right, above = j > 0, i > 0, i < nx - 1, j < mesh.ny - 1
        indptr = np.concatenate([[0], np.cumsum(1 + below + left + right + above)])
        diag = indptr[:-1] + below + left
        indices = np.empty(indptr[-1], dtype=np.int32)
        for has, pos, offset in ((below, indptr[:-1], -nx), (left, diag - 1, -1),
                                 (np.ones(nc, dtype=bool), diag, 0), (right, diag + 1, 1),
                                 (above, indptr[1:] - 1, nx)):
            indices[pos[has]] = np.flatnonzero(has) + offset
        K, L = (mesh.edge_cells[mesh.interior_edges, side] for side in (0, 1))
        vertical = mesh.interior_edges < mesh.n_vertical        # L = K + 1, else L = K + nx
        K_to_L = np.where(vertical, diag[K] + 1, indptr[K + 1] - 1)
        L_to_K = np.where(vertical, diag[L] - 1, indptr[L])
        slots = [np.stack([diag[K], K_to_L], -1), np.stack([diag[L], L_to_K], -1), diag]
        m = K.size
        source = sp.csc_matrix(
            (np.concatenate([np.tile([1.0, -1.0], 2 * m), np.ones(nc)]),
             np.concatenate([a.ravel() for a in slots]),
             np.concatenate([np.arange(0, 4 * m, 2), 4 * m + np.arange(nc + 1)])),
            shape=(indices.size, 2 * m + nc))
        return Pattern(indptr, indices, (nc, nc), source)
    return mesh.cached("pressure_pattern", build)


def pressure_laplacian(mesh, w, q_up=None, shift=None):
    """Finite-volume pressure operator with edge weights q_up / w.

    Entrywise this is the stencil
        (L p)_K = sum_{sigma=K|L} (q_up_sigma / w_sigma)
                                  (|sigma|^2 / |D_sigma|) (p_K - p_L)
    and algebraically it equals the composition of the cell divergence,
    the diagonal upwind-density weight, the inverse lumped mass M_w, and
    the negative transposed divergence.  Symmetric PSD; rows sum to zero.
    A per-cell `shift` is added to the diagonal after the stencil's sum.
    """
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0.0):
        raise FieldError("pressure operator weight must be strictly positive")
    internal = mesh.interior_edges
    if q_up is None:
        q = np.ones(internal.size)
    else:
        q_up = np.asarray(q_up, dtype=float)
        if np.any(q_up < 0.0):
            raise FieldError("upwind weight must be nonnegative")
        q = q_up[internal]
    sq_length, volume = mesh.cached("interior_diamonds", lambda mesh: (
        _frozen(mesh.edge_lengths[internal] ** 2), _frozen(mesh.diamond_volumes[internal])))
    c = (q / w[internal]) * sq_length / volume
    shift = np.zeros(mesh.ncells) if shift is None else shift
    return pressure_pattern(mesh).fill(np.concatenate([c, c, shift]))


def _neumann_dct(n):
    """Orthonormal DCT-II matrix C and the eigenvalues lam of the unit
    Neumann second difference on n points: that operator is C^T diag(lam) C."""
    k = np.arange(n)
    C = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(k, 2 * k + 1) / (2 * n))
    C[0] /= np.sqrt(2.0)
    return _frozen(C), _frozen(4.0 * np.sin(np.pi * k / (2 * n)) ** 2)


def pressure_preconditioner(mesh, A, shift=None):
    """Fast-Poisson preconditioner r -> z for a pressure operator A.

    A is a `pressure_laplacian` matrix, plus `shift` on its diagonal when
    given.  z is the exact inverse of cx L_x + cy L_y + s I applied to r,
    where cx, cy are the mean x- and y-edge couplings of A, s = mean(shift)
    and L_x, L_y the unit Neumann second differences along each axis.  The
    orthonormal DCT-II diagonalizes that operator on the uniform grid
    (cell = j*nx + i, so r reshapes to (ny, nx)).  Without a shift, A is
    the singular Neumann operator and the constant mode is left out, so z
    stays orthogonal to the constants.  The iteration count of CG with
    this preconditioner depends on the contrast of the couplings, not on
    the mesh size.
    """
    def build(mesh):
        internal = mesh.interior_edges
        K, L = mesh.edge_cells[internal, 0], mesh.edge_cells[internal, 1]
        couples = pressure_pattern(mesh).find(K, L)
        vertical = internal < mesh.n_vertical
        return (_neumann_dct(mesh.nx), _neumann_dct(mesh.ny),
                _frozen(couples[vertical]), _frozen(couples[~vertical]))
    (Cx, lx), (Cy, ly), x_pos, y_pos = mesh.cached("pressure_dct", build)
    cx = -A.data[x_pos].mean() if x_pos.size else 0.0
    cy = -A.data[y_pos].mean() if y_pos.size else 0.0
    lam = cx * lx[None, :] + cy * ly[:, None]
    if shift is None:
        lam[0, 0] = 1.0
        inv = 1.0 / lam
        inv[0, 0] = 0.0
    else:
        inv = 1.0 / (lam + np.mean(shift))
    shape = (mesh.ny, mesh.nx)

    def apply(r):
        return (Cy.T @ (inv * (Cy @ r.reshape(shape) @ Cx.T)) @ Cx).ravel()
    return apply


def upwind_cell_density(mesh, rho_cells, u):
    """Cell density upwind of each edge w.r.t. the normal velocity of u.

    An interior edge's normal points from K to L along +x or +y, so the
    sign of u's normal component picks the side.  On boundary edges the
    only neighbour, the inner cell, is used.
    """
    K, L = _edge_cells(mesh)
    _, normal = _incidence(mesh)
    return np.where(u.ravel()[normal] >= 0.0, rho_cells[K], rho_cells[L])


def upwind_mass_balance(mesh, rho, rho_star, u, dt):
    """Upwind edge density and cell mass-balance residual |K| (rho - rho*) / dt + D(rho_up u)."""
    rho_up = upwind_cell_density(mesh, rho, u)
    D, normal = _incidence(mesh)
    return rho_up, mesh.cell_volumes * (rho - rho_star) / dt + D @ (rho_up * u.ravel()[normal])
