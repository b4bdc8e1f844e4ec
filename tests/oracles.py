"""Reference constructions used only by the tests.

Pointwise finite element evaluation, the lumped velocity mass, the
pressure operator as an explicit matrix product, the sub-edge geometry
and the viscous stiffness built cell by cell, fresh COO assemblies of
every matrix the stepper refills on a fixed pattern, and the per-mesh
builders as COO sorts, to compare the grid-template builders with bit for
bit.  They are written
independently of the library's per-slot constants and cached patterns so
the tests can compare the two routes entry by entry.  The inputs that
`Stepper.step` computes once and hands to the stages come next, for tests
that call the stages one at a time.  The exact flow's section evaluates
it point by point, at the cell and edge Gauss points the library builds
from coordinate lines.  The last section holds the spatial
convergence measurement: smooth-flow runs with their O(dt) error
extrapolated away, and an upwind transport solve to compare them with.
"""

import functools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from baropc import operators as ops
from baropc import scheme as sch
from baropc import verification as ver
from baropc.mesh import BOTTOM, LEFT, RIGHT, TOP, build_rect_mesh
from baropc.operators import FieldError
from baropc.scheme import SchemeState


# ----------------------------------------------------------------------
# pointwise evaluation of the rotated bilinear element

def reference_coords(mesh, k, points):
    """Map physical points inside cell k to [-1,1]^2 coordinates."""
    points = np.asarray(points, dtype=float)
    c = mesh.cell_centroids[k]
    return np.stack([2.0 * (points[..., 0] - c[0]) / mesh.hx,
                     2.0 * (points[..., 1] - c[1]) / mesh.hy], axis=-1)


def shape_value(mesh, cell, edge, point, tol=1e-12):
    """Basis function of `edge` (a member of E(cell)) at a physical point."""
    ref = reference_coords(mesh, cell, point)
    if np.any(np.abs(ref) > 1.0 + tol):
        raise FieldError(f"point {point} lies outside cell {cell}")
    slots = mesh.cell_edges[cell]
    matches = np.nonzero(slots == edge)[0]
    if matches.size == 0:
        raise FieldError(f"edge {edge} does not belong to cell {cell}")
    return ops.basis_values(ref)[..., matches[0]]


def interpolate_velocity(mesh, u, cell, point, tol=1e-12):
    """Finite element expansion of u at physical point(s) inside a cell."""
    ref = reference_coords(mesh, cell, point)
    if np.any(np.abs(ref) > 1.0 + tol):
        raise FieldError(f"point {point} lies outside cell {cell}")
    phi = ops.basis_values(ref)                   # (..., 4)
    coeff = u[mesh.cell_edges[cell]]              # (4, 2)
    return phi @ coeff


def lumped_mass(mesh, w):
    """Diagonal velocity mass entries |D_sigma| * w_sigma, one per edge.

    The weight must be strictly positive so the matrix is invertible.
    """
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0.0):
        raise FieldError("lumped mass weight must be strictly positive")
    return mesh.diamond_volumes * w


# ----------------------------------------------------------------------
# the pressure operator as D (Q M^-1) D^T

def div_matrix_interior(mesh):
    """Sparse D restricted to interior velocity unknowns: (ncells, 2*n_int).

    Flat velocity index is 2*interior_position + component.  The exact
    negative transpose of this matrix is the gradient on interior edges.
    """
    internal = mesh.interior_edges
    pos = np.arange(internal.size)      # position among the interior edges
    K = mesh.edge_cells[internal, 0]
    L = mesh.edge_cells[internal, 1]
    coeff = mesh.edge_lengths[internal][:, None] * mesh.edge_normals[internal]
    rows = np.concatenate([np.repeat(K, 2), np.repeat(L, 2)])
    cols = np.tile(np.stack([2 * pos, 2 * pos + 1], axis=1).ravel(), 2)
    vals = np.concatenate([coeff.ravel(), -coeff.ravel()])
    return sp.csr_matrix((vals, (rows, cols)), shape=(mesh.ncells, 2 * mesh.n_interior))


def pressure_laplacian_product(mesh, w, q_up=None):
    """The pressure operator assembled as a matrix product (independent route)."""
    w = np.asarray(w, dtype=float)
    internal = mesh.interior_edges
    if q_up is None:
        q = np.ones(internal.size)
    else:
        q_up = np.asarray(q_up, dtype=float)
        q = q_up[internal]
    D = div_matrix_interior(mesh)
    minv = 1.0 / (mesh.diamond_volumes[internal] * w[internal])
    diag = sp.diags(np.repeat(q * minv, 2))
    # G = -D^T, so -D (Q M^-1) G = D (Q M^-1) D^T
    return (D @ diag @ D.T).tocsr()


# ----------------------------------------------------------------------
# per-mesh geometry and the viscous stiffness, built cell by cell

_VERTEX_EDGES = ((LEFT, BOTTOM), (RIGHT, BOTTOM), (LEFT, TOP), (RIGHT, TOP))


def subedges_per_cell(mesh):
    """(sub_cell, sub_pair, lengths, midpoints, normals) of the sub-edges
    from each cell's vertex coordinates, the normal turned out of the cone
    of the pair's first edge by comparing with that cone's centroid."""
    cent = mesh.cell_centroids
    off = 0.5 * np.array([[-mesh.hx, -mesh.hy], [mesh.hx, -mesh.hy],
                          [-mesh.hx, mesh.hy], [mesh.hx, mesh.hy]])
    pair = np.empty((mesh.ncells, 4, 2), dtype=np.int64)
    lengths = np.empty((mesh.ncells, 4))
    mids = np.empty((mesh.ncells, 4, 2))
    normals = np.empty((mesh.ncells, 4, 2))
    for v, (ea, eb) in enumerate(_VERTEX_EDGES):
        vtx = cent + off[v]
        t = cent - vtx
        ln = np.hypot(t[:, 0], t[:, 1])
        n = np.column_stack([t[:, 1], -t[:, 0]]) / ln[:, None]
        m = 0.5 * (vtx + cent)
        sig_a = mesh.cell_edges[:, ea]
        ga = (mesh.edge_p0[sig_a] + mesh.edge_p1[sig_a] + cent) / 3.0
        n[np.sum(n * (m - ga), axis=1) < 0.0] *= -1.0
        pair[:, v] = np.column_stack([sig_a, mesh.cell_edges[:, eb]])
        lengths[:, v], mids[:, v], normals[:, v] = ln, m, n
    return (np.repeat(np.arange(mesh.ncells), 4), pair.reshape(-1, 2), lengths.ravel(),
            mids.reshape(-1, 2), normals.reshape(-1, 2))


def sub_midpoints(mesh):
    """Sub-edge midpoints (nsubedges, 2), a quarter of the cell's diagonal
    from its centroid towards the vertex of the slot (BL, BR, TL, TR)."""
    quarter = 0.25 * np.array([[-mesh.hx, -mesh.hy], [mesh.hx, -mesh.hy],
                               [-mesh.hx, mesh.hy], [mesh.hx, mesh.hy]])
    return (mesh.cell_centroids[:, None, :] + quarter).reshape(-1, 2)


def subedge_coeffs_per_cell(mesh, u):
    """|eps| u(m_eps) . n_eps per sub-edge, u expanded in the element basis of
    the sub-edge's cell at the midpoint of the cell-by-cell geometry."""
    cell, _, lengths, mids, normals = subedges_per_cell(mesh)
    return np.array([lengths[s] * (interpolate_velocity(mesh, u, cell[s], mids[s]) @ normals[s])
                     for s in range(cell.size)])


def upwind_mass_balance_per_cell(mesh, rho, rho_star, u, dt):
    """Upwind edge density and cell mass-balance residual, cell by cell: each
    edge of a cell carries |sigma| rho_up u . n with n its normal out of the
    cell and rho_up the density of the cell the flow leaves (the inner cell
    on the boundary)."""
    rho_up = np.empty(mesh.nedges)
    res = mesh.cell_volumes * (rho - rho_star) / dt
    for k in range(mesh.ncells):
        for e in mesh.cell_edges[k]:
            out = mesh.edge_midpoints[e] - mesh.cell_centroids[k]
            flux = mesh.edge_lengths[e] * (u[e] @ out) / np.hypot(*out)
            across = [c for c in mesh.edge_cells[e] if c not in (k, -1)]
            rho_up[e] = rho[k] if flux >= 0.0 or not across else rho[across[0]]
            res[k] += rho_up[e] * flux
    return rho_up, res


def viscous_local(mesh, mu):
    """The viscous cell matrix and its couplings, entry by entry: dof 2a + i
    is component i of edge slot a, and I[a, b, i, j] = int dphi_a/dx_i
    dphi_b/dx_j on the reference square."""
    ref, w = ops.gauss_points_2d(2)
    grads = ops.basis_gradients(ref)
    I = np.einsum("q,qai,qbj->abij", w, grads, grads)
    scale = np.array([[mesh.hy / mesh.hx, 1.0], [1.0, mesh.hx / mesh.hy]])
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


def viscous_stiffness_dense(mesh, mu):
    """Dense viscous stiffness and its stored pattern, each cell's coupled
    8x8 block added in turn."""
    loc, coupled = viscous_local(mesh, mu)
    n = 2 * mesh.nedges
    A = np.zeros((n, n))
    stored = np.zeros((n, n), dtype=bool)
    for edges in mesh.cell_edges:
        block = np.ix_(*2 * [(2 * edges[:, None] + np.arange(2)).ravel()])
        A[block] += np.where(coupled, loc, 0.0)
        stored[block] |= coupled
    return A, stored


# ----------------------------------------------------------------------
# fresh COO assemblies of the refilled matrices

def coo(rows, cols, vals, shape):
    """CSR from triplets, duplicates summed, explicit zeros kept."""
    A = sp.csr_matrix((vals, (rows, cols)), shape=shape)
    A.sum_duplicates()
    return A


def _subedge_triplets(mesh, a, mode):
    s1, s2 = mesh.sub_pair[:, 0], mesh.sub_pair[:, 1]
    if mode == "centered":
        half = 0.5 * a
        vals = [half, half, -half, -half]
    else:
        ap, am = np.maximum(a, 0.0), np.maximum(-a, 0.0)
        vals = [ap, -am, am, -ap]
    return (np.concatenate([s1, s1, s2, s2]), np.concatenate([s1, s2, s2, s1]),
            np.concatenate(vals))


def convection_coo(mesh, fluxes, mode):
    """kron(C, I2) of the scalar diamond stencil, from triplets."""
    rows, cols, vals = _subedge_triplets(mesh, fluxes, mode)
    C = coo(rows, cols, vals, (mesh.nedges, mesh.nedges))
    return sp.kron(C, sp.identity(2, format="csr"), format="csr")


def density_matrix_coo(mesh, a, dt, u):
    """Upwind diamond transport plus mass and boundary-outflow diagonals."""
    rows, cols, vals = _subedge_triplets(mesh, a, "upwind")
    bnd = mesh.boundary_edges
    bflux = np.zeros(mesh.nedges)
    bflux[bnd] = mesh.edge_lengths[bnd] * np.einsum(
        "ed,ed->e", u[bnd], mesh.edge_normals[bnd])
    e = np.arange(mesh.nedges)
    return coo(np.concatenate([rows, e, e]), np.concatenate([cols, e, e]),
               np.concatenate([vals, mesh.diamond_volumes / dt, bflux]),
               (mesh.nedges, mesh.nedges))


def pressure_coo(mesh, w, q_up=None, shift=None):
    """Two-point pressure stencil with its diagonal, plus an optional shift."""
    internal = mesh.interior_edges
    q = np.ones(internal.size) if q_up is None else np.asarray(q_up)[internal]
    K, L = mesh.edge_cells[internal, 0], mesh.edge_cells[internal, 1]
    c = (q / w[internal]) * mesh.edge_lengths[internal] ** 2 / mesh.diamond_volumes[internal]
    cells = np.arange(mesh.ncells)
    diag = np.zeros(mesh.ncells) if shift is None else shift
    return coo(np.concatenate([K, L, K, L, cells]), np.concatenate([K, L, L, K, cells]),
               np.concatenate([c, c, -c, -c, diag]), (mesh.ncells, mesh.ncells))


def momentum_coo(mesh, rho_tilde, dt, fluxes, mode, stiffness):
    """Mass diagonal + convection + stiffness, split into the interior rows'
    blocks against interior and boundary columns."""
    n = 2 * mesh.nedges
    m_new = np.repeat(mesh.diamond_volumes * rho_tilde, 2) / dt
    conv = convection_coo(mesh, fluxes, mode).tocoo()
    K = stiffness.tocoo()
    dof = np.arange(n)
    A = coo(np.concatenate([dof, conv.row, K.row]), np.concatenate([dof, conv.col, K.col]),
            np.concatenate([m_new, conv.data, K.data]), (n, n))
    inner = np.zeros(n, dtype=bool)
    inner[2 * mesh.interior_edges] = True
    inner[2 * mesh.interior_edges + 1] = True
    idof, bdof = np.nonzero(inner)[0], np.nonzero(~inner)[0]
    return A[idof][:, idof], A[idof][:, bdof]


# ----------------------------------------------------------------------
# the per-mesh builders as scipy COO -> CSR conversions and element sampling

def assemble_pattern(rows, cols, shape, src=None, weight=None, size=None, within=None):
    """The `ops.Pattern` of a COO assembly of the given entries.

    Entry i holds weight[i] * x[src[i]] of inputs x of length `size` (by
    default x[i] and len(rows)), no two of them one input at one place.
    With `within`, a CSR pattern with sorted columns holding every entry,
    the stored pattern is that one.  The source is a CSC whose rows are
    found by sampling a matrix holding 1, 2, ..., nnz on the pattern.
    """
    if within is None:                    # scipy's COO -> CSR structure of the entries
        within = sp.csr_matrix((np.ones(len(rows), dtype=bool), (rows, cols)), shape=shape)
    nnz = within.nnz
    marker = sp.csr_matrix((np.arange(1, nnz + 1, dtype=np.int32), within.indices,
                            within.indptr), shape=shape)
    slot = (np.asarray(marker[rows, cols]).ravel() if len(rows) else np.ones(0, int)) - 1
    if np.any(slot < 0):
        raise ValueError("entries outside the sparsity pattern")
    src = np.arange(len(slot)) if src is None else src
    weight = np.ones(len(slot)) if weight is None else np.asarray(weight, dtype=float)
    source = sp.csc_matrix((weight, (slot, src)), shape=(nnz, len(slot) if size is None else size))
    return ops.Pattern(within.indptr, within.indices, shape, source)


def convection_entries(mesh):
    """Rows, columns, inputs and signs of the convection matrix's entries, as
    arrays of shape (2, nsub, 2, 2): input X or Y, sub-edge, term, velocity
    component.  X_s adds at (s1, s1) and its negative at (s2, s1), Y_s at
    (s1, s2) and its negative at (s2, s2)."""
    s = np.arange(mesh.nsubedges, dtype=np.int32)
    dof = 2 * mesh.sub_pair.astype(np.int32)[:, :, None] + np.arange(2, dtype=np.int32)
    shape = (2,) + dof.shape
    return (np.stack([dof, dof]), np.stack([dof[:, [0, 0]], dof[:, [1, 1]]]),
            np.broadcast_to(np.stack([s, s + mesh.nsubedges])[:, :, None, None], shape),
            np.broadcast_to(np.array([1, -1], dtype=np.int8)[:, None], shape))


def viscous_stiffness_coo(mesh, mu):
    """The viscous stiffness as one COO assembly of every cell's coupled
    entries of `ops._viscous_local`."""
    loc, coupled = ops._viscous_local(mesh, mu)
    gdof = np.repeat(2 * mesh.cell_edges.astype(np.int32), 2, axis=1)
    gdof[:, 1::2] += 1
    r, c = np.divmod(np.flatnonzero(coupled), 8)
    n = 2 * mesh.nedges
    return sp.csr_matrix((np.tile(loc[r, c], mesh.ncells),
                          (gdof[:, r].ravel(), gdof[:, c].ravel())), shape=(n, n))


def convection_pattern_coo(mesh):
    """The convection matrix's pattern from the COO structure of its entries."""
    rows, cols, src, sign = (a.ravel() for a in convection_entries(mesh))
    n = 2 * mesh.nedges
    return assemble_pattern(rows, cols, (n, n), src, sign, 2 * mesh.nsubedges)


def momentum_plan_coo(mesh, stiffness):
    """The momentum matrix's refill pattern on the stiffness pattern: the
    interior rows' convection entries and every dof's mass diagonal, placed
    by sampling."""
    interior = np.repeat(~mesh.edge_is_boundary, 2)
    convection = [a.ravel() for a in convection_entries(mesh)]
    keep, dof = interior[convection[0]], np.arange(interior.size, dtype=np.int32)
    rows, cols, src, sign = (np.concatenate([a[keep], b]) for a, b in zip(
        convection, (dof, dof, 2 * mesh.nsubedges + dof, np.ones(dof.size, np.int8))))
    return assemble_pattern(rows, cols, stiffness.shape, src, sign,
                            2 * mesh.nsubedges + dof.size, within=stiffness)


def density_patterns_coo(mesh):
    """The vertical-from-horizontal and horizontal-from-vertical coupling
    patterns of the density solve, one COO entry per sub-edge."""
    nv, nh = mesh.n_vertical, mesh.nedges - mesh.n_vertical
    v, h = mesh.sub_pair[:, 0], mesh.sub_pair[:, 1] - nv
    return assemble_pattern(v, h, (nv, nh)), assemble_pattern(h, v, (nh, nv))


# ----------------------------------------------------------------------
# the stages' shared inputs, from the operators Stepper.step uses

def density_inputs(mesh, state):
    """The old edge density and the sub-edge velocity coefficients."""
    return ops.edge_density(mesh, state.rho), ops.subedge_velocity_coeffs(mesh, state.u)


def momentum_inputs(mesh, state, config, rho_tilde):
    """The mass fluxes, the old edge density and the boundary data at the
    new time, in `predict_velocity`'s order."""
    rho_edge_n, coeffs = density_inputs(mesh, state)
    return (sch.mass_fluxes(mesh, coeffs, rho_tilde), rho_edge_n,
            config.bc(mesh, state.t + config.dt))


def predict(mesh, state, config):
    """Steps 1-3 of one step: (rho_tilde, p_tilde, u_tilde)."""
    rho_tilde, _ = sch.predict_density(mesh, state, config, *density_inputs(mesh, state))
    p_tilde, _ = sch.renormalize_pressure(mesh, state, rho_tilde, config)
    u_tilde, _ = sch.predict_velocity(mesh, state, rho_tilde, p_tilde, config,
                                      *momentum_inputs(mesh, state, config, rho_tilde))
    return rho_tilde, p_tilde, u_tilde


# ----------------------------------------------------------------------
# the smooth exact flow: closed-form derivatives and pointwise forcing

def exact_fields(case, mesh, t):
    """(rho on cells, p on cells, u edge means) of the exact flow at t."""
    rho = case.rho(mesh.cell_centroids, t)
    p = case.eos.pressure(rho)
    u = ops.edge_mean(mesh, lambda pts: case.velocity(pts, t))
    return rho, p, u


def cell_quadrature_points(mesh, n):
    """Physical quadrature points per cell, (ncells, n*n, 2), and weights
    that include the Jacobian hx*hy/4, i.e. sum to |K|."""
    ref, w = ops.gauss_points_2d(n)
    pts = mesh.cell_centroids[:, None, :] + 0.5 * ref[None, :, :] * np.array([mesh.hx, mesh.hy])
    return pts, w * (mesh.hx * mesh.hy / 4.0)


def pointwise_initial_exact_state(case, mesh):
    """The exact flow's initial state, its velocity the edge means over the
    edge points (`ops.edge_mean`) rather than from factors on coordinate lines."""
    return sch.initial_state(mesh, case.eos, case.rho(mesh.cell_centroids, 0.0),
                             ops.edge_mean(mesh, lambda pts: case.velocity(pts, 0.0)))


def drho_dt(case, x, t):
    """d rho / dt of SmoothFlowCase."""
    return 0.25 * np.pi * np.cos(np.pi * t) * (np.cos(np.pi * x[..., 0])
                                               - np.sin(np.pi * x[..., 1]))


def grad_rho(case, x, t):
    """Spatial gradient of rho of SmoothFlowCase."""
    s1, _, _, c2 = case.spatial(x)
    return 0.25 * np.sin(np.pi * t) * np.stack([-np.pi * s1, -np.pi * c2], axis=-1)


def grad_pressure(case, x, t):
    """Spatial gradient of the affine-law pressure of SmoothFlowCase."""
    return grad_rho(case, x, t) / case.eos.coeff


def forcing(case, x, t):
    """Analytic momentum residual of the exact fields of SmoothFlowCase."""
    return case.forcing_rest(x, t) + grad_pressure(case, x, t)


def forcing_rest_chain(case, x, t):
    """SmoothFlowCase.forcing_rest by the derivative chain of u = m / rho.

    Differentiating rho u = m gives each derivative of u from lower ones:
    d_j u = (d_j m - u d_j rho) / rho  and
    d_jk u = (d_jk m - d_j u d_k rho - d_k u d_j rho - u d_jk rho) / rho.
    Here m_i depends on x_i only and rho has no mixed derivative.
    """
    s1, c1, s2, c2 = case.spatial(x)
    a, b = 0.25 * np.sin(np.pi * t), 0.25 * np.cos(np.pi * t)
    r = 1.0 / (1.0 + a * (c1 - s2))
    m = (-b * s1, -b * c2)
    dm = (-np.pi * b * c1, np.pi * b * s2)                  # d_i m_i
    ddm = (np.pi ** 2 * b * s1, np.pi ** 2 * b * c2)        # d_ii m_i
    g = (-np.pi * a * s1, -np.pi * a * c2)                  # d_j rho
    h = (-np.pi ** 2 * a * c1, np.pi ** 2 * a * s2)         # d_jj rho
    u = [mi * r for mi in m]
    du = [[((dm[i] if i == j else 0.0) - u[i] * g[j]) * r for j in (0, 1)]
          for i in (0, 1)]                                  # d_j u_i
    d2u = [[((ddm[i] if i == j else 0.0) - 2.0 * du[i][j] * g[j] - u[i] * h[j]) * r
            for j in (0, 1)] for i in (0, 1)]               # d_jj u_i
    dxy = [-(du[i][0] * g[1] + du[i][1] * g[0]) * r for i in (0, 1)]  # d_01 u_i
    div = du[0][0] + du[1][1]
    grad_div = (d2u[0][0] + dxy[1], dxy[0] + d2u[1][1])
    dmdt = (np.pi * a * s1, np.pi * a * c2)
    return np.stack([dmdt[i] + dm[i] * u[i] + m[i] * div
                     - case.mu * (d2u[i][0] + d2u[i][1]) - (case.mu / 3.0) * grad_div[i]
                     for i in (0, 1)], axis=-1)


def jac_momentum(case, x, t):
    """J[..., i, j] = d m_i / d x_j of SmoothFlowCase (diagonal for this flow)."""
    ct = np.cos(np.pi * t)
    J = np.zeros(x.shape[:-1] + (2, 2))
    J[..., 0, 0] = -0.25 * np.pi * ct * np.cos(np.pi * x[..., 0])
    J[..., 1, 1] = 0.25 * np.pi * ct * np.sin(np.pi * x[..., 1])
    return J


def forcing_quadrature(case, mesh, t, quad_order=3):
    """Load vector from pointwise forcing_rest / pressure at every Gauss point."""
    ref, _ = ops.gauss_points_2d(quad_order)
    pts, w = cell_quadrature_points(mesh, quad_order)
    phi = ops.basis_values(ref)
    contrib = np.einsum("q,cqd,qa->cad", w, case.forcing_rest(pts, t), phi)
    rhs = np.zeros((mesh.nedges, 2))
    np.add.at(rhs, mesh.cell_edges, contrib)
    p_mean = np.einsum("q,cq->c", w, case.pressure(pts, t)) / mesh.cell_volumes
    return rhs + ops.gradient(mesh, p_mean)


# ----------------------------------------------------------------------
# spatial convergence with the time error extrapolated away

FIRST_ORDER = (0.7, 1.3)    # the window criterion 1 puts around order 1


def time_extrapolate(coarse, fine):
    """First-order Richardson extrapolate 2 X(dt/2) - X(dt).

    For a scheme first order in time, X(dt) = X + c dt + O(dt^2) with c
    independent of dt, so the extrapolate cancels the O(dt) term.
    """
    return 2.0 * np.asarray(fine) - np.asarray(coarse)


def halving_orders(coarse_errors, fine_errors):
    """Orders log2(e_h / e_{h/2}), one per error pair."""
    return tuple(float(o) for o in np.log2(np.divide(coarse_errors, fine_errors)))


def first_order(*orders):
    """True iff every order lies in the first-order window."""
    lo, hi = FIRST_ORDER
    return all(lo <= o <= hi for o in orders)


@functools.lru_cache(maxsize=None)
def time_extrapolated_smooth_flow(n, dt, t_end=0.5):
    """The smooth flow on an n x n mesh, run at dt and dt/2 to t_end.

    Returns (mesh, (info at dt, info at dt/2), extrapolated end state),
    where every field of the state is `time_extrapolate`d.  The runs are
    deterministic, so tests that read the same runs share one set; the
    arrays are read-only.
    """
    mesh = build_rect_mesh(n, n, ver.SmoothFlowCase.domain)
    runs = [ver.run_smooth_flow(mesh, step, t_end) for step in (dt, dt / 2.0)]
    (coarse, info_c), (fine, info_f) = runs
    state = SchemeState(t_end, *(time_extrapolate(getattr(coarse, f), getattr(fine, f))
                                 for f in ("u", "p", "rho", "rho_edge_pred")))
    for field in (state.u, state.p, state.rho, state.rho_edge_pred):
        field.flags.writeable = False
    return mesh, (info_c, info_f), state


def density_error(case, mesh, rho, t):
    """Cellwise midpoint L2 distance of rho to the exact density at t."""
    exact = case.rho(mesh.cell_centroids, t)
    return float(np.sqrt(np.sum(mesh.cell_volumes * (rho - exact) ** 2)))


def upwind_transport(case, mesh, dt, t_end):
    """Cell density of implicit upwind finite volumes for the mass balance.

    d(rho)/dt + div(rho u) = 0 with u the exact flow's edge-mean velocity
    at the new time level, the upwind cell density on every interior edge
    and no flux through the boundary (the exact normal trace is zero):

        |K| (rho_K^{n+1} - rho_K^n) / dt + sum_sigma F_sigma rho_up^{n+1} = 0,
        F_sigma = |sigma| u_sigma . n_sigma.

    Assembled here with scipy, independently of `baropc.scheme`.
    """
    nsteps = int(round(t_end / dt))
    internal = mesh.interior_edges
    K, L = mesh.edge_cells[internal, 0], mesh.edge_cells[internal, 1]
    rows, cols = np.concatenate([K, K, L, L]), np.concatenate([K, L, L, K])
    mass = sp.diags(mesh.cell_volumes / dt)
    rho = case.rho(mesh.cell_centroids, 0.0)
    for step in range(1, nsteps + 1):
        u = ops.edge_mean(mesh, lambda pts: case.velocity(pts, step * dt))
        F = mesh.edge_lengths[internal] * np.einsum(
            "ed,ed->e", u[internal], mesh.edge_normals[internal])
        out, into = np.maximum(F, 0.0), np.minimum(F, 0.0)    # K -> L, L -> K
        A = sp.csr_matrix((np.concatenate([out, into, -into, -out]), (rows, cols)),
                          shape=(mesh.ncells, mesh.ncells)) + mass
        rho = spla.spsolve(A.tocsc(), mass @ rho)
    return rho
