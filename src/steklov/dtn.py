"""Finite-element discretization of the Steklov problem.

Piecewise-linear cotangent stiffness K over the chart triangles (conformally
invariant in two dimensions, so the factor lambda never enters) and a lumped
boundary mass M_b carrying the lambda-weighted edge lengths.

`steklov_spectrum` solves the sparse pencil K u = sigma M_b u by shift-invert
Lanczos.  K - s M_b is symmetric positive definite at s = PENCIL_SHIFT < 0, so
it is factored once by SuperLU in symmetric mode (diagonal pivots, one
symmetric fill-reducing ordering).  Since M_b vanishes on interior vertices,
the pencil has n_boundary finite eigenvalues, and Lanczos runs on the
n_boundary x n_boundary operator C = H E_b' (K - s M_b)^{-1} E_b H, with E_b
the zero extension of boundary values and H = sqrt(M_b) on the boundary.  C is
symmetric with eigenvalues theta = 1 / (sigma - s); one block solve lifts its
eigenvectors to the full vertex vectors, whose boundary rows are the traces.

The dense discrete Dirichlet-to-Neumann operator (`schur_dtn`, the Schur
complement of K onto the boundary) is kept where it pays for itself:
`DtnOperator` reuse across many boundary densities, and a `count` too close to
n_boundary for Lanczos.  It checks its own symmetry and kernel.  It is read off
one sparse LU of the SPD matrix K + E_b E_b' eliminated interior first, in a
fill-reducing order, and boundary last: the trailing factor block gives
L_bb U_bb = DtN + I, with no solve against a dense n_interior x n_boundary
right-hand side.  The interior order is SuperLU's minimum-degree column order
(with its elimination-tree postorder) of the interior block, taken from an
incomplete LU that drops every entry, so the ordering costs no numeric
interior factorization.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, spilu, splu

from .errors import (AssemblyError, FactorizationError, InvalidParameterError,
                     SolverError)
from .meshes import SurfaceMesh, boundary_edge_lengths
from .spectra import CLUSTER_RTOL_FEM, Spectrum, make_spectrum

RESIDUAL_RTOL = 1e-10
PENCIL_SHIFT = -0.5  # below the spectrum, so K - s M_b is positive definite
# SuperLU on SPD matrices: diagonal pivots are stable and keep the symmetric ordering
_SPD_FACTOR = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}

logger = logging.getLogger(__name__)


def assemble_stiffness(mesh: SurfaceMesh) -> sp.csr_matrix:
    """Cotangent-weight stiffness on logical vertices; constants are in the kernel."""
    pts = mesh.vertices
    tri = mesh.triangles
    p0, p1, p2 = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]
    e0 = p2 - p1
    e1 = p0 - p2
    e2 = p1 - p0
    area2 = e2[:, 0] * (-e1[:, 1]) - e2[:, 1] * (-e1[:, 0])
    if np.any(area2 <= 0):
        raise AssemblyError("degenerate or misoriented chart triangle")
    cots = np.stack([
        -np.einsum("ij,ij->i", e1, e2) / area2,
        -np.einsum("ij,ij->i", e2, e0) / area2,
        -np.einsum("ij,ij->i", e0, e1) / area2,
    ], axis=1)  # cot of the angle at each corner
    # each edge's weight is half the cotangents of the (one or two) corners facing it
    w = 0.5 * np.bincount(mesh.opposite_edge.ravel(), weights=cots.ravel(),
                          minlength=len(mesh.edges))
    lo, hi = mesh.edges[:, 0], mesh.edges[:, 1]
    n = mesh.n_logical
    diag = np.bincount(lo, weights=w, minlength=n) + np.bincount(hi, weights=w, minlength=n)
    every = np.arange(n)
    K = sp.coo_matrix(
        (np.concatenate([-w, -w, diag]),
         (np.concatenate([lo, hi, every]), np.concatenate([hi, lo, every]))),
        shape=(n, n),
    )
    return K.tocsr()


def boundary_mass_vector(mesh: SurfaceMesh, conformal=None) -> np.ndarray:
    """Lumped boundary mass per logical vertex: half of each incident edge length."""
    half = 0.5 * boundary_edge_lengths(mesh, conformal)
    ends = mesh.logical[mesh.boundary_edge_chart]
    mass = np.zeros(mesh.n_logical)
    np.add.at(mass, ends[:, 0], half)
    np.add.at(mass, ends[:, 1], half)
    return mass


def _grounding_pins(K: sp.csr_matrix, boundary_index: np.ndarray) -> np.ndarray:
    """One vertex per connected component that never touches the boundary.

    Such components make the pure-Neumann interior block (and the pencil
    K - s M_b) singular; grounding their constant mode is exact because they
    do not couple to the boundary.
    """
    n_comp, labels = connected_components(K, directed=False)
    touches = np.bincount(labels[boundary_index], minlength=n_comp) > 0
    _, first = np.unique(labels, return_index=True)
    return first[~touches].astype(np.int64)


def _ground(A: sp.spmatrix, pins: np.ndarray) -> sp.csc_matrix:
    """D A D + (I - D), D the diagonal mask that zeroes the pinned rows and columns."""
    if len(pins) == 0:
        return A.tocsc()
    keep = np.ones(A.shape[0])
    keep[pins] = 0.0
    D = sp.diags(keep)
    grounded = (D @ A @ D + sp.diags(1.0 - keep)).tocsc()
    grounded.eliminate_zeros()
    return grounded


def schur_dtn(stiffness: sp.spmatrix, boundary_index: np.ndarray) -> np.ndarray:
    """Dense DtN_h = K_bb - K_bi K_ii^{-1} K_ib on the boundary degrees of freedom.

    Read off the trailing block of one sparse LU of A = ground(K) + E_b E_b'
    (SPD) eliminated interior first, in a fill-reducing order, and boundary
    last: there L_bb U_bb = (K_bb + I) - K_bi K_ii^{-1} K_ib.
    """
    n = stiffness.shape[0]
    b = np.asarray(boundary_index, dtype=np.int64)
    n_b = len(b)
    interior = np.setdiff1d(np.arange(n), b)
    K = stiffness.tocsr()
    if interior.size == 0:
        dtn = K[b][:, b].toarray()
    else:
        K = _ground(K, _grounding_pins(K, b)).tocsr()
        try:
            # only the fill-reducing interior ordering is wanted: an incomplete
            # LU that drops every entry computes it without the numeric fill
            perm = spilu(K[interior][:, interior].tocsc(), drop_tol=np.inf,
                         fill_factor=1, permc_spec="MMD_AT_PLUS_A", **_SPD_FACTOR).perm_c
            order = np.concatenate([interior[np.argsort(perm)], b])
            on_boundary = np.zeros(n)
            on_boundary[n - n_b:] = 1.0
            lu = splu((K[order][:, order] + sp.diags(on_boundary)).tocsc(),
                      permc_spec="NATURAL", **_SPD_FACTOR)
        except RuntimeError as exc:
            raise FactorizationError(f"boundary-last factorization failed: {exc}") from exc
        # SuperLU may postorder the elimination tree, an equivalent ordering
        # that only permutes the factor entries: find the boundary's positions
        rows, cols = lu.perm_r[n - n_b:], lu.perm_c[n - n_b:]
        if not np.array_equal(rows, cols):
            raise FactorizationError("a boundary pivot left the diagonal")
        dtn = lu.L[:, cols][rows].toarray() @ lu.U[:, cols][rows].toarray()
        dtn[np.diag_indices(n_b)] -= 1.0
    defect = np.max(np.abs(dtn - dtn.T))
    scale = np.max(np.abs(dtn)) + 1e-300
    if defect > 1e-10 * scale:
        raise FactorizationError(f"DtN symmetry defect {defect / scale:.2e}")
    dtn = 0.5 * (dtn + dtn.T)
    kernel = np.max(np.abs(dtn @ np.ones(len(b))))
    if kernel > 1e-10 * scale * max(len(b), 1):
        raise FactorizationError(f"DtN does not annihilate constants: {kernel / scale:.2e}")
    return dtn


@dataclass(frozen=True)
class DtnOperator:
    """Discrete DtN of one mesh; reusable across boundary-density variations."""

    mesh: SurfaceMesh
    matrix: np.ndarray
    boundary_index: np.ndarray

    def spectrum(self, count: int, conformal=None, want_vectors: bool = False) -> Spectrum:
        b = self.boundary_index
        if not (1 <= count <= len(b)):
            raise InvalidParameterError(
                f"count must lie in [1, {len(b)}] (boundary degrees of freedom)")
        mass = boundary_mass_vector(self.mesh, conformal)[b]
        if np.any(mass <= 0):
            raise AssemblyError("boundary vertex with nonpositive lumped mass")
        s = 1.0 / np.sqrt(mass)
        H = self.matrix * np.outer(s, s)  # exactly symmetric: schur_dtn symmetrizes
        try:
            w, y = scipy.linalg.eigh(H, subset_by_index=[0, count - 1])
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"dense eigensolve failed: {exc}") from exc
        vectors = s[:, None] * y
        resid = self.matrix @ vectors - mass[:, None] * vectors * w[None, :]
        denom = np.linalg.norm(mass[:, None] * vectors, axis=0)
        rel = np.linalg.norm(resid, axis=0) / denom
        if np.any(rel > RESIDUAL_RTOL):
            raise SolverError(f"eigenpair residual {rel.max():.2e} above contract")
        return make_spectrum(
            w, float(np.sum(mass)), cluster_rtol=CLUSTER_RTOL_FEM,
            eigenvectors=vectors if want_vectors else None,
            boundary_index=b if want_vectors else None,
        )


def build_dtn(mesh: SurfaceMesh) -> DtnOperator:
    b = _boundary_index(mesh)
    K = assemble_stiffness(mesh)
    return DtnOperator(mesh=mesh, matrix=schur_dtn(K, b), boundary_index=b)


def _boundary_index(mesh: SurfaceMesh) -> np.ndarray:
    if not mesh.boundary_loops:
        raise InvalidParameterError("mesh has no boundary")
    return np.unique(np.concatenate([np.asarray(loop) for loop in mesh.boundary_loops]))


def _lanczos_fits(wanted: int, n_boundary: int) -> bool:
    """Whether a Lanczos basis for `wanted` pairs fits in the n_boundary finite ones."""
    return 2 * wanted + 20 <= n_boundary


def steklov_spectrum(mesh: SurfaceMesh, count: int, want_vectors: bool = False) -> Spectrum:
    """Smallest `count` discrete Steklov eigenvalues with optional boundary traces.

    Shift-invert Lanczos on the sparse pencil K u = sigma M_b u, run in
    boundary space (see the module docstring).  The pencil has only
    n_boundary finite eigenvalues, so a `count` too close to that for a
    Lanczos basis goes through the dense DtN instead.  When `count` splits a
    degenerate pair, the last Ritz vector is a mixture of the pair and misses
    the residual contract; the solve then asks once for two more pairs.  The
    retry and the dense route are logged at DEBUG.
    """
    b = _boundary_index(mesh)
    n_b = len(b)
    if not (1 <= count <= n_b):
        raise InvalidParameterError(
            f"count must lie in [1, {n_b}] (boundary degrees of freedom)")
    if not _lanczos_fits(count, n_b):
        logger.debug("dense DtN: %d pairs of %d leave no room for Lanczos", count, n_b)
        return build_dtn(mesh).spectrum(count, want_vectors=want_vectors)
    mass = boundary_mass_vector(mesh)
    if np.any(mass[b] <= 0):
        raise AssemblyError("boundary vertex with nonpositive lumped mass")
    K = assemble_stiffness(mesh)
    K = _ground(K, _grounding_pins(K, b))
    try:
        lu = splu(K - PENCIL_SHIFT * sp.diags(mass), permc_spec="MMD_AT_PLUS_A",
                  **_SPD_FACTOR)
    except RuntimeError as exc:
        raise FactorizationError(f"pencil factorization failed: {exc}") from exc
    n = K.shape[0]
    h = np.sqrt(mass[b])

    def lifted(boundary_values: np.ndarray) -> np.ndarray:
        """E_b: extend boundary rows by zero to every vertex."""
        x = np.zeros((n,) + boundary_values.shape[1:])
        x[b] = boundary_values
        return x

    # C = H E_b' (K - s M_b)^{-1} E_b H with H = sqrt(M_b) on the boundary is
    # symmetric, and its eigenvalues are theta = 1 / (sigma - s)
    op = LinearOperator((n_b, n_b), matvec=lambda y: h * lu.solve(lifted(h * y))[b],
                        dtype=float)

    def lowest_pairs(wanted: int):
        """The `count` lowest pairs of a Lanczos run for `wanted` pairs, with residuals."""
        # a fixed start vector keeps reruns bit-identical (ARPACK's own seed moves on)
        v0 = np.random.default_rng(0).standard_normal(n_b)
        try:
            theta, y = eigsh(op, k=wanted, which="LA", v0=v0)
        except ArpackError as exc:
            raise SolverError(f"shift-invert Lanczos failed: {exc}") from exc
        order = np.argsort(-theta)[:count]
        theta, y = theta[order], y[:, order]
        w = PENCIL_SHIFT + 1.0 / theta
        u = lu.solve(lifted(h[:, None] * y)) / theta
        u = u / np.sqrt(np.einsum("ij,i,ij->j", u, mass, u))
        resid = np.linalg.norm(K @ u - (mass[:, None] * u) * w[None, :], axis=0)
        return w, u, resid / np.linalg.norm(mass[:, None] * u, axis=0)

    w, u, rel = lowest_pairs(count)
    if np.any(rel > RESIDUAL_RTOL):
        if not _lanczos_fits(count + 2, n_b):
            logger.debug("dense DtN: residual %.2e, and %d pairs of %d leave no room for "
                         "Lanczos", rel.max(), count + 2, n_b)
            return build_dtn(mesh).spectrum(count, want_vectors=want_vectors)
        logger.debug("Lanczos retry: %d pairs, residual %.2e", count + 2, rel.max())
        w, u, rel = lowest_pairs(count + 2)
    if np.any(rel > RESIDUAL_RTOL):
        raise SolverError(f"eigenpair residual {rel.max():.2e} above contract")
    return make_spectrum(
        w, float(np.sum(mass[b])), cluster_rtol=CLUSTER_RTOL_FEM,
        eigenvectors=u[b] if want_vectors else None,
        boundary_index=b if want_vectors else None,
    )


__all__ = [
    "assemble_stiffness", "boundary_mass_vector",
    "schur_dtn", "DtnOperator", "build_dtn", "steklov_spectrum",
    "boundary_edge_lengths",
]
