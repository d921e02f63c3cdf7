"""Finite-element discretization of the Steklov problem.

Piecewise-linear cotangent stiffness K, built from the mesh's unique edges and
their weights (`meshes.assemble_mesh` owns the chart geometry; this module
never reads it), and a lumped boundary mass M_b carrying the lambda-weighted
edge lengths.  K is conformally invariant in two dimensions: lambda never
enters it.

`steklov_spectrum` solves the sparse pencil K u = sigma M_b u by shift-invert
block Lanczos (`_block_lanczos`).  K - s M_b is symmetric positive definite at
s = PENCIL_SHIFT < 0, so it is factored once by SuperLU in symmetric mode
(diagonal pivots, one symmetric fill-reducing ordering).  Since M_b vanishes
on interior vertices, the pencil has n_boundary finite eigenvalues, and
Lanczos runs on the n_boundary x n_boundary operator C = H E_b' (K - s M_b)^{-1}
E_b H, with E_b the zero extension of boundary values and H = sqrt(M_b) on the
boundary.  C is symmetric with eigenvalues theta = 1 / (sigma - s); one block
solve lifts its eigenvectors to the full vertex vectors, whose boundary rows
are the traces.

The dense discrete Dirichlet-to-Neumann operator (`schur_dtn`, the Schur
complement of K onto the boundary) is kept where it pays for itself:
`DtnOperator` reuse across many boundary densities, a `count` close to
n_boundary, where its one eigh beats Lanczos, and the one fallback of a Lanczos
solve whose pairs miss the residual contract.  It checks its own symmetry and
kernel.  It is read off one sparse LU of the SPD matrix K + E_b E_b' eliminated
interior first, in a fill-reducing order, and boundary last: the trailing
factor block gives L_bb U_bb = DtN + I, with no solve against a dense
n_interior x n_boundary right-hand side.  The interior order is SuperLU's
minimum-degree column order (with its elimination-tree postorder) of the
interior block, taken from an incomplete LU that drops every entry, so the
ordering costs no numeric interior factorization.  Its spectrum is one eigh of
M_b^{-1/2} DtN M_b^{-1/2} for masses within a factor 1e3, else of
H (DtN - s M_b)^{-1} H as in the pencil, where massless vertices are free ones.

All three SuperLU calls take `_SPD_FACTOR`, which also turns off relaxed
supernodes and column panels: on these meshes the pencil factor takes about a
fifth less time for the same fill.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import spilu, splu

from .errors import FactorizationError, SolverError
from .meshes import SurfaceMesh, boundary_edge_lengths, with_conformal_factor
from .spectra import CLUSTER_RTOL_FEM, Spectrum, check_count, make_spectrum, zero_band

RESIDUAL_RTOL = 1e-10
PENCIL_SHIFT = -0.5  # below the spectrum, so K - s M_b is positive definite
# SuperLU on SPD matrices: diagonal pivots are stable and keep the symmetric ordering.
# relax = panel_size = 1 (SuperLU's defaults are 10): on these 2-D P1 matrices
# relaxed supernodes and column panels cost more than they save, and the factor
# takes about a fifth less time for the same fill.  Do not raise them: with
# scipy 1.17.1, 30 or more corrupts the heap on disks at resolution 0.03 and 0.02
_SPD_FACTOR = {"diag_pivot_thresh": 0.0, "relax": 1, "panel_size": 1,
               "options": {"SymmetricMode": True}}

logger = logging.getLogger(__name__)


def assemble_stiffness(mesh: SurfaceMesh) -> sp.csr_matrix:
    """Cotangent-weight stiffness on logical vertices; constants are in the kernel."""
    w = mesh.edge_weights
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


def boundary_mass_vector(mesh: SurfaceMesh) -> np.ndarray:
    """Lumped boundary mass per logical vertex: half of each incident edge length."""
    half = 0.5 * boundary_edge_lengths(mesh)
    ends = mesh.logical[mesh.boundary_edge_chart]
    return np.bincount(ends.ravel(), weights=np.repeat(half, 2), minlength=mesh.n_logical)


def schur_dtn(stiffness: sp.spmatrix, boundary_index: np.ndarray) -> np.ndarray:
    """Dense DtN_h = K_bb - K_bi K_ii^{-1} K_ib on the boundary degrees of freedom.

    Read off the trailing block of one sparse LU of A = K + E_b E_b' (SPD:
    `assemble_mesh` refuses a component without boundary) eliminated interior
    first, in a fill-reducing order, and boundary last: there
    L_bb U_bb = (K_bb + I) - K_bi K_ii^{-1} K_ib.
    """
    n = stiffness.shape[0]
    b = np.asarray(boundary_index, dtype=np.int64)
    n_b = len(b)
    interior = np.setdiff1d(np.arange(n), b)
    K = stiffness.tocsr()
    if interior.size == 0:
        dtn = K[b][:, b].toarray()
    else:
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


def _relative_residuals(A, u: np.ndarray, mass: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|A u - sigma M u| / |M u| of each eigenpair (sigma in w, u by columns)."""
    mu = mass[:, None] * u
    return np.linalg.norm(A @ u - mu * w[None, :], axis=0) / np.linalg.norm(mu, axis=0)


def _contracted(w: np.ndarray, rel: np.ndarray, boundary_mass: np.ndarray,
                traces: np.ndarray | None, b: np.ndarray) -> Spectrum:
    """The eigenpairs as a Spectrum, refused unless every residual meets the contract
    and the leading eigenvalue is not negative beyond solver noise;
    `traces` are the boundary rows of the eigenvectors, None unless asked for."""
    if np.any(rel > RESIDUAL_RTOL):
        raise SolverError(f"eigenpair residual {rel.max():.2e} above contract")
    if w[0] < -zero_band(w):
        raise SolverError(f"leading eigenvalue {w[0]:.3e} below zero")
    return make_spectrum(w, float(np.sum(boundary_mass)), cluster_rtol=CLUSTER_RTOL_FEM,
                         eigenvectors=traces, boundary_index=None if traces is None else b)


@dataclass(frozen=True)
class DtnOperator:
    """Discrete DtN of one mesh; reusable across boundary-density variations."""

    mesh: SurfaceMesh
    matrix: np.ndarray
    boundary_index: np.ndarray

    def spectrum(self, count: int, conformal=None, want_vectors: bool = False) -> Spectrum:
        b, n = self.boundary_index, len(self.boundary_index)
        mesh = self.mesh if conformal is None else with_conformal_factor(self.mesh, conformal)
        mass = boundary_mass_vector(mesh)[b]
        check_count(count, np.count_nonzero(mass), "boundary degrees of freedom with a mass")
        try:
            if mass.min() > 1e-3 * mass.max():  # residuals about 5e-15 / that ratio
                s = 1.0 / np.sqrt(mass)  # exactly symmetric: schur_dtn symmetrizes
                w, y = scipy.linalg.eigh(self.matrix * np.outer(s, s),
                                         subset_by_index=[0, count - 1])
                vectors = s[:, None] * y
            else:  # the pencil's shift-invert form, dense: massless vertices are free
                h = np.sqrt(mass)
                B = scipy.linalg.cho_factor(self.matrix - PENCIL_SHIFT * np.diag(mass))
                theta, y = scipy.linalg.eigh(h[:, None] * scipy.linalg.cho_solve(B, np.diag(h)),
                                             subset_by_index=[n - count, n - 1])
                w = PENCIL_SHIFT + 1.0 / theta[::-1]
                vectors = scipy.linalg.cho_solve(B, h[:, None] * y[:, ::-1]) * (w - PENCIL_SHIFT)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"dense eigensolve failed: {exc}") from exc
        return _contracted(w, _relative_residuals(self.matrix, vectors, mass, w), mass,
                           vectors if want_vectors else None, b)


def build_dtn(mesh: SurfaceMesh) -> DtnOperator:
    b = _boundary_index(mesh)
    K = assemble_stiffness(mesh)
    return DtnOperator(mesh=mesh, matrix=schur_dtn(K, b), boundary_index=b)


def _boundary_index(mesh: SurfaceMesh) -> np.ndarray:
    return np.unique(np.concatenate([np.asarray(loop) for loop in mesh.boundary_loops]))


def _block_lanczos(op, n: int, wanted: int):
    """The `wanted` largest eigenpairs, largest first, of a symmetric n x n operator
    `op` on column blocks: block Lanczos with full reorthogonalization.

    Blocks of two: from one start vector, Lanczos meets the second copy of a
    double eigenvalue (two alike components glued) only through rounding, and
    may stop without it.  Stops when each wanted pair's residual estimate (the
    last block's image off the basis) is within 1e-13 of its Ritz value, or
    when the basis fills the space.
    """
    # a fixed start block keeps reruns bit-identical
    Q = np.linalg.qr(np.random.default_rng(0).standard_normal((n, 2)))[0]
    CQ = op(Q)
    T = Q.T @ CQ  # Q' C Q, grown by its last block rows (eigh reads the lower half)
    while True:
        theta, S = np.linalg.eigh(T)
        theta, S = theta[:-wanted - 1:-1], S[:, :-wanted - 1:-1]
        W = CQ[:, -2:] - Q @ T[-2:].T
        if Q.shape[1] + 2 > n or (len(theta) == wanted and np.all(
                np.linalg.norm(W @ S[-2:], axis=0) <= 1e-13 * theta)):
            return theta, Q @ S
        for _ in range(2):  # the second pass also turns a breakdown's noise into new directions
            W = np.linalg.qr(W - Q @ (Q.T @ W))[0]
        Q, CQ = np.hstack([Q, W]), np.hstack([CQ, op(W)])
        T = np.block([[T, np.zeros((len(T), 2))], [W.T @ CQ]])


def steklov_spectrum(mesh: SurfaceMesh, count: int, want_vectors: bool = False) -> Spectrum:
    """Smallest `count` discrete Steklov eigenvalues with optional boundary traces.

    Shift-invert block Lanczos on the sparse pencil K u = sigma M_b u, run in
    boundary space (see the module docstring).  A `count` close to n_boundary,
    or any pair that misses the residual contract, goes through the dense DtN
    instead; that route is logged at DEBUG.
    """
    b = _boundary_index(mesh)
    n_b = len(b)
    check_count(count, n_b, "boundary degrees of freedom")
    # a cost rule, not basis room (block Lanczos may fill the boundary space):
    # near count = n_boundary the dense route is 3-10x faster
    if 2 * count + 20 > n_b:
        logger.debug("dense DtN: %d pairs of %d boundary DOFs", count, n_b)
        return build_dtn(mesh).spectrum(count, want_vectors=want_vectors)
    mass = boundary_mass_vector(mesh)  # a massless boundary vertex acts as a free one
    K = assemble_stiffness(mesh).tocsc()
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
    theta, y = _block_lanczos(lambda y: h[:, None] * lu.solve(lifted(h[:, None] * y))[b],
                              n_b, count)
    w = PENCIL_SHIFT + 1.0 / theta
    u = lu.solve(lifted(h[:, None] * y)) / theta
    u = u / np.sqrt(np.einsum("ij,i,ij->j", u, mass, u))
    rel = _relative_residuals(K, u, mass, w)
    if np.any(rel > RESIDUAL_RTOL):
        logger.debug("dense DtN: Lanczos residual %.2e", rel.max())
        return build_dtn(mesh).spectrum(count, want_vectors=want_vectors)
    return _contracted(w, rel, mass[b], u[b] if want_vectors else None, b)


__all__ = [
    "assemble_stiffness", "boundary_mass_vector",
    "schur_dtn", "DtnOperator", "build_dtn", "steklov_spectrum",
]
