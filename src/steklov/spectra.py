"""Steklov spectra as plain data: sorted eigenvalues, boundary length, normalized values.

The normalized eigenvalue sigma_bar_k = sigma_k * L is the homothety-invariant
quantity all experiments compare; multiplicity clusters group eigenvalues that
agree to a relative tolerance (1e-9 for closed forms, 1e-3 for FEM output).
`spectrum_rows` gives a spectrum's report rows; `experiments` writes them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError

CLUSTER_RTOL_EXACT = 1e-9
CLUSTER_RTOL_FEM = 1e-3


def check_count(count: int, limit: int, what: str) -> None:
    """Refuse an eigenvalue count outside [1, limit]; `what` names the limit."""
    if not 1 <= count <= limit:
        raise InvalidParameterError(f"count must lie in [1, {limit}] ({what})")


def zero_band(values: np.ndarray) -> float:
    """Eigenvalues this close to zero, of either sign, are constant modes (solver noise)."""
    return 1e-8 * (abs(values[1]) if values.size > 1 else 0.0) + 1e-12


def cluster_indices(values: np.ndarray, rtol: float) -> tuple[tuple[int, ...], ...]:
    """Group sorted eigenvalues into clusters of relative width rtol."""
    clusters: list[list[int]] = []
    for i, v in enumerate(values):
        if clusters:
            anchor = values[clusters[-1][0]]
            scale = max(abs(anchor), abs(v), 1e-30)
            if abs(v - anchor) <= rtol * scale + 1e-12:
                clusters[-1].append(i)
                continue
        clusters.append([i])
    return tuple(tuple(c) for c in clusters)


@dataclass(frozen=True)
class Spectrum:
    """Sorted Steklov eigenvalues of one surface (or a disjoint union)."""

    eigenvalues: np.ndarray
    boundary_length: float
    normalized: np.ndarray
    clusters: tuple[tuple[int, ...], ...]
    cluster_rtol: float
    eigenvectors: np.ndarray | None = None   # boundary traces, shape (n_boundary, count)
    boundary_index: np.ndarray | None = None  # logical vertex ids of the trace rows

    def sigma_bar(self, k: int) -> float:
        return float(self.normalized[k])

    def drop_vectors(self) -> "Spectrum":
        return replace(self, eigenvectors=None, boundary_index=None)


def make_spectrum(values, boundary_length, cluster_rtol=CLUSTER_RTOL_EXACT,
                  eigenvectors=None, boundary_index=None) -> Spectrum:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise InvalidParameterError("spectrum needs at least one eigenvalue")
    if np.any(np.diff(values) < -1e-12 * (1.0 + np.abs(values[:-1]))):
        raise InvalidParameterError("eigenvalues must be sorted ascending")
    if boundary_length < 0:
        raise InvalidParameterError("boundary length must be nonnegative")
    values = values.copy()
    band = zero_band(values)
    if values[0] < -band:
        raise InvalidParameterError(f"leading eigenvalue {values[0]} below tolerance")
    values[np.abs(values) <= band] = 0.0
    values.flags.writeable = False
    normalized = values * boundary_length
    normalized.flags.writeable = False
    return Spectrum(
        eigenvalues=values,
        boundary_length=float(boundary_length),
        normalized=normalized,
        clusters=cluster_indices(values, cluster_rtol),
        cluster_rtol=cluster_rtol,
        eigenvectors=eigenvectors,
        boundary_index=boundary_index,
    )


def merge_spectra(parts: list[Spectrum] | tuple[Spectrum, ...]) -> Spectrum:
    """Spectrum of a disjoint union: sorted multiset union, boundary lengths add."""
    if not parts:
        raise InvalidParameterError("merge_spectra needs at least one spectrum")
    values = np.sort(np.concatenate([p.eigenvalues for p in parts]))
    length = float(sum(p.boundary_length for p in parts))
    rtol = min(p.cluster_rtol for p in parts)
    if values.size == 0:
        # only possible when every part is the neutral element
        return parts[0]
    return make_spectrum(values, length, cluster_rtol=rtol)


def _make_empty() -> Spectrum:
    z = np.zeros(0)
    z.flags.writeable = False
    return Spectrum(eigenvalues=z, boundary_length=0.0, normalized=z,
                    clusters=(), cluster_rtol=CLUSTER_RTOL_EXACT)


EMPTY = _make_empty()  # the neutral element for merge_spectra


def spectrum_rows(spec: Spectrum) -> list[dict]:
    multiplicity = [len(c) for c in spec.clusters for _ in c]  # clusters run in k order
    return [{"k": k, "sigma": float(spec.eigenvalues[k]),
             "sigma_bar": float(spec.normalized[k]), "multiplicity": multiplicity[k]}
            for k in range(spec.eigenvalues.size)]
