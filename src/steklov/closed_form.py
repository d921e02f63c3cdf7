"""Exact circle-invariant Steklov spectra on the cylinder and Moebius band.

For the flat cylinder [0, T] x S^1 (metric dt^2 + dtheta^2) separation of
variables gives, per Fourier mode n, the eigenvalue families

    even profile  cosh(n(t - T/2)):  sigma = n tanh(nT/2)   (multiplicity 2)
    odd profile   sinh(n(t - T/2)):  sigma = n coth(nT/2)   (multiplicity 2)
    mode 0 linear profile t - T/2:   sigma = 2/T            (multiplicity 1)

The Moebius band is realized as the quotient of [-T, T] x S^1 by
(t, theta) ~ (-t, theta + pi).  Invariant separated solutions force the
t-profile parity to match the mode parity, leaving

    n even (n >= 2), even profile:  sigma = n tanh(nT)      (multiplicity 2)
    n odd,           odd profile:   sigma = n coth(nT)      (multiplicity 2)

and no linear branch (t is not invariant under the deck map).  These formulas
are validated against the finite-element oracle in the test suite before any
experiment relies on them.  Every branch rises or falls in T, so the supremum
over T of sigma_bar_k = sigma_k L is a branch crossing, solved exactly, or the
T -> infinity limit (`invariant_supremum`).  A spectrum holds at most
MAX_COUNT eigenvalues.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BracketError, InvalidParameterError, SolverError
from .meshes import FlatCylinder, MobiusCylinder, UnitDisk
from .spectra import CLUSTER_RTOL_EXACT, Spectrum, check_count, make_spectrum, zero_band

ROOT_TOL = 1e-14
SQRT3 = math.sqrt(3.0)
CONSTANTS_K_MAX = 10  # all_constants lists T_{k,1} and t_k for k up to this


# ---------------------------------------------------------------------------
# root solving and the transcendental constants
# ---------------------------------------------------------------------------

def solve_bracketed_root(f, a: float, b: float) -> float:
    """Root of f in [a, b]; requires a sign change on the bracket.

    A step-for-step port of scipy's brentq (Brent, *Algorithms for Minimization
    without Derivatives*, 1973, ch. 4; scipy's Zeros/brentq.c) with xtol = ROOT_TOL,
    rtol = 4 eps and at most 200 iterations, so it returns the same float.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = _finite_value(f, xpre), _finite_value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketError(f"no sign change on [{a}, {b}]: f(a)={fpre}, f(b)={fcur}")
    rtol = 4.0 * float(np.finfo(float).eps)  # a numpy scalar would leak into the root
    xblk = fblk = spre = scur = 0.0
    for _ in range(200):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (ROOT_TOL + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # a short enough interpolation step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _finite_value(f, xcur)
    raise SolverError(f"root on [{a}, {b}] not converged in 200 iterations (last {xcur})")


def _finite_value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise SolverError(f"function value at x={x} is NaN")
    return fx


def _coth(t: float) -> float:
    return 1.0 / math.tanh(t) if t else math.inf  # t underflowed to 0: the limit from above


@dataclass(frozen=True)
class Constant:
    name: str
    equation: str
    value: float
    residual: float


@lru_cache(maxsize=None)
def constant_T10() -> Constant:
    """Unique positive solution of t = coth(t), about 1.2."""
    f = lambda t: t - _coth(t)
    root = solve_bracketed_root(f, 1.0, 2.0)
    return Constant("T_{1,0}", "t = coth(t)", root, abs(f(root)))


@lru_cache(maxsize=None)
def constant_Tk1(k: int) -> Constant:
    """Unique positive solution of k tanh(kt) = coth(t); decreasing in k."""
    if k < 2:
        raise InvalidParameterError("T_{k,1} is defined for k >= 2")
    f = lambda t: k * math.tanh(k * t) - _coth(t)
    root = solve_bracketed_root(f, 1e-8, 2.0)
    return Constant(f"T_{{{k},1}}", f"{k} tanh({k} t) = coth(t)", root, abs(f(root)))


@lru_cache(maxsize=None)
def constant_tk(k: int) -> Constant:
    """Unique positive solution of k tanh(kt) = 1.2/t; satisfies k t_k = t_1."""
    if k < 1:
        raise InvalidParameterError("t_k is defined for k >= 1")
    f = lambda t: k * math.tanh(k * t) - 1.2 / t
    root = solve_bracketed_root(f, 1e-8, 3.0)
    c = Constant(f"t_{k}", f"{k} tanh({k} t) = 1.2/t", root, abs(f(root)))
    t1 = root if k == 1 else constant_tk(1).value
    if abs(k * root - t1) > 1e-10:
        raise BracketError(f"identity k*t_k = t_1 violated for k={k}: {k * root} vs {t1}")
    return c


def all_constants() -> list[Constant]:
    out = [constant_T10()]
    out += [constant_Tk1(k) for k in range(2, CONSTANTS_K_MAX + 1)]
    out += [constant_tk(k) for k in range(1, CONSTANTS_K_MAX + 1)]
    return out


# ---------------------------------------------------------------------------
# eigenvalue branches
# ---------------------------------------------------------------------------

EVEN = "even"          # hyperbolic-tangent family, increasing in T
ODD = "odd"            # hyperbolic-cotangent family, decreasing in T
ZERO_LINEAR = "zero-linear"  # mode-0 non-constant branch, 2/T


@dataclass(frozen=True)
class Branch:
    """One Fourier-mode eigenvalue family at unit boundary density."""

    surface: str      # "cylinder" | "mobius"
    mode: int
    kind: str         # EVEN | ODD | ZERO_LINEAR
    multiplicity: int

    def value(self, T: float) -> float:
        if self.kind == ZERO_LINEAR:
            return 2.0 / T
        half = 0.5 if self.surface == "cylinder" else 1.0
        x = self.mode * T * half
        if self.kind == EVEN:
            return self.mode * math.tanh(x)
        return self.mode * _coth(x)

    @property
    def increasing(self) -> bool:
        return self.kind == EVEN

    def limit(self) -> float:
        """Value as T -> infinity."""
        return 0.0 if self.kind == ZERO_LINEAR else float(self.mode)


def cylinder_branches(n_max: int) -> tuple[Branch, ...]:
    out = [Branch("cylinder", 0, ZERO_LINEAR, 1)]
    for n in range(1, n_max + 1):
        out.append(Branch("cylinder", n, EVEN, 2))
        out.append(Branch("cylinder", n, ODD, 2))
    return tuple(out)


def mobius_branches(n_max: int) -> tuple[Branch, ...]:
    out = []
    for n in range(1, n_max + 1):
        if n % 2 == 0:
            out.append(Branch("mobius", n, EVEN, 2))
        else:
            out.append(Branch("mobius", n, ODD, 2))
    return tuple(out)


def _branches(surface: str, n_max: int) -> tuple[Branch, ...]:
    if surface == "cylinder":
        return cylinder_branches(n_max)
    if surface == "mobius":
        return mobius_branches(n_max)
    raise InvalidParameterError(f"unknown surface kind {surface!r}")


def _unit_density_length(surface: str) -> float:
    return 4.0 * math.pi if surface == "cylinder" else 2.0 * math.pi


def _sorted_branch_values(surface: str, T: float, count: int):
    """Smallest `count` nonzero branch eigenvalues at unit density, with sources."""
    n_max = count + 8
    branches = _branches(surface, n_max)
    entries = []
    for br in branches:
        v = br.value(T)
        entries.extend([(v, br)] * br.multiplicity)
    entries.sort(key=lambda e: e[0])
    head = entries[:count]
    # audit the mode cutoff: the selection must not touch the largest modes,
    # whose values only grow with n
    tail_min = min(v for v, br in entries if br.mode >= n_max)
    if head and head[-1][0] >= tail_min:
        raise InvalidParameterError("mode cutoff too small for requested count")
    return head


MAX_COUNT = 1_000_000  # eigenvalues one closed-form spectrum may hold


def _spectrum_from_branches(surface: str, T: float, rho_b: float, count: int) -> Spectrum:
    if T <= 0:
        raise InvalidParameterError("chart height T must be positive")
    if rho_b <= 0:
        raise InvalidParameterError("boundary density must be positive")
    check_count(count, MAX_COUNT, "closed-form budget")
    head = _sorted_branch_values(surface, T, count - 1) if count > 1 else []
    with np.errstate(over="ignore"):
        values = np.array([0.0] + [v for v, _ in head]) / rho_b
    length = _unit_density_length(surface) * rho_b
    if not (np.all(np.isfinite(values)) and math.isfinite(length)):
        raise InvalidParameterError(f"T = {T} and density {rho_b} overflow the spectrum")
    if len(values) > 1 and values[1] <= zero_band(values):  # it would read as 0
        raise InvalidParameterError(f"T = {T} and density {rho_b} put sigma_1 in the zero band")
    return make_spectrum(values, length, cluster_rtol=CLUSTER_RTOL_EXACT)


def cylinder_spectrum(T: float, rho_b: float = 1.0, count: int = 10) -> Spectrum:
    """Smallest `count` Steklov eigenvalues of the flat cylinder, sigma_0 = 0 included."""
    return _spectrum_from_branches("cylinder", T, rho_b, count)


def mobius_spectrum(T: float, rho_b: float = 1.0, count: int = 10) -> Spectrum:
    """Smallest `count` Steklov eigenvalues of the flat Moebius band."""
    return _spectrum_from_branches("mobius", T, rho_b, count)


def disk_spectrum(count: int = 10) -> Spectrum:
    """Classical unit-disk Steklov spectrum 0, 1, 1, 2, 2, ... with L = 2*pi."""
    check_count(count, MAX_COUNT, "closed-form budget")
    values = np.array([(j + 1) // 2 for j in range(count)], dtype=float)
    return make_spectrum(values, 2.0 * math.pi)


def spectrum_for(spec, count: int) -> Spectrum:
    """Closed-form spectrum of a disk, cylinder or Moebius metric description."""
    if isinstance(spec, FlatCylinder):
        return cylinder_spectrum(spec.T, spec.boundary_density, count)
    if isinstance(spec, MobiusCylinder):
        return mobius_spectrum(spec.T, spec.boundary_density, count)
    if isinstance(spec, UnitDisk):
        return disk_spectrum(count)
    raise InvalidParameterError(f"no closed form for {type(spec).__name__}")


def cylinder_sigma2bar_deficit(T: float) -> float:
    """Deficit 4*pi - sigma_bar_2 on the unit-density cylinder, computed stably.

    sigma_2(T) = tanh(T/2) for every T, so the gap equals
    4*pi*(1 - tanh(T/2)) = 8*pi/(exp(T) + 1), positive for all finite T even
    where float64 rounds tanh(T/2) to 1.
    """
    if T <= 0:
        raise InvalidParameterError("chart height T must be positive")
    return 8.0 * math.pi / (math.exp(T) + 1.0)


# ---------------------------------------------------------------------------
# suprema over the invariant family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupremumResult:
    surface: str
    k: int
    value: float          # supremum of sigma_bar_k over T
    maximizer_T: float | None
    achieved: bool


def _limit_sigma_k(surface: str, k: int) -> float:
    """lim_{T->inf} sigma_k(T): sorted limits of the branch values."""
    return sorted(br.limit() for br in _branches(surface, k + 8)
                  for _ in range(br.multiplicity))[k - 1]


def invariant_supremum(surface: str, k: int) -> SupremumResult:
    """sup over T of sigma_bar_k for the circle-invariant family.

    sigma_k(T) is the k-th smallest branch value, and every branch rises or
    falls in T, so where sigma_k is largest a rising and a falling branch
    cross at the k-th value.  At fixed T the tanh and the coth family each
    grow with the mode, and 2/T lies below every n coth(nT/2) (x coth x > 1),
    so the copies below a crossing are the two crossing families' lower modes,
    plus 2/T below a coth branch.  The highest crossing that holds the k-th
    value is the supremum, solved exactly; where none beats the T -> infinity
    limit, the supremum is that limit, reported as not achieved.
    """
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    branches = _branches(surface, k + 8)
    lower, seen = {}, {}  # copies in a branch's family at lower modes
    for br in branches:
        lower[br] = seen.get(br.kind, 0)
        seen[br.kind] = lower[br] + br.multiplicity
    best, T_best = _limit_sigma_k(surface, k), None
    falling = [br for br in branches if not br.increasing]
    copies = [lower[br] for br in falling]  # nondecreasing
    for up in (br for br in branches if br.increasing):
        # the k-th value needs k - 5 <= below < k: a crossing adds 2 + 2 + the linear branch
        lo, hi = (bisect_left(copies, k - lower[up] - j) for j in (5, 0))
        for down in falling[lo:hi]:
            below = lower[up] + lower[down]
            if down.kind == ODD:
                below += seen.get(ZERO_LINEAR, 0)
            if not (below < k <= below + up.multiplicity + down.multiplicity
                    and up.limit() > down.limit()):  # not the k-th value, or no crossing
                continue
            # tanh x < x < coth x puts up below down at T = 1 / (2m); at T = 1e3, up is
            # its limit m in floating point, above down's limit p or 2/T
            T = solve_bracketed_root(lambda T: up.value(T) - down.value(T), 0.5 / up.mode, 1e3)
            if up.value(T) > best:
                best, T_best = up.value(T), T
    length = _unit_density_length(surface)
    return SupremumResult(surface, k, length * best, T_best, T_best is not None)


# ---------------------------------------------------------------------------
# distinguished metrics
# ---------------------------------------------------------------------------

def critical_catenoid_metric() -> FlatCylinder:
    """Flat-cylinder metric with sigma_1 = sigma_2 = sigma_3 = 1 and L = 4*pi/T_{1,0}.

    Height 2*T_{1,0} puts the linear branch 2/T and the mode-1 tangent branch
    at a triple crossing; density 1/T_{1,0} rescales the common value to 1.
    """
    t10 = constant_T10().value
    return FlatCylinder(T=2.0 * t10, boundary_density=1.0 / t10)


def critical_mobius_metric() -> MobiusCylinder:
    """Moebius metric with sigma_1 = 1 and L = 2*pi*sqrt(3).

    At height T_{2,1} the mode-2 tangent and mode-1 cotangent branches cross
    at sqrt(3); density sqrt(3) rescales the crossing value to 1.
    """
    t21 = constant_Tk1(2).value
    return MobiusCylinder(T=t21, boundary_density=SQRT3)
