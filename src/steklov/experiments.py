"""Numerical experiments: degeneration sweeps, sharpness chains, eigenvalue
bound checks on random metrics, cutoff-energy quadrature, and the comparison
of glued limits against circle-invariant suprema.  A sweep refuses every
usage error before it meshes anything; a gluing that fails at one rho is a
failed row.  `write_json` and `write_csv` write every report file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import closed_form as cf
from .dtn import _boundary_index, assemble_stiffness, build_dtn, steklov_spectrum
from .errors import InvalidParameterError, ResolutionError, SteklovError
from .gluing import (BOUNDARY_NECK, INTERIOR_NECK, Attachment, GluedFamily,
                     build_glued_mesh)
from .meshes import (FlatCylinder, SurfaceMesh, UnitDisk, boundary_edge_lengths,
                     build_disk_mesh, build_log_annulus_mesh, build_spec_mesh,
                     with_conformal_factor)
from .spectra import Spectrum, merge_spectra

TWO_PI = 2.0 * math.pi
LIMIT_COUNT = 40         # eigenvalues per part of a glued limit
DENSITY_MODES = 6        # Fourier modes of a random log-density in bound_check
DENSITY_AMPLITUDE = 0.3  # bound on each mode's coefficients
BOUND_SLACK = 0.02       # discretization slack of bound_check's verdict
CUTOFF_R0 = 0.5          # cutoff_energy_law refuses sqrt(rho) above this radius
CUTOFF_RESOLUTION = 0.05  # log-step and angle step of cutoff_energy_law's annulus


# ---------------------------------------------------------------------------
# chain layouts
# ---------------------------------------------------------------------------

def _interior_point(spec, side: int) -> tuple[float, float]:
    """Where an interior neck lands: the disk's centre or 0.35 right (side 1) or left
    (-1) of it; a grid chart's mid-height at theta pi or pi/2 right or left of it."""
    if isinstance(spec, UnitDisk):
        return (0.35 * side, 0.0)
    return (math.pi + side * 0.5 * math.pi, 0.5 * spec.T)


def chain_family(components, rho: float, neck_kind: str = BOUNDARY_NECK) -> GluedFamily:
    """Linear chain: neck i joins component i to component i+1 at antipodal points.

    Boundary necks land on loop 0 at chart angles pi/2 (right) and 3*pi/2
    (left), away from the angle-0 seam so the refined arcs never wrap it.
    Interior necks land at `_interior_point`: side 0 for one link, else 1 and -1.
    """
    components = tuple(components)
    if len(components) < 2:
        raise InvalidParameterError("a chain needs at least two components")
    right, left = (0, 0) if len(components) == 2 else (1, -1)
    pairs = []
    for i in range(len(components) - 1):
        if neck_kind == BOUNDARY_NECK:
            pairs.append((Attachment(i, theta=0.5 * math.pi),
                          Attachment(i + 1, theta=1.5 * math.pi)))
        else:
            pairs.append((Attachment(i, point=_interior_point(components[i], right)),
                          Attachment(i + 1, point=_interior_point(components[i + 1], left))))
    return GluedFamily(components, rho, tuple(pairs), neck_kind)


def annulus_self_glued(T: float, rho: float) -> GluedFamily:
    """One flat cylinder glued to itself near two interior points (genus +1)."""
    spec = FlatCylinder(T)
    return GluedFamily((spec,), rho, ((Attachment(0, point=_interior_point(spec, -1)),
                                       Attachment(0, point=_interior_point(spec, 1))),),
                       INTERIOR_NECK)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    rho: float
    spectrum: Spectrum | None
    eigenvalue_errors: tuple[float, ...] | None  # |sigma_j(M_rho) - sigma_j(target)|, j <= k
    neck_fractions: tuple[float, ...] | None     # boundary L^2 mass on the neck, j = 0..k
    failure: str | None = None


@dataclass(frozen=True)
class SweepResult:
    k: int
    target: Spectrum
    rows: tuple[SweepRow, ...]


def _neck_fractions(mesh: SurfaceMesh, spectrum: Spectrum, j_max: int) -> tuple[float, ...]:
    """Share of each eigenfunction's boundary L^2 norm carried by the neck sides."""
    lengths = boundary_edge_lengths(mesh)
    uv = mesh.logical[mesh.boundary_edge_chart]
    pos = -np.ones(mesh.n_logical, dtype=np.int64)
    pos[spectrum.boundary_index] = np.arange(len(spectrum.boundary_index))
    ua = spectrum.eigenvectors[pos[uv[:, 0]]]
    ub = spectrum.eigenvectors[pos[uv[:, 1]]]
    per_edge = lengths[:, None] * 0.5 * (ua ** 2 + ub ** 2)
    on_neck = np.isin(uv, mesh.neck_boundary).all(axis=1)
    total = per_edge.sum(axis=0)
    fractions = per_edge[on_neck].sum(axis=0) / total
    return tuple(float(f) for f in fractions[:j_max + 1])


def _component_target(components, resolution: float, count: int) -> Spectrum:
    solved: dict = {}  # equal specs mesh to equal meshes: solve each once
    for spec in components:
        if spec not in solved:
            mesh = build_spec_mesh(spec, resolution).mesh
            solved[spec] = steklov_spectrum(mesh, count)
    return merge_spectra([solved[spec] for spec in components])


def _run_sweep(components, k: int, rho_list, resolution: float,
               neck_kind: str) -> SweepResult:
    """Every usage error is refused here, before the target is solved."""
    components, rho_list = tuple(components), tuple(float(r) for r in rho_list)
    if not all(math.isfinite(rho) and rho > 0 for rho in rho_list):
        raise InvalidParameterError("every rho must be a positive finite number")
    if any(b >= a for a, b in zip(rho_list, rho_list[1:])):
        raise InvalidParameterError("the rho list must be strictly decreasing")
    if len(components) > 1:
        family_at = lambda rho: chain_family(components, rho, neck_kind)
    elif (len(components) == 1 and neck_kind == INTERIOR_NECK
          and isinstance(components[0], FlatCylinder)):
        family_at = lambda rho: annulus_self_glued(components[0].T, rho)
    else:
        raise InvalidParameterError("a sweep needs two components, or one flat cylinder "
                                    "glued to itself by an interior neck")
    count = max(k + 3, 6)
    target = _component_target(components, resolution, count)
    traced = neck_kind == BOUNDARY_NECK  # neck fractions need the boundary traces
    rows = []
    for rho in rho_list:
        try:
            mesh = build_glued_mesh(family_at(rho), resolution)
            spec = steklov_spectrum(mesh, count, want_vectors=traced)
            errors = tuple(float(abs(spec.eigenvalues[j] - target.eigenvalues[j]))
                           for j in range(k + 1))
            fractions = _neck_fractions(mesh, spec, k) if traced else None
            rows.append(SweepRow(rho, spec.drop_vectors(), errors, fractions))
        except SteklovError as exc:  # recorded, sweep continues
            rows.append(SweepRow(rho, None, None, None,
                                 failure=f"{type(exc).__name__}: {exc}"))
    return SweepResult(k, target, tuple(rows))


def glue_sweep(components, k: int, rho_list, resolution: float) -> SweepResult:
    """Boundary-neck degeneration toward the disjoint union of the components."""
    return _run_sweep(components, k, rho_list, resolution, BOUNDARY_NECK)


def interior_glue_sweep(components, k: int, rho_list, resolution: float) -> SweepResult:
    """Interior-neck degeneration; the boundary is untouched at every rho."""
    return _run_sweep(components, k, rho_list, resolution, INTERIOR_NECK)


def touching_disks_sharpness(k: int, rho: float, resolution: float) -> float:
    """sigma_bar_k of a chain of k unit disks with necks of size rho."""
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    if k == 1:
        mesh = build_disk_mesh(resolution)
        return steklov_spectrum(mesh, 2).sigma_bar(1)
    family = chain_family([UnitDisk()] * k, rho)
    mesh = build_glued_mesh(family, resolution)
    return steklov_spectrum(mesh, k + 2).sigma_bar(k)


# ---------------------------------------------------------------------------
# glued limits vs circle-invariant suprema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonRecord:
    surface_kind: str          # "annulus" | "mobius"
    k: int
    glued_limit: float         # sigma_bar_k of the critical surface + (k-1) disks
    invariant_supremum: float
    margin: float
    verdict: str
    chain_check: dict = field(default_factory=dict)


def glued_limit_spectrum(surface_kind: str, k: int) -> Spectrum:
    """Closed-form spectrum of (critical surface) + (k-1) unit disks, disjoint, of
    LIMIT_COUNT eigenvalues each: refused above MAX_COUNT before any is built."""
    if LIMIT_COUNT * k > cf.MAX_COUNT:
        raise InvalidParameterError(f"k = {k} needs {LIMIT_COUNT * k} eigenvalues, above "
                                    f"the closed-form budget of {cf.MAX_COUNT}")
    if surface_kind == "annulus":
        head = cf.spectrum_for(cf.critical_catenoid_metric(), LIMIT_COUNT)
    elif surface_kind == "mobius":
        head = cf.spectrum_for(cf.critical_mobius_metric(), LIMIT_COUNT)
    else:
        raise InvalidParameterError("surface kind must be 'annulus' or 'mobius'")
    parts = [head] + [cf.disk_spectrum(LIMIT_COUNT) for _ in range(k - 1)]
    return merge_spectra(parts)


def noninvariant_comparison(surface_kind: str, k: int) -> ComparisonRecord:
    """Margin of the glued-configuration limit over the invariant supremum (k >= 2)."""
    if k < 2:
        raise InvalidParameterError("the comparison is about k >= 2")
    limit = glued_limit_spectrum(surface_kind, k).sigma_bar(k)
    surface = "cylinder" if surface_kind == "annulus" else "mobius"
    sup = cf.invariant_supremum(surface, k)
    margin = limit - sup.value
    chain: dict = {}
    if surface_kind == "mobius" and k % 2 == 1:
        # odd k = 2l-1: the supremum is squeezed under 2*pi*l*1.77 through t_k
        ell = (k + 1) // 2
        t1 = cf.constant_tk(1).value
        bound = 4.0 * math.pi * ell * 1.2 / t1
        chain = {
            "l": ell,
            "sup": sup.value,
            "tk_bound": bound,
            "coarse_bound": 2.0 * math.pi * ell * 1.77,
            "limit_side": 2.0 * math.pi * (2 * ell + math.sqrt(3.0) - 2.0),
            "holds": bool(sup.value < bound < 2.0 * math.pi * ell * 1.77
                          < 2.0 * math.pi * (2 * ell + math.sqrt(3.0) - 2.0)),
        }
    return ComparisonRecord(
        surface_kind=surface_kind, k=k, glued_limit=limit,
        invariant_supremum=sup.value, margin=margin,
        verdict="pass" if margin > 0 else "fail", chain_check=chain)


# ---------------------------------------------------------------------------
# eigenvalue-bound property checks on random metrics
# ---------------------------------------------------------------------------

def _random_log_density(rng: np.random.Generator, angles: np.ndarray) -> np.ndarray:
    a = rng.uniform(-DENSITY_AMPLITUDE, DENSITY_AMPLITUDE, size=DENSITY_MODES)
    b = rng.uniform(-DENSITY_AMPLITUDE, DENSITY_AMPLITUDE, size=DENSITY_MODES)
    log_lam = np.zeros_like(angles)
    for m in range(1, DENSITY_MODES + 1):
        log_lam += a[m - 1] * np.cos(m * angles) + b[m - 1] * np.sin(m * angles)
    return np.exp(log_lam)


def bound_check(kind: str, trials: int, seed: int, k_max: int = 5,
                resolution: float | None = None) -> dict:
    """Seeded random-metric sweep against the normalized-eigenvalue upper bound.

    kind 'hps-disk': sigma_bar_k <= 2*pi*k on the disk; 'karpukhin-annulus':
    sigma_bar_k <= 2*pi*(k+1) on the cylinder.  Reports worst ratios; the
    verdict allows BOUND_SLACK.  Resolution None means 0.03 (disk), 0.045 (cylinder).
    """
    if trials < 1 or k_max < 1:
        raise InvalidParameterError("trials and k_max must be >= 1")
    if seed < 0:
        raise InvalidParameterError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    if kind == "hps-disk":
        mesh = build_disk_mesh(0.03 if resolution is None else resolution)
        b_idx = _require_pairs(k_max, mesh)
        op = build_dtn(mesh)
        chart_of = _chart_representatives(mesh, b_idx)
        angles = np.arctan2(mesh.vertices[chart_of, 1], mesh.vertices[chart_of, 0])
        bound = lambda k: TWO_PI * k
    elif kind == "karpukhin-annulus":
        bound = lambda k: TWO_PI * (k + 1)
    else:
        raise InvalidParameterError("kind must be 'hps-disk' or 'karpukhin-annulus'")
    rows = []
    for trial in range(trials):
        row = {"trial": trial}
        if kind == "karpukhin-annulus":  # a cylinder of random height per trial
            row["T"] = float(rng.uniform(0.6, 3.0))
            mesh = build_spec_mesh(FlatCylinder(row["T"]),
                                   0.045 if resolution is None else resolution).mesh
            b_idx = _require_pairs(k_max, mesh)
            angles = mesh.vertices[_chart_representatives(mesh, b_idx), 0]  # chart x is theta
        lam = np.ones(mesh.n_logical)
        lam[b_idx] = _random_log_density(rng, angles)
        try:
            # the disk reuses its dense operator; a cylinder is solved once, on the
            # sparse pencil
            spec = (op.spectrum(k_max + 1, conformal=lam) if kind == "hps-disk"
                    else steklov_spectrum(with_conformal_factor(mesh, lam), k_max + 1))
            ratios = [spec.sigma_bar(k) / bound(k) for k in range(1, k_max + 1)]
            row.update(ratios=ratios, worst=max(ratios))
        except SteklovError as exc:
            row["failure"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    worst = max((r["worst"] for r in rows if "worst" in r), default=math.nan)
    ok = all("worst" in r and r["worst"] <= 1.0 + BOUND_SLACK for r in rows)
    return {"kind": kind, "trials": trials, "seed": seed, "k_max": k_max,
            "slack": BOUND_SLACK, "rows": rows, "worst_ratio": worst,
            "verdict": "pass" if ok else "fail"}


def _require_pairs(k_max: int, mesh: SurfaceMesh) -> np.ndarray:
    """The mesh's boundary vertices, refused unless they carry k_max + 1 eigenpairs."""
    b_idx = _boundary_index(mesh)
    if k_max + 1 > len(b_idx):
        raise InvalidParameterError(f"k_max + 1 = {k_max + 1} exceeds the mesh's "
                                    f"{len(b_idx)} boundary degrees of freedom")
    return b_idx


def _chart_representatives(mesh: SurfaceMesh, logical_ids: np.ndarray) -> np.ndarray:
    rep = np.zeros(mesh.n_logical, dtype=np.int64)
    rep[mesh.logical[::-1]] = np.arange(mesh.n_chart - 1, -1, -1)
    return rep[logical_ids]


# ---------------------------------------------------------------------------
# logarithmic cutoff energy
# ---------------------------------------------------------------------------

def cutoff_energy_law(rho_list) -> dict:
    """P1 quadrature of the transition-annulus energy of the log cutoff.

    The cutoff (log r - log rho)/log(1/sqrt(rho)) rises from 0 at r=rho to 1
    at r=sqrt(rho); its exact Dirichlet energy is 2*pi/log(1/sqrt(rho)).
    """
    rows = []
    for rho in rho_list:
        if not 0 < rho < 1:
            raise InvalidParameterError("rho must lie in (0, 1)")
        r_in, r_out = rho, math.sqrt(rho)
        if r_out > CUTOFF_R0:
            raise InvalidParameterError(f"need sqrt(rho) <= {CUTOFF_R0}")
        n_ang = max(16, int(round(TWO_PI / CUTOFF_RESOLUTION)))
        n_rad = max(8, int(round(math.log(r_out / r_in) / CUTOFF_RESOLUTION)))
        mesh = build_log_annulus_mesh(r_in, r_out, n_rad, n_ang)
        K = assemble_stiffness(mesh)
        r = np.linalg.norm(mesh.vertices, axis=1)
        phi = (np.log(r) - math.log(rho)) / math.log(1.0 / r_out)
        phi_log = np.zeros(mesh.n_logical)
        phi_log[mesh.logical] = phi
        energy = float(phi_log @ (K @ phi_log))
        exact = TWO_PI / math.log(1.0 / r_out)
        ratio = energy / exact
        if abs(ratio - 1.0) > 0.02:
            raise ResolutionError(
                f"cutoff energy off by {abs(ratio - 1):.1%} at rho={rho}; refine the mesh")
        rows.append({"rho": rho, "energy": energy, "exact": exact, "ratio": ratio})
    energies = [row["energy"] for row in rows]
    monotone = all(b < a for a, b in zip(energies, energies[1:]))
    return {"rows": rows, "monotone_decreasing": monotone}


def neck_mass_diagnostic(sweep: SweepResult, k: int) -> dict:
    """Per-rho neck boundary-mass fractions of the first k+1 eigenfunctions."""
    for row in sweep.rows:
        if row.failure is None and row.neck_fractions is None:
            raise InvalidParameterError("sweep was run without eigenvector recording")
    table = {j: [row.neck_fractions[j] for row in sweep.rows if row.failure is None]
             for j in range(k + 1)}
    decreasing = {j: bool(vals[-1] <= vals[0] and vals[-1] <= vals[-2])
                  for j, vals in table.items() if len(vals) >= 2}
    return {"fractions": table, "decreasing": decreasing}


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

def _params_hash(params: dict) -> str:
    canon = json.dumps(params, sort_keys=True, default=str).encode()
    return hashlib.sha1(canon).hexdigest()[:10]


def write_json(path: str, payload) -> None:
    """JSON with sorted keys; a value JSON cannot encode is written as its repr."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, default=repr)
        fh.write("\n")


def write_csv(path: str, rows: list[dict]) -> None:
    """One line per row; columns in first-seen key order, floats as their repr."""
    keys = list(dict.fromkeys(key for row in rows for key in row))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys, lineterminator="\n")
        writer.writeheader()
        writer.writerows({key: repr(v) if isinstance(v, float) else v
                          for key, v in row.items()} for row in rows)


def write_report(outdir, experiment: str, params: dict, rows: list, verdict: str) -> dict:
    """JSON report plus a CSV of the raw rows; names derive from a parameter hash."""
    os.makedirs(outdir, exist_ok=True)
    stem = os.path.join(outdir, f"{experiment}-{_params_hash(params)}")
    paths = {"json": stem + ".json", "csv": stem + ".csv"}
    write_json(paths["json"], {"experiment": experiment, "params": params, "rows": rows,
                               "verdict": verdict})
    write_csv(paths["csv"], rows)
    return paths
