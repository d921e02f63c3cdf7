"""Acceptance suite: every release-gating check, runnable from tests or the CLI.

Each criterion function returns (passed, details); the runner times them and
prints one line per criterion.  Tolerances are fixed here, not configurable.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import closed_form as cf
from . import experiments as ex
from .dtn import build_dtn, steklov_spectrum
from .errors import SteklovError
from .meshes import (FlatCylinder, UnitDisk, build_disk_mesh, build_mobius_mesh,
                     build_spec_mesh)
from .spectra import merge_spectra

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi

# ~2e4 chart vertices for the oracle-equivalence runs
RES_DISK_FINE = math.sqrt(math.pi / 2.0e4)
BOUNDS_SEED = 20240811  # criterion 11's seed, the default of `steklov bounds --seed`


def _res_rect(T: float) -> float:
    return math.sqrt(TWO_PI * T / 2.0e4)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    seconds: float
    details: dict

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.index:2d} — {self.name} ({self.seconds:.1f}s)"


def _c1_constants():
    t10 = cf.constant_T10()
    checks = {
        "t10_residual": t10.residual,
        "t10_in_window": 1.19 < t10.value < 1.21,
        "t10_ok": t10.residual <= 1e-12,
    }
    t21 = cf.constant_Tk1(2)
    exact = math.log(2.0 + math.sqrt(3.0)) / 2.0
    checks["t21_matches_log_form"] = abs(t21.value - exact) <= 1e-12
    checks["t21_coth_sqrt3"] = abs(1.0 / math.tanh(t21.value) - math.sqrt(3.0)) <= 1e-10
    t1 = cf.constant_tk(1).value
    checks["t1_above_1.36"] = t1 > 1.36
    worst = max(abs(k * cf.constant_tk(k).value - t1) for k in range(1, 11))
    checks["ktk_identity"] = worst <= 1e-10
    checks["ktk_worst"] = worst
    passed = all(v for key, v in checks.items() if isinstance(v, (bool, np.bool_)))
    return passed and checks["t10_ok"], checks


def _c2_cylinder_suprema():
    t10 = cf.constant_T10().value
    details = {}
    ok = True
    for k in range(1, 6):
        got = cf.invariant_supremum("cylinder", 2 * k - 1)
        want = 4.0 * k * math.pi / t10
        details[f"odd_k{k}"] = (got.value, want)
        ok &= got.achieved and abs(got.value - want) <= 1e-9
    for k in range(2, 6):
        tk1 = cf.constant_Tk1(k).value
        got = cf.invariant_supremum("cylinder", 2 * k)
        want = 4.0 * k * math.pi * math.tanh(k * tk1)
        details[f"even_k{k}"] = (got.value, want)
        ok &= got.achieved and abs(got.value - want) <= 1e-9
    sup2 = cf.invariant_supremum("cylinder", 2)
    details["k2"] = (sup2.value, sup2.achieved)
    ok &= (not sup2.achieved) and abs(sup2.value - FOUR_PI) <= 1e-9
    gap = cf.cylinder_sigma2bar_deficit(50.0)
    details["sigma2bar_gap_T50"] = gap
    ok &= 0.0 < gap <= 1e-3
    return ok, details


def _c3_mobius_suprema():
    details = {}
    ok = True
    for k in range(1, 6):
        t2k1 = cf.constant_Tk1(2 * k).value
        want = 4.0 * math.pi * k * math.tanh(2.0 * k * t2k1)
        odd = cf.invariant_supremum("mobius", 2 * k - 1)
        even = cf.invariant_supremum("mobius", 2 * k)
        details[f"k{k}"] = (odd.value, even.value, want)
        ok &= odd.achieved and even.achieved
        ok &= abs(odd.value - want) <= 1e-9 and abs(even.value - want) <= 1e-9
    want1 = 2.0 * math.pi * math.sqrt(3.0)
    ok &= abs(cf.invariant_supremum("mobius", 1).value - want1) <= 1e-9
    details["k1_exact"] = want1
    return ok, details


def _relative_match(values, reference, rtol):
    values = np.asarray(values)
    reference = np.asarray(reference)
    scale = np.maximum(np.abs(reference), 1e-6)
    return np.max(np.abs(values - reference) / scale), \
        bool(np.all(np.abs(values - reference) <= rtol * scale))


def _c4_oracle_equivalence():
    details = {}
    ok = True
    spec = steklov_spectrum(build_disk_mesh(RES_DISK_FINE), 7)
    worst, match = _relative_match(spec.eigenvalues, [0, 1, 1, 2, 2, 3, 3], 5e-3)
    details["disk"] = worst
    ok &= match
    for T in (0.5, 1.0, 2.0, 5.0):
        mesh = build_spec_mesh(FlatCylinder(T), _res_rect(T)).mesh
        fem = steklov_spectrum(mesh, 8)
        exact = cf.cylinder_spectrum(T, count=8)
        worst, match = _relative_match(fem.eigenvalues, exact.eigenvalues, 5e-3)
        details[f"cylinder_T{T}"] = worst
        ok &= match
    t21 = cf.constant_Tk1(2).value
    for T in (0.5, t21, 2.0):
        mesh = build_mobius_mesh(T, _res_rect(T))
        fem = steklov_spectrum(mesh, 6)
        exact = cf.mobius_spectrum(T, count=6)
        worst, match = _relative_match(fem.eigenvalues, exact.eigenvalues, 5e-3)
        details[f"mobius_T{T:.4f}"] = worst
        ok &= match
    return ok, details


def _c5_critical_catenoid():
    spec = cf.critical_catenoid_metric()
    closed = cf.spectrum_for(spec, 5)
    triple = closed.eigenvalues[1:4]
    ok = bool(np.all(np.abs(triple - 1.0) <= 1e-9))
    ok &= closed.eigenvalues[4] > 1.0
    details = {"closed_triple": [float(v) for v in triple],
               "closed_sigma4": float(closed.eigenvalues[4])}
    mesh = build_spec_mesh(spec, _res_rect(spec.T)).mesh
    fem = steklov_spectrum(mesh, 5)
    worst = float(np.max(np.abs(fem.eigenvalues[1:4] - 1.0)))
    details["fem_triple_error"] = worst
    ok &= worst <= 5e-3
    return ok, details


def _c6_boundary_sweep():
    sweep = ex.glue_sweep([UnitDisk(), UnitDisk()], k=2,
                          rho_list=(0.2, 0.1, 0.05, 0.025), resolution=0.03)
    errs, lengths = [], []
    for row in sweep.rows:
        if row.failure:
            return False, {"failure": row.failure}
        errs.append(abs(row.spectrum.sigma_bar(2) - FOUR_PI) / FOUR_PI)
        lengths.append(abs(row.spectrum.boundary_length - FOUR_PI) / FOUR_PI)
    details = {"sigma_bar2_rel_errors": errs, "length_rel_errors": lengths}
    ok = errs[-1] <= 0.05 and errs[-1] <= errs[-2] <= errs[-3]
    ok &= max(lengths) <= 0.02
    return ok, details


def _c7_interior_sweep():
    rho_list = (1e-2, 1e-4, 1e-6, 1e-9)
    sweep = ex.interior_glue_sweep([UnitDisk(), UnitDisk()], k=3,
                                   rho_list=rho_list, resolution=0.03)
    details = {"rho_list": list(rho_list)}
    last = sweep.rows[-1]
    if last.failure:
        return False, {"failure": last.failure}
    # scale-referenced error: targets 0, 0, 1, 1 share the unit eigenvalue scale
    scale = float(sweep.target.eigenvalues[3])
    errors = [e / scale for e in last.eigenvalue_errors[1:]]
    lengths = [abs(row.spectrum.boundary_length - FOUR_PI) / FOUR_PI
               for row in sweep.rows if row.failure is None]
    details["final_errors_j1_j3"] = errors
    details["length_rel_errors"] = lengths
    ok = max(errors) <= 0.05 and max(lengths) <= 1e-3
    return ok, details


def _c8_sharpness():
    details = {}
    ok = True
    for k, res in ((2, 0.03), (3, 0.035)):
        val = ex.touching_disks_sharpness(k, rho=0.025, resolution=res)
        details[f"k{k}"] = val
        ok &= 0.95 * TWO_PI * k < val < 1.02 * TWO_PI * k
    weinstock = ex.touching_disks_sharpness(1, rho=0.0, resolution=0.02)
    details["round_disk"] = weinstock
    ok &= abs(weinstock - TWO_PI) <= 5e-3 * TWO_PI
    return ok, details


def _c9_comparisons():
    details = {}
    ok = True
    t10 = cf.constant_T10().value
    for surface in ("annulus", "mobius"):
        for k in range(2, 11):
            rec = ex.noninvariant_comparison(surface, k)
            ok &= rec.margin > 0
            if rec.chain_check:
                ok &= rec.chain_check["holds"]
        details[f"{surface}_margins"] = [
            ex.noninvariant_comparison(surface, k).margin for k in (2, 4, 10)]
    ann2 = ex.noninvariant_comparison("annulus", 2)
    ok &= abs(ann2.glued_limit - (FOUR_PI / t10 + TWO_PI)) <= 1e-9
    ok &= abs(ann2.invariant_supremum - FOUR_PI) <= 1e-9
    mob2 = ex.noninvariant_comparison("mobius", 2)
    want = 2.0 * math.pi * math.sqrt(3.0)
    ok &= abs(mob2.glued_limit - (want + TWO_PI)) <= 1e-9
    ok &= abs(mob2.invariant_supremum - want) <= 1e-9
    details["annulus_k2"] = (ann2.glued_limit, ann2.invariant_supremum)
    details["mobius_k2"] = (mob2.glued_limit, mob2.invariant_supremum)
    return ok, details


def _c10_cutoff_energy():
    table = ex.cutoff_energy_law((1e-4, 1e-5, 1e-6))
    ratios = [row["ratio"] for row in table["rows"]]
    ok = all(abs(r - 1.0) <= 0.02 for r in ratios) and table["monotone_decreasing"]
    return ok, {"ratios": ratios, "monotone": table["monotone_decreasing"]}


def _c11_bound_properties():
    disk = ex.bound_check("hps-disk", trials=50, seed=BOUNDS_SEED, k_max=5)
    annulus = ex.bound_check("karpukhin-annulus", trials=20, seed=BOUNDS_SEED + 1, k_max=5)
    ok = disk["verdict"] == "pass" and annulus["verdict"] == "pass"
    return ok, {"disk_worst": disk["worst_ratio"], "annulus_worst": annulus["worst_ratio"]}


def _c12_invariants():
    details = {}
    ok = True

    mesh = build_disk_mesh(0.06)
    op = build_dtn(mesh)
    base = op.spectrum(6)
    lam = np.ones(mesh.n_logical)  # the disk's own factor
    on_boundary = np.zeros(mesh.n_logical, dtype=bool)
    on_boundary[op.boundary_index] = True
    lam[~on_boundary] *= 3.0
    blind = op.spectrum(6, conformal=lam)
    details["conformal_blindness_bitwise"] = bool(
        np.array_equal(base.eigenvalues, blind.eigenvalues))
    ok &= details["conformal_blindness_bitwise"]

    c = 1.7
    scaled = op.spectrum(6, conformal=np.full(mesh.n_logical, c))
    rel = np.max(np.abs(scaled.normalized - base.normalized)
                 / np.maximum(np.abs(base.normalized), 1e-12))
    details["homothety_sigma_bar_rel"] = float(rel)
    ok &= rel <= 1e-10

    a = cf.cylinder_spectrum(1.0, count=5)
    b = cf.disk_spectrum(4)
    m1 = merge_spectra([merge_spectra([a, b]), a])
    m2 = merge_spectra([a, merge_spectra([b, a])])
    m3 = merge_spectra([a, merge_spectra([a, b])])
    from .spectra import EMPTY
    ident = merge_spectra([a, EMPTY])
    details["merge_associative"] = bool(np.array_equal(m1.eigenvalues, m2.eigenvalues))
    details["merge_commutative"] = bool(np.array_equal(m2.eigenvalues, m3.eigenvalues))
    details["merge_neutral"] = bool(np.array_equal(ident.eigenvalues, a.eigenvalues)
                                    and ident.boundary_length == a.boundary_length)
    ok &= details["merge_associative"] and details["merge_commutative"] and details["merge_neutral"]

    for name, m in (("disk", mesh),
                    ("cylinder", build_spec_mesh(FlatCylinder(1.0), 0.08).mesh),
                    ("mobius", build_mobius_mesh(1.0, 0.08))):
        o = build_dtn(m)
        sym = float(np.max(np.abs(o.matrix - o.matrix.T)))
        const = float(np.max(np.abs(o.matrix @ np.ones(len(o.boundary_index)))))
        eigs = np.linalg.eigvalsh(o.matrix)
        scale = float(np.max(np.abs(o.matrix)))
        details[f"dtn_{name}"] = {"sym": sym, "const": const, "min_eig": float(eigs[0])}
        ok &= sym <= 1e-12 * scale + 1e-14
        ok &= const <= 1e-10 * scale * len(o.boundary_index)
        ok &= eigs[0] >= -1e-9 * scale

    import filecmp
    import os
    import subprocess
    import sys
    import tempfile
    # the child imports this same package, however the caller found it
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        cmd = [sys.executable, "-m", "steklov.cli", "spectrum", "--surface", "cylinder",
               "--T", "1.0", "--count", "6", "--method", "closed-form"]
        r1 = subprocess.run(cmd + ["--out", tmp + "/a"], capture_output=True, env=env)
        r2 = subprocess.run(cmd + ["--out", tmp + "/b"], capture_output=True, env=env)
        same = r1.returncode == 0 and r2.returncode == 0
        if same:
            names = sorted(os.listdir(tmp + "/a"))
            same = names == sorted(os.listdir(tmp + "/b")) and all(
                filecmp.cmp(f"{tmp}/a/{n}", f"{tmp}/b/{n}", shallow=False) for n in names)
        details["cli_deterministic"] = bool(same)
        ok &= details["cli_deterministic"]
    return ok, details


CRITERIA = (
    (1, "transcendental constants", _c1_constants),
    (2, "cylinder invariant suprema", _c2_cylinder_suprema),
    (3, "Moebius invariant suprema", _c3_mobius_suprema),
    (4, "FEM/closed-form oracle equivalence", _c4_oracle_equivalence),
    (5, "critical catenoid spectral data", _c5_critical_catenoid),
    (6, "two-disk boundary-neck degeneration", _c6_boundary_sweep),
    (7, "two-disk interior-neck degeneration", _c7_interior_sweep),
    (8, "touching-disk sharpness and Weinstock", _c8_sharpness),
    (9, "glued limits beat invariant suprema", _c9_comparisons),
    (10, "logarithmic cutoff energy law", _c10_cutoff_energy),
    (11, "random-metric eigenvalue bounds", _c11_bound_properties),
    (12, "solver invariants and determinism", _c12_invariants),
)


def run_criterion(index: int) -> CriterionResult:
    for idx, name, fn in CRITERIA:
        if idx == index:
            start = time.perf_counter()
            try:
                passed, details = fn()
            except SteklovError as exc:
                passed, details = False, {"exception": f"{type(exc).__name__}: {exc}"}
            return CriterionResult(idx, name, bool(passed),
                                   time.perf_counter() - start, details)
    raise ValueError(f"no criterion {index}")


def run_all(indices=None) -> list[CriterionResult]:
    wanted = indices or [idx for idx, _, _ in CRITERIA]
    return [run_criterion(i) for i in wanted]
