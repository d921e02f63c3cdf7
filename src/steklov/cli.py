"""Command-line interface: constants, spectra, degeneration sweeps, comparisons,
random-metric eigenvalue bounds, and the acceptance suite.

Exit status: 0 on success; 1 when a verification criterion or comparison fails,
or when a computation raises a domain error (printed as `error: <Type>:
<message>`, with no report written); 2 on usage errors.  Identical invocations
produce byte-identical output files, each written by `experiments.write_json`
or `experiments.write_csv` (`--format` picks one).  The reports of
`spectrum`, `sweep`, `compare` and `bounds` are named by a hash of their
parameters, so runs that differ in any parameter never overwrite each other;
`constants` and `verify` write fixed names.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict

from . import closed_form as cf
from . import experiments as ex
from .errors import InvalidParameterError, SteklovError
from .meshes import FlatCylinder, MobiusCylinder, UnitDisk, build_spec_mesh
from .dtn import steklov_spectrum
from .spectra import Spectrum, spectrum_rows

DOMAIN_ERROR = 1
USAGE_ERROR = 2


def _outdir(args) -> str:
    out = os.environ.get("STEKLOV_OUT") or args.out
    os.makedirs(out, exist_ok=True)
    return out


def _write_rows(args, stem: str, rows: list[dict]) -> None:
    """Write `stem.json` or `stem.csv`, as `--format` asks."""
    write = ex.write_csv if args.format == "csv" else ex.write_json
    write(f"{stem}.{args.format}", rows)


def cmd_constants(args) -> int:
    constants = [asdict(c) for c in cf.all_constants()]
    _write_rows(args, os.path.join(_outdir(args), "constants"), constants)
    for c in constants:
        print(f"{c['name']:>10} = {c['value']:.12f}   ({c['equation']}, "
              f"residual {c['residual']:.1e})")
    return 0


def _require_positive(flag: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise InvalidParameterError(f"{flag} must be a positive finite number")


def _surface_spec(args):
    if args.surface == "disk":
        return UnitDisk()
    density = 1.0 if args.density is None else args.density
    if args.surface == "cylinder":
        return FlatCylinder(args.T, density)
    if args.surface == "mobius":
        return MobiusCylinder(args.T, density)
    raise InvalidParameterError(f"unknown surface {args.surface!r}")


def _spectrum_pair(args) -> dict[str, Spectrum]:
    spec = _surface_spec(args)
    out: dict[str, Spectrum] = {}
    if args.method in ("closed-form", "both"):
        out["closed-form"] = cf.spectrum_for(spec, args.count)
    if args.method in ("fem", "both"):
        mesh = build_spec_mesh(spec, args.resolution).mesh
        out["fem"] = steklov_spectrum(mesh, args.count)
    return out


def cmd_spectrum(args) -> int:
    if args.surface == "disk" and (args.T is not None or args.density is not None):
        raise InvalidParameterError("--T and --density do not apply to the disk")
    if args.surface in ("cylinder", "mobius") and args.T is None:
        raise InvalidParameterError("--T is required for cylinder and mobius surfaces")
    if args.T is not None:
        _require_positive("--T", args.T)
    if args.density is not None:
        _require_positive("--density", args.density)
    if args.count < 1:
        raise InvalidParameterError("--count must be >= 1")
    spectra = _spectrum_pair(args)
    params = {"surface": args.surface, "T": args.T, "density": args.density,
              "count": args.count, "method": args.method, "resolution": args.resolution}
    stem = os.path.join(_outdir(args), f"spectrum-{args.surface}-{ex._params_hash(params)}")
    for method, spec in spectra.items():
        _write_rows(args, f"{stem}-{method}", spectrum_rows(spec))
    if args.method == "both":
        a = spectra["closed-form"].eigenvalues
        b = spectra["fem"].eigenvalues
        rows = []
        for k in range(len(a)):
            scale = max(abs(a[k]), 1e-12)
            rows.append({"k": k, "closed_form": float(a[k]), "fem": float(b[k]),
                         "rel_discrepancy": float(abs(a[k] - b[k]) / scale)})
        _write_rows(args, f"{stem}-discrepancy", rows)
        if len(rows) > 1:
            worst = max(r["rel_discrepancy"] for r in rows[1:])
            print(f"worst relative discrepancy (k >= 1): {worst:.3e}")
    for method, spec in spectra.items():
        head = ", ".join(f"{v:.6g}" for v in spec.eigenvalues[:8])
        print(f"{method}: L = {spec.boundary_length:.6f}; sigma = [{head}]")
    return 0


PRESETS = ("two-disks", "two-disks-interior", "k-disks", "catenoid-disk", "mobius-critical")


def _preset_components(preset: str, k: int):
    if preset in ("two-disks", "two-disks-interior"):
        return [UnitDisk(), UnitDisk()], 2
    if preset == "k-disks":
        return [UnitDisk()] * k, k
    if preset == "catenoid-disk":
        return [cf.critical_catenoid_metric()] + [UnitDisk()] * (k - 1), k
    if preset == "mobius-critical":
        return [cf.critical_mobius_metric()] + [UnitDisk()] * (k - 1), k
    raise InvalidParameterError(f"unknown preset {preset!r}")


def cmd_sweep(args) -> int:
    try:
        rho_list = tuple(float(tok) for tok in args.rho.split(","))
    except ValueError as exc:
        raise InvalidParameterError(f"--rho must be a comma list of numbers: {exc}") from exc
    if args.k is not None and args.k < 1:
        raise InvalidParameterError("--k must be >= 1")
    components, k_default = _preset_components(args.preset, args.k or 2)
    k = args.k or k_default
    run_sweep = ex.interior_glue_sweep if args.preset == "two-disks-interior" else ex.glue_sweep
    sweep = run_sweep(components, k, rho_list, args.resolution)
    rows = []
    for row in sweep.rows:
        if row.failure:
            rows.append({"rho": row.rho, "failure": row.failure})
            continue
        entry = {"rho": row.rho, "boundary_length": row.spectrum.boundary_length,
                 "sigma_bar_k": row.spectrum.sigma_bar(k),
                 "target_sigma_bar_k": sweep.target.sigma_bar(k)}
        for j, err in enumerate(row.eigenvalue_errors):
            entry[f"err_sigma_{j}"] = err
        if row.neck_fractions is not None:
            for j, frac in enumerate(row.neck_fractions):
                entry[f"neck_fraction_{j}"] = frac
        rows.append(entry)
    target = sweep.target.sigma_bar(k)
    # a failed row at any rho fails the sweep; the final row carries the limit
    converged = (not any("failure" in r for r in rows)
                 and abs(rows[-1]["sigma_bar_k"] - target) <= 0.05 * target)
    # across a boundary neck, the eigenfunctions' boundary mass must leave the neck
    shedding = (not any(row.neck_fractions is not None for row in sweep.rows)
                or all(ex.neck_mass_diagnostic(sweep, k)["decreasing"].values()))
    verdict = "pass" if converged and shedding else "fail"
    params = {"preset": args.preset, "k": k, "rho": list(rho_list),
              "resolution": args.resolution}
    paths = ex.write_report(_outdir(args), f"sweep-{args.preset}", params, rows, verdict)
    print(f"target sigma_bar_{k} = {target:.6f}")
    for r in rows:
        if "failure" in r:
            print(f"rho={r['rho']:g}: FAILED {r['failure']}")
        else:
            print(f"rho={r['rho']:g}: sigma_bar_{k} = {r['sigma_bar_k']:.6f}, "
                  f"L = {r['boundary_length']:.6f}")
    if not shedding:
        print("neck boundary-mass fractions do not fall toward the smallest rho")
    print(f"verdict: {verdict}; report: {paths['json']}")
    return 0 if verdict == "pass" else 1


def cmd_compare(args) -> int:
    if args.k < 2:
        raise InvalidParameterError("--k must be >= 2 for the comparison")
    record = ex.noninvariant_comparison(args.surface, args.k)
    params = {"surface": args.surface, "k": args.k}
    paths = ex.write_report(_outdir(args), "compare", params,
                            [asdict(record)], record.verdict)
    print(f"{args.surface} k={args.k}: glued limit {record.glued_limit:.6f} vs "
          f"invariant supremum {record.invariant_supremum:.6f} "
          f"(margin {record.margin:+.6f})")
    print(f"verdict: {record.verdict}; report: {paths['json']}")
    return 0 if record.verdict == "pass" else 1


def cmd_bounds(args) -> int:
    checks = []  # every check runs before any report is written
    for kind, trials in (("hps-disk", args.trials),
                         ("karpukhin-annulus", max(args.trials // 2, 1))):
        report = ex.bound_check(kind, trials=trials, seed=args.seed, k_max=args.k_max)
        checks.append((kind, {"trials": trials, "seed": args.seed, "k_max": args.k_max},
                       report))
    out = _outdir(args)
    for kind, params, report in checks:
        paths = ex.write_report(out, f"bounds-{kind}", params, report["rows"],
                                report["verdict"])
        print(f"{kind}: {params['trials']} trials, worst ratio "
              f"{report['worst_ratio']:.4f} -> {report['verdict']}; report: {paths['json']}")
    return 0 if all(report["verdict"] == "pass" for _, _, report in checks) else 1


def cmd_verify(args) -> int:
    from . import acceptance
    results = acceptance.run_all()
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    out = _outdir(args)
    payload = [{"index": r.index, "name": r.name, "passed": r.passed,
                "seconds": r.seconds, "details": r.details} for r in results]
    ex.write_json(os.path.join(out, "verify.json"), payload)
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steklov",
        description="Steklov spectra of disks, cylinders and Moebius bands: "
                    "closed forms, a finite-element oracle, and neck experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_format=False):
        p.add_argument("--out", default="steklov-out",
                       help="output directory (STEKLOV_OUT overrides)")
        if with_format:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("constants", help="transcendental constants with residuals")
    common(p, with_format=True)
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("spectrum", help="Steklov spectrum of one surface")
    p.add_argument("--surface", choices=("disk", "cylinder", "mobius"), required=True)
    p.add_argument("--T", type=float, default=None,
                   help="chart height (cylinder and mobius only)")
    p.add_argument("--density", type=float, default=None,
                   help="boundary density (default 1; cylinder and mobius only)")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--method", choices=("closed-form", "fem", "both"),
                   default="closed-form")
    p.add_argument("--resolution", type=float, default=0.03)
    common(p, with_format=True)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("sweep", help="neck-degeneration sweep toward a disjoint union")
    p.add_argument("--preset", choices=PRESETS, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--rho", default="0.2,0.1,0.05,0.025", help="comma list, decreasing")
    p.add_argument("--resolution", type=float, default=0.04)
    common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("compare", help="glued limit vs circle-invariant supremum")
    p.add_argument("--surface", choices=("annulus", "mobius"), required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("bounds", help="seeded random metrics against sigma_bar_k <= 2*pi*k "
                                      "(disk) and 2*pi*(k+1) (annulus)")
    p.add_argument("--trials", type=int, default=50,
                   help="disk trials; the annulus runs max(trials // 2, 1)")
    p.add_argument("--seed", type=int, default=20240811)
    p.add_argument("--k-max", type=int, default=5)
    common(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("verify", help="run the acceptance suite")
    common(p)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InvalidParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SteklovError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
