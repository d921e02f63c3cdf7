#!/usr/bin/env python3
"""Neck-degeneration study on two unit disks.

Runs the boundary-square sweep (spectrum converges to the disjoint union,
boundary length converges) and the interior-cylinder sweep (boundary length
exactly additive at every rho), prints convergence tables, and writes the
JSON/CSV reports.
"""

import argparse
import math

from steklov import UnitDisk, glue_sweep, interior_glue_sweep, neck_mass_diagnostic
from steklov.experiments import write_report

FOUR_PI = 4 * math.pi


def as_rows(sweep, k):
    rows = []
    for row in sweep.rows:
        if row.failure:
            rows.append({"rho": row.rho, "failure": row.failure})
            continue
        entry = {"rho": row.rho,
                 "boundary_length": row.boundary_length,
                 "sigma_bar_k": row.spectrum.sigma_bar(k)}
        for j, err in enumerate(row.eigenvalue_errors):
            entry[f"err_sigma_{j}"] = err
        rows.append(entry)
    return rows


def print_rows(sweep, describe):
    """One line per row; a failed row prints its failure instead of numbers."""
    for row in sweep.rows:
        if row.failure:
            print(f"  rho={row.rho:<8g} FAILED {row.failure}")
        else:
            print(f"  rho={row.rho:<8g} {describe(row)}")


def any_failed(sweep):
    return any(row.failure for row in sweep.rows)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--resolution", type=float, default=0.03)
    ap.add_argument("--rho", default="0.2,0.1,0.05,0.025")
    ap.add_argument("--out", default="steklov-out")
    args = ap.parse_args(argv)
    rho_list = tuple(float(tok) for tok in args.rho.split(","))

    print("== boundary necks (square, side 2*rho) ==")
    sweep = glue_sweep([UnitDisk(), UnitDisk()], k=2, rho_list=rho_list,
                       resolution=args.resolution)
    print(f"target sigma_bar_2 = {sweep.target.sigma_bar(2):.6f} (4*pi = {FOUR_PI:.6f})")

    def boundary_line(row):
        rel = abs(row.spectrum.sigma_bar(2) - FOUR_PI) / FOUR_PI
        return (f"L={row.boundary_length:.5f} "
                f"sigma_bar_2={row.spectrum.sigma_bar(2):.5f} rel.err={rel:.2%}")

    print_rows(sweep, boundary_line)
    diag = neck_mass_diagnostic(sweep, 2)
    if not any_failed(sweep):
        print(f"  neck boundary-mass fractions at smallest rho: "
              f"{[round(v[-1], 4) for v in diag['fractions'].values()]}")
    decreasing = diag["decreasing"]
    passed = decreasing and all(decreasing.values()) and not any_failed(sweep)
    verdict = "pass" if passed else "fail"
    write_report(args.out, "two-disk-boundary",
                 {"rho": list(rho_list), "resolution": args.resolution},
                 as_rows(sweep, 2), verdict)

    print("== interior necks (cylinder, circumference 2*pi*rho) ==")
    interior_rhos = (1e-2, 1e-4, 1e-6, 1e-9)
    sweep = interior_glue_sweep([UnitDisk(), UnitDisk()], k=3,
                                rho_list=interior_rhos, resolution=args.resolution)

    def interior_line(row):
        errs = ", ".join(f"{e:.3g}" for e in row.eigenvalue_errors)
        return f"L={row.boundary_length:.6f} errors=[{errs}]"

    print_rows(sweep, interior_line)
    write_report(args.out, "two-disk-interior",
                 {"rho": list(interior_rhos), "resolution": args.resolution},
                 as_rows(sweep, 3), "fail" if any_failed(sweep) else "pass")


if __name__ == "__main__":
    main()
