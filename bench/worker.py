"""One benchmark workload, run in a fresh process started by `run.py`.

Usage (normally through run.py):
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --t0 T
    python3 bench/worker.py --workload NAME --seed N --t0 T --setup-only

`--t0` is the `time.monotonic()` reading taken by the parent just before it
started this process, so `setup_s` covers interpreter start, the
steklov/numpy/scipy imports, one tiny warm-up solve and the workload's own
set-up.  Untraced, the timings are scaled to a reference host speed measured
by `hostspeed.py` in the same process.  The last line of standard output is
one JSON object.

An operation fails when it raises or when its output check fails; outputs are
checked against references the benchmark evaluates itself (branch formulas,
convergence order, boundary-length additivity, the 2*pi*k bound, Weinstock,
homothety), never against a stored copy of earlier output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("oracle", "degeneration", "density")
TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
# host-speed samples right after set-up, to scale the set-up time
SETUP_SAMPLES = 3


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

def cylinder_reference(T: float, count: int) -> list[float]:
    """Flat cylinder [0, T] x S^1: 0, 2/T, n tanh(nT/2) (x2), n coth(nT/2) (x2)."""
    values = [2.0 / T]
    for n in range(1, count + 1):
        values += [n * math.tanh(0.5 * n * T)] * 2
        values += [n / math.tanh(0.5 * n * T)] * 2
    return [0.0] + sorted(values)[:count - 1]


def mobius_reference(T: float, count: int) -> list[float]:
    """Moebius band of chart height T: the cylinder of height 2T seen through
    (t, theta) -> (-t, theta + pi).  Mode n keeps the branch whose t-profile
    has parity (-1)^n: tanh for even n, coth for odd n; mode 0 keeps only the
    constant."""
    values = []
    for n in range(1, count + 1):
        if n % 2 == 0:
            values += [n * math.tanh(n * T)] * 2
        else:
            values += [n / math.tanh(n * T)] * 2
    return [0.0] + sorted(values)[:count - 1]


def disk_reference(count: int) -> list[float]:
    return [float((j + 1) // 2) for j in range(count)]


def spectrum_problems(values, reference, rtol: float) -> list[str]:
    """sigma_0 must vanish on the scale of sigma_1; k >= 1 must match to rtol."""
    out = []
    if len(values) != len(reference):
        return [f"{len(values)} eigenvalues, expected {len(reference)}"]
    if abs(values[0]) > 1e-8 * reference[1]:
        out.append(f"sigma_0 = {values[0]:.3e} is not zero")
    for k in range(1, len(values)):
        rel = abs(values[k] - reference[k]) / reference[k]
        if rel > rtol:
            out.append(f"sigma_{k} = {values[k]:.8f} vs {reference[k]:.8f} (rel {rel:.2e})")
    return out


def worst_relative_error(values, reference) -> float:
    return max(abs(v - r) / r for v, r in zip(values[1:], reference[1:]))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Oracle:
    """Fresh single-surface FEM spectra at about 5e3 and 2e4 logical vertices.

    One operation is one surface at one size: mesh build, FEM solve, and the
    library's closed form for the same surface.  The inputs are fixed; the
    order is too, because it moves the peak RSS by up to 5%.
    """

    SIZES = (5.0e3, 2.0e4)
    RTOL = 5e-3

    def __init__(self, st):
        self.st = st
        t21 = st.closed_form.constant_Tk1(2).value
        surfaces = [("disk", None), ("cylinder", 0.5), ("cylinder", 2.0),
                    ("mobius", 0.5), ("mobius", t21)]
        self.cases = [(kind, T, n) for kind, T in surfaces for n in self.SIZES]

    def setup(self):
        pass

    def operations(self):
        return [(case, (lambda case=case: self.solve(*case))) for case in self.cases]

    def solve(self, kind, T, n_vertices):
        meshes, dtn, cf = self.st.meshes, self.st.dtn, self.st.closed_form
        if kind == "disk":
            mesh = meshes.build_disk_mesh(math.sqrt(math.pi / n_vertices))
            count = 7
            library = cf.disk_spectrum(count)
        else:
            res = math.sqrt(TWO_PI * T / n_vertices)
            count = 8
            if kind == "cylinder":
                mesh = meshes.build_spec_mesh(meshes.FlatCylinder(T), res).mesh
                library = cf.cylinder_spectrum(T, count=count)
            else:
                mesh = meshes.build_mobius_mesh(T, res)
                library = cf.mobius_spectrum(T, count=count)
        fem = dtn.steklov_spectrum(mesh, count)
        return {"fem": [float(v) for v in fem.eigenvalues],
                "length": fem.boundary_length,
                "closed_form": [float(v) for v in library.eigenvalues],
                "vertices": mesh.n_logical}

    @staticmethod
    def reference(kind, T, count):
        if kind == "disk":
            return disk_reference(count), TWO_PI
        if kind == "cylinder":
            return cylinder_reference(T, count), FOUR_PI
        return mobius_reference(T, count), TWO_PI

    def check(self, results):
        problems = {}
        for case, out in results.items():
            kind, T, n = case
            ref, length = self.reference(kind, T, len(out["fem"]))
            faults = spectrum_problems(out["fem"], ref, self.RTOL)
            faults += [f"closed form: {p}" for p in spectrum_problems(out["closed_form"], ref, 1e-12)]
            if abs(out["length"] - length) > 1e-3 * length:
                faults.append(f"boundary length {out['length']:.6f}, expected {length:.6f}")
            if not 0.7 * n < out["vertices"] < 1.3 * n:
                faults.append(f"{out['vertices']} vertices, expected about {n:g}")
            if n == self.SIZES[1]:
                coarse = results.get((kind, T, self.SIZES[0]))
                if coarse is None:
                    faults.append("coarse mesh of the same surface failed; no order check")
                else:
                    ratio = (worst_relative_error(coarse["fem"], ref)
                             / worst_relative_error(out["fem"], ref))
                    if ratio < 2.0:
                        faults.append(f"error shrank only {ratio:.2f}x from 5e3 to 2e4 vertices")
            problems[case] = faults
        return problems


class Degeneration:
    """Glued two-disk surfaces at resolution 0.03 with eigenvectors recorded,
    the three-disk chain, and one CLI sweep, in a fixed order (the order
    moves the peak RSS by up to 10%)."""

    BOUNDARY_RHO = (0.2, 0.1, 0.05, 0.025)
    INTERIOR_RHO = (1e-2, 1e-4, 1e-6, 1e-9)
    RESOLUTION = 0.03
    CLI_ARGS = ["sweep", "--preset", "two-disks", "--k", "2",
                "--rho", "0.2,0.1,0.05,0.025", "--resolution", "0.03"]

    def __init__(self, st):
        self.st = st
        self.cases = ([("boundary", rho) for rho in self.BOUNDARY_RHO]
                      + [("interior", rho) for rho in self.INTERIOR_RHO]
                      + [("three-disk", 0.025), ("cli-sweep", None)])

    def setup(self):
        pass

    def operations(self):
        return [(case, (lambda case=case: self.run(*case))) for case in self.cases]

    def run(self, kind, rho):
        ex, gluing, dtn = self.st.experiments, self.st.gluing, self.st.dtn
        if kind in ("boundary", "interior"):
            neck = gluing.BOUNDARY_NECK if kind == "boundary" else gluing.INTERIOR_NECK
            disk = self.st.meshes.UnitDisk()
            family = ex.chain_family([disk, disk], rho, neck)
            mesh = gluing.build_glued_mesh(family, self.RESOLUTION)
            spec = dtn.steklov_spectrum(mesh, 6, want_vectors=True)
            if spec.eigenvectors is None or spec.eigenvectors.shape[1] != 6:
                raise RuntimeError("eigenvectors were not recorded")
            return {"sigma": [float(v) for v in spec.eigenvalues],
                    "sigma_bar": [float(v) for v in spec.normalized],
                    "length": spec.boundary_length}
        if kind == "three-disk":
            return {"sigma_bar_3": ex.touching_disks_sharpness(3, rho, 0.035)}
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as out:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.st.cli.main(self.CLI_ARGS + ["--out", out])
            reports = [name for name in os.listdir(out) if name.endswith(".json")]
            if len(reports) != 1:
                raise RuntimeError(f"expected one JSON report, found {reports}")
            with open(os.path.join(out, reports[0])) as fh:
                report = json.load(fh)
        return {"exit": code, "report": report}

    def check(self, results):
        problems = {}
        bnd_err = {rho: abs(out["sigma_bar"][2] - FOUR_PI) / FOUR_PI
                   for (kind, rho), out in results.items() if kind == "boundary"}
        for case, out in results.items():
            kind, rho = case
            faults = []
            if kind == "boundary":
                if abs(out["length"] - FOUR_PI) > 0.02 * FOUR_PI:
                    faults.append(f"boundary length {out['length']:.6f} not within 2% of 4pi")
                if rho == self.BOUNDARY_RHO[-1]:
                    tail = [bnd_err.get(r) for r in self.BOUNDARY_RHO[-3:]]
                    if None in tail:
                        faults.append("a boundary-neck solve failed; no trend check")
                    elif not (tail[2] <= 0.05 and tail[2] <= tail[1] <= tail[0]):
                        faults.append(f"sigma_bar_2 errors over the last three rho: {tail}")
            elif kind == "interior":
                if abs(out["length"] - FOUR_PI) > 1e-3 * FOUR_PI:
                    faults.append(f"boundary length {out['length']:.6f} not within 1e-3 of 4pi")
                if rho == self.INTERIOR_RHO[-1]:
                    # disjoint union of two unit disks: 0, 0, 1, 1, ...; unit scale
                    limit = [0.0, 1.0, 1.0]
                    errs = [abs(out["sigma"][j] - limit[j - 1]) for j in (1, 2, 3)]
                    if max(errs) > 0.05:
                        faults.append(f"sigma_1..3 off the disjoint union by {errs}")
            elif kind == "three-disk":
                value = out["sigma_bar_3"]
                if not 0.95 * 3 * TWO_PI < value < 1.02 * 3 * TWO_PI:
                    faults.append(f"three-disk sigma_bar_3 = {value:.6f} outside (0.95, 1.02)*6pi")
            else:
                faults += self.sweep_problems(out)
            problems[case] = faults
        return problems

    def sweep_problems(self, out):
        faults = []
        if out["exit"] != 0:
            faults.append(f"CLI exit code {out['exit']}")
        report = out["report"]
        rows = report.get("rows", [])
        failed_rows = [row for row in rows if "failure" in row]
        if failed_rows:
            faults.append(f"{len(failed_rows)} sweep rows carry a failure: {failed_rows}")
        if report.get("verdict") != "pass":
            faults.append(f"verdict {report.get('verdict')!r}")
        if len(rows) != len(self.BOUNDARY_RHO):
            faults.append(f"{len(rows)} rows, expected {len(self.BOUNDARY_RHO)}")
        elif not failed_rows:
            if abs(rows[-1]["sigma_bar_k"] - FOUR_PI) > 0.05 * FOUR_PI:
                faults.append(f"final sigma_bar_2 {rows[-1]['sigma_bar_k']:.6f} not within 5% of 4pi")
            if any(abs(row["boundary_length"] - FOUR_PI) > 0.02 * FOUR_PI for row in rows):
                faults.append("a sweep row's boundary length is not within 2% of 4pi")
        return faults


class Density:
    """One reused DtnOperator of the unit disk; many boundary-density trials.

    Each pass is 16 operations: the constant density (Weinstock), 14 seeded
    log-Fourier densities (6 modes, amplitude 0.3), and the last of those
    scaled by 1.7 (homothety).  The operator is built in set-up.
    """

    RESOLUTION = 0.02
    RANDOM_TRIALS = 14
    MODES = 6
    AMPLITUDE = 0.3
    SCALE = 1.7
    COUNT = 6

    def __init__(self, st, seed: int):
        self.st = st
        self.rng = st.np.random.default_rng(seed)

    def setup(self):
        np = self.st.np
        mesh = self.st.meshes.build_disk_mesh(self.RESOLUTION)
        self.operator = self.st.dtn.build_dtn(mesh)
        self.n_logical = mesh.n_logical
        b = self.operator.boundary_index
        first_chart = np.zeros(mesh.n_logical, dtype=np.int64)
        first_chart[mesh.logical[::-1]] = np.arange(mesh.n_chart - 1, -1, -1)
        xy = mesh.vertices[first_chart[b]]
        self.angles = np.arctan2(xy[:, 1], xy[:, 0])
        self.modes = np.arange(1, self.MODES + 1)

    def random_density(self):
        np = self.st.np
        a = self.rng.uniform(-self.AMPLITUDE, self.AMPLITUDE, size=self.MODES)
        b = self.rng.uniform(-self.AMPLITUDE, self.AMPLITUDE, size=self.MODES)
        phase = np.outer(self.angles, self.modes)
        lam = np.ones(self.n_logical)
        lam[self.operator.boundary_index] = np.exp(np.cos(phase) @ a + np.sin(phase) @ b)
        return lam

    def operations(self):
        np = self.st.np
        densities = [("constant", np.ones(self.n_logical))]
        densities += [(f"random-{i}", self.random_density()) for i in range(self.RANDOM_TRIALS)]
        densities.append(("scaled", self.SCALE * densities[-1][1]))
        return [(name, (lambda lam=lam: self.trial(lam))) for name, lam in densities]

    def trial(self, lam):
        spec = self.operator.spectrum(self.COUNT, conformal=lam)
        return [float(v) for v in spec.normalized]

    def check(self, results):
        problems = {}
        base = results.get(f"random-{self.RANDOM_TRIALS - 1}")
        for name, sigma_bar in results.items():
            faults = [f"sigma_bar_{k} = {sigma_bar[k]:.6f} above 1.02 * 2pi*{k}"
                      for k in range(1, self.COUNT) if sigma_bar[k] > 1.02 * TWO_PI * k]
            if name == "constant" and abs(sigma_bar[1] - TWO_PI) > 5e-3 * TWO_PI:
                faults.append(f"constant density sigma_bar_1 = {sigma_bar[1]:.8f}, expected 2pi")
            if name == "scaled":
                if base is None:
                    faults.append("unscaled trial failed; no homothety check")
                else:
                    drift = max(abs(s - t) / t for s, t in zip(sigma_bar[1:], base[1:]))
                    if drift > 1e-10:
                        faults.append(f"sigma_bar moved by {drift:.2e} under scaling")
            problems[name] = faults
        return problems


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Steklov:
    """The imported modules, looked up by attribute at every call so that the
    tracer's wrappers are seen."""

    def __init__(self):
        import numpy as np

        import steklov
        from steklov import closed_form, cli, dtn, experiments, gluing, meshes
        if not os.path.abspath(steklov.__file__).startswith(os.path.join(SRC, "")):
            raise ImportError(f"steklov imported from {steklov.__file__}, not from {SRC}")
        self.np = np
        self.meshes, self.gluing, self.dtn = meshes, gluing, dtn
        self.closed_form, self.experiments, self.cli = closed_form, experiments, cli

    def modules(self) -> dict:
        return {"meshes": self.meshes, "gluing": self.gluing, "dtn": self.dtn,
                "closed_form": self.closed_form, "experiments": self.experiments,
                "cli": self.cli}

    def warm_up(self):
        mesh = self.meshes.build_disk_mesh(0.2)
        self.dtn.steklov_spectrum(mesh, 3)


def make_workload(name: str, st: Steklov, seed: int):
    """Only `density` draws its inputs from the seed; the other two workloads
    are fixed geometry."""
    if name == "density":
        return Density(st, seed)
    return {"oracle": Oracle, "degeneration": Degeneration}[name](st)


def run_pass(workload, host=None) -> dict:
    """One timed pass over the workload's operations; checks run after timing.
    With a HostSpeed, the host's speed is sampled between operations."""
    results, errors, op_times = {}, {}, {}
    clock = time.perf_counter
    start = clock()
    for key, op in workload.operations():
        t = clock()
        try:
            results[key] = op()
        except Exception as exc:  # an operation failure is data, not a crash
            errors[key] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        op_times[key] = clock() - t
        if host is not None:
            host.maybe_sample()
    run_s = clock() - start
    problems = workload.check(results)
    failures = dict(errors)
    failures.update({key: "; ".join(faults) for key, faults in problems.items() if faults})
    return {"run_s": run_s, "op_times": op_times, "attempted": len(op_times),
            "failed": len(failures), "wrong": any(problems.values()), "failures": failures}


def run_passes(workload, seconds: float, host=None) -> list[dict]:
    """Whole passes within `seconds`, and at least one: the next pass starts
    only if, at the mean pass time so far, it ends in time."""
    start = time.perf_counter()
    passes = [run_pass(workload, host)]
    while True:
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes
        passes.append(run_pass(workload, host))


def fastest_op_times(passes) -> list[float]:
    """Each operation's fastest time over the run's passes.

    The host runs the same work at speeds that differ by up to 1.6x, in
    slow periods of a second to several minutes (README.md, "Steadiness and
    bounds").  A median over one run's passes follows whichever periods the
    run caught; an operation's fastest repetition needs one repetition
    outside them.
    """
    best: dict = {}
    for p in passes:
        for key, t in p["op_times"].items():
            best[key] = min(t, best.get(key, math.inf))
    return list(best.values())


def report_failures(passes) -> None:
    failures = [item for p in passes for item in p["failures"].items()]
    for key, reason in failures[:10]:
        print(f"FAILED {key}: {reason}", file=sys.stderr)


def tally(passes) -> dict:
    return {"correct": not any(p["wrong"] for p in passes),
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes)}


def layer_metrics(tracer, n_passes: int) -> tuple[dict, float]:
    """Per-pass layer figures of the traced passes, and the time their spans cover."""
    self_s = tracer.self_times()
    total_s = tracer.total_times()
    per = 1.0 / n_passes
    values = {
        "meshes.build_s": self_s["meshes.build"] * per,
        "meshes.assemble_s": self_s["meshes.assemble"] * per,
        "meshes.vertices": tracer.counts["meshes.vertices"] * per,
        "gluing.neck_s": self_s["gluing.neck"] * per,
        "dtn.stiffness_s": self_s["dtn.stiffness"] * per,
        "dtn.stiffness_nnz": tracer.counts["dtn.stiffness_nnz"] * per,
        "dtn.schur_s": total_s["dtn.schur"] * per,
        "dtn.factor_s": total_s["dtn.factor"] * per,
        "dtn.rhs_solve_s": total_s["dtn.rhs_solve"] * per,
        "dtn.dense_rhs_mb": tracer.maxima["dtn.dense_rhs_mb"],
        "dtn.interior_dofs": tracer.counts["dtn.interior_dofs"] * per,
        "dtn.boundary_dofs": tracer.counts["dtn.boundary_dofs"] * per,
        "dtn.eigensolve_s": self_s["dtn.eigensolve"] * per,
        "dtn.solves": tracer.counts["dtn.solves"] * per,
        "dtn.other_s": self_s["dtn.other"] * per,
        "closed_form.s": self_s["closed_form"] * per,
        "experiments.sweep_s": self_s["experiments.sweep"] * per,
        "experiments.report_s": self_s["experiments.report"] * per,
        "experiments.report_bytes": tracer.counts["experiments.report_bytes"] * per,
        "cli.s": self_s["cli"] * per,
    }
    covered = sum(self_s.values()) * per
    return values, covered


def per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="parent's time.monotonic() just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    os.environ.pop("STEKLOV_OUT", None)  # the CLI would write there instead of --out

    tracer = None
    st = Steklov()
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(st.modules())
    st.warm_up()
    workload = make_workload(args.workload, st, args.seed)
    workload.setup()
    setup_s = time.monotonic() - args.t0
    if not args.trace:
        # set-up is scaled by the host's speed right after it, the run's
        # timings by its fastest sample over the whole run
        from hostspeed import REFERENCE_S, HostSpeed
        host = HostSpeed()
        setup_ref = min(host.sample() for _ in range(SETUP_SAMPLES))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s * REFERENCE_S / setup_ref}))
        return 0

    if tracer is None:
        passes = run_passes(workload, args.seconds, host)
        result = tally(passes)
        best = fastest_op_times(passes)
        scale = host.scale()
        result["metrics"] = {
            "setup_s": {"value": setup_s * REFERENCE_S / setup_ref, "unit": "s"},
            "run_s": {"value": math.fsum(best) * scale, "unit": "s"},
            "op_p50_s": {"value": statistics.median(best) * scale, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        print(f"wall clock: setup_s {setup_s:.6g}, run_s {math.fsum(best):.6g}, "
              f"op_p50_s {statistics.median(best):.6g}; host reference {host.best:.6g} s "
              f"against {REFERENCE_S:g} s", file=sys.stderr)
    else:
        # the same process runs untraced passes, then traced ones: the
        # difference of their fastest-repetition sums is the tracing overhead
        setup_schur_s = tracer.total_times()["dtn.schur"]
        tracer.uninstall()
        plain = run_passes(workload, 0.5 * args.seconds)
        tracer.reset()
        tracer.install(st.modules())
        traced = run_passes(workload, 0.5 * args.seconds)
        tracer.uninstall()
        passes = plain + traced
        result = tally(passes)
        values, covered = layer_metrics(tracer, len(traced))
        traced_run_s = statistics.fmean(p["run_s"] for p in traced)
        values["dtn.setup_schur_s"] = setup_schur_s
        values["trace.run_s"] = traced_run_s
        values["trace.unattributed_s"] = traced_run_s - covered
        values["trace.overhead_s"] = (math.fsum(fastest_op_times(traced))
                                      - math.fsum(fastest_op_times(plain)))
        units = per_layer_units()
        if set(units) != set(values):
            raise RuntimeError(f"per-layer metrics differ from BENCHMARK.json: "
                               f"{sorted(set(units) ^ set(values))}")
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in units.items()}
    report_failures(passes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
