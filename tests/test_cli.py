import contextlib
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import steklov.acceptance
import steklov.cli
import steklov.closed_form
import steklov.experiments
import steklov.meshes
from steklov.cli import build_parser, main
from steklov.errors import SolverError

README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv, tmp_path, monkeypatch, subdir="out"):
    out = tmp_path / subdir
    monkeypatch.delenv("STEKLOV_OUT", raising=False)
    code = main(argv + ["--out", str(out)])
    return code, out


class TestConstants:
    def test_json_output(self, tmp_path, monkeypatch, capsys):
        code, out = run(["constants"], tmp_path, monkeypatch)
        assert code == 0
        payload = json.loads((out / "constants.json").read_text())
        names = [c["name"] for c in payload]
        assert "T_{1,0}" in names and "t_10" in names
        t10 = next(c for c in payload if c["name"] == "T_{1,0}")
        assert abs(float(t10["value"]) - 1.1996786402577337) < 1e-12
        assert "T_{1,0}" in capsys.readouterr().out

    def test_csv_output(self, tmp_path, monkeypatch):
        code, out = run(["constants", "--format", "csv"], tmp_path, monkeypatch)
        assert code == 0
        lines = (out / "constants.csv").read_text().splitlines()
        assert lines[0] == "name,equation,value,residual"
        assert run(["constants"], tmp_path, monkeypatch)[0] == 0
        expected = json.loads((out / "constants.json").read_text())
        with open(out / "constants.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # names such as T_{1,0} hold a comma, so every row must keep four fields
        assert all(None not in row for row in rows)
        assert [row["name"] for row in rows] == [c["name"] for c in expected]
        assert [row["equation"] for row in rows] == [c["equation"] for c in expected]
        assert [float(row["value"]) for row in rows] == [c["value"] for c in expected]
        assert [float(row["residual"]) for row in rows] == [c["residual"] for c in expected]


class TestSpectrum:
    def test_closed_form_csv(self, tmp_path, monkeypatch):
        code, out = run(["spectrum", "--surface", "cylinder", "--T", "1.0",
                         "--count", "6", "--format", "csv"], tmp_path, monkeypatch)
        assert code == 0
        [path] = out.glob("spectrum-cylinder-*-closed-form.csv")
        assert path.read_text().splitlines()[0] == "k,sigma,sigma_bar,multiplicity"

    def test_both_methods_report_discrepancy(self, tmp_path, monkeypatch, capsys):
        code, out = run(["spectrum", "--surface", "disk", "--count", "5",
                         "--method", "both", "--resolution", "0.08"],
                        tmp_path, monkeypatch)
        assert code == 0
        [path] = out.glob("spectrum-disk-*-discrepancy.json")
        rows = json.loads(path.read_text())
        assert max(r["rel_discrepancy"] for r in rows[1:]) < 0.02
        assert "worst relative discrepancy" in capsys.readouterr().out

    def test_both_methods_with_one_eigenvalue(self, tmp_path, monkeypatch, capsys):
        code, out = run(["spectrum", "--surface", "disk", "--count", "1",
                         "--method", "both", "--resolution", "0.1"],
                        tmp_path, monkeypatch)
        assert code == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "worst relative discrepancy" not in captured.out
        [path] = out.glob("spectrum-disk-*-discrepancy.json")
        [row] = json.loads(path.read_text())
        assert row["k"] == 0

    def test_runs_differing_in_density_keep_both_reports(self, tmp_path, monkeypatch):
        argv = ["spectrum", "--surface", "cylinder", "--T", "1", "--count", "4"]
        for density in ("1", "2"):
            code, out = run(argv + ["--density", density], tmp_path, monkeypatch)
            assert code == 0
        reports = list(out.glob("spectrum-cylinder-*-closed-form.json"))
        assert len(reports) == 2
        # boundary density 2 halves every sigma of the flat cylinder
        sigma1 = sorted(json.loads(p.read_text())[1]["sigma"] for p in reports)
        assert sigma1[0] == pytest.approx(0.5 * sigma1[1], rel=1e-12)

    def test_missing_T_is_usage_error(self, tmp_path, monkeypatch, capsys):
        code, _ = run(["spectrum", "--surface", "cylinder"], tmp_path, monkeypatch)
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["spectrum", "--surface", "disk", "--bogus", "1"])
        assert err.value.code == 2

    def test_no_partial_output_on_usage_error(self, tmp_path, monkeypatch):
        code, out = run(["spectrum", "--surface", "mobius", "--T", "-1.0"],
                        tmp_path, monkeypatch)
        assert code == 2
        assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("argv", [
    pytest.param(["spectrum", "--surface", "cylinder", "--T", "nan"], id="T-nan"),
    pytest.param(["spectrum", "--surface", "disk", "--method", "fem",
                  "--resolution", "0"], id="resolution-zero"),
    pytest.param(["spectrum", "--surface", "disk", "--method", "fem",
                  "--resolution", "1.5"], id="disk-resolution-above-one"),
    pytest.param(["sweep", "--preset", "two-disks", "--k", "0", "--rho", "0.1",
                  "--resolution", "0.1"], id="sweep-k-zero"),
    pytest.param(["sweep", "--preset", "two-disks", "--rho", "0.1,nan",
                  "--resolution", "0.1"], id="sweep-rho-nan"),
    pytest.param(["sweep", "--preset", "two-disks", "--rho", "0.1,abc",
                  "--resolution", "0.1"], id="sweep-rho-not-a-number"),
    pytest.param(["spectrum", "--surface", "cylinder", "--T", "1",
                  "--density", "nan"], id="density-nan"),
    pytest.param(["spectrum", "--surface", "disk", "--density", "2"], id="disk-density"),
    pytest.param(["spectrum", "--surface", "disk", "--T", "3"], id="disk-T"),
    pytest.param(["bounds", "--k-max", "0"], id="bounds-k-max-zero"),
    pytest.param(["bounds", "--trials", "0"], id="bounds-trials-zero"),
    pytest.param(["bounds", "--trials", "1", "--seed", "-1"], id="bounds-seed-negative"),
    pytest.param(["bounds", "--k-max", "1000"], id="bounds-k-max-above-boundary-dofs"),
    pytest.param(["spectrum", "--surface", "cylinder", "--T", "1",
                  "--density", "1e-320"], id="density-subnormal"),
])
def test_bad_argument_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    code, out = run(argv, tmp_path, monkeypatch)
    assert code == 2
    assert "usage error:" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("command", [
    pytest.param(["sweep", "--preset", "two-disks"], id="sweep"),
    pytest.param(["compare", "--surface", "annulus", "--k", "2"], id="compare"),
    pytest.param(["verify"], id="verify"),
])
def test_format_only_where_honoured(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(command + ["--format", "csv", "--out", str(tmp_path / "out")])
    assert err.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_domain_error_exits_1_without_report(tmp_path, monkeypatch, capsys):
    def fail(mesh, count, **kwargs):
        raise SolverError("injected failure")

    monkeypatch.setattr(steklov.cli, "steklov_spectrum", fail)
    code, out = run(["spectrum", "--surface", "disk", "--method", "fem",
                     "--resolution", "0.1"], tmp_path, monkeypatch)
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: SolverError: injected failure\n"
    assert not out.exists()


def _reject_non_finite(token):
    raise AssertionError(f"non-finite value {token} in a report")


# finite, zero, negative, non-finite and subnormal values alike
ANY_FLOAT = st.one_of(st.floats(), st.sampled_from([5e-324, 1e-320, -1e-320, 1e-300, 1e300]))


class TestSpectrumArgumentProperties:
    """`spectrum --method closed-form` over any --T, --density and --count: a
    result with only finite values, or a usage error that writes nothing."""

    @settings(max_examples=60, deadline=None)
    @given(surface=st.sampled_from(["cylinder", "mobius"]), T=ANY_FLOAT,
           density=st.none() | ANY_FLOAT, count=st.integers(-3, 40))
    @example(surface="cylinder", T=float("nan"), density=None, count=8)
    @example(surface="cylinder", T=1.0, density=float("inf"), count=8)
    @example(surface="mobius", T=0.0, density=None, count=8)
    @example(surface="cylinder", T=-1.0, density=None, count=8)
    @example(surface="cylinder", T=1.0, density=1e-320, count=8)
    @example(surface="mobius", T=1e-320, density=None, count=8)
    def test_exit_0_with_finite_values_or_exit_2(self, surface, T, density, count):
        argv = ["spectrum", "--surface", surface, "--method", "closed-form",
                f"--T={T!r}", f"--count={count}"]
        if density is not None:
            argv.append(f"--density={density!r}")
        _assert_finite_report_or_usage_error(argv, count)


def _assert_finite_report_or_usage_error(argv, count):
    """One CLI run: exit 0 with one report of `count` finite rows and nothing
    non-finite printed, or exit 2 with a usage error and nothing written; never
    a warning."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ), \
            warnings.catch_warnings(record=True) as caught:
        os.environ.pop("STEKLOV_OUT", None)
        warnings.simplefilter("always")
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(out)])
        written = sorted(out.iterdir()) if out.exists() else []
        reports = [json.loads(p.read_text(), parse_constant=_reject_non_finite)
                   for p in written]
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 2), stderr.getvalue()
    if code == 2:
        assert written == [] and "usage error:" in stderr.getvalue()
        return
    assert len(reports) == 1 and len(reports[0]) == count
    printed = stdout.getvalue().lower()
    assert "nan" not in printed and "inf" not in printed


def _run_quietly(argv):
    """Exit code, stderr and the files written of one CLI run in a fresh directory."""
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("STEKLOV_OUT", None)
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(out)])
        written = sorted(out.iterdir()) if out.exists() else []
    return code, stderr.getvalue(), written


def _forbidden(*args, **kwargs):
    raise AssertionError("a refused request reached a builder or a solver")


@contextlib.contextmanager
def _nothing_built():
    """Fail on any chart, branch table or FEM solve: a refusal comes before them."""
    with contextlib.ExitStack() as stack:
        for module, name in ((steklov.meshes, "_disk_layout"), (steklov.meshes, "_fill_graded"),
                             (steklov.meshes, "_disk_component"),
                             (steklov.meshes, "_grid_component"),
                             (steklov.closed_form, "_branches"),
                             (steklov.cli, "steklov_spectrum"),
                             (steklov.experiments, "steklov_spectrum")):
            stack.enter_context(mock.patch.object(module, name, _forbidden))
        yield


@pytest.mark.parametrize("argv", [
    pytest.param(["spectrum", "--surface", "disk", "--method", "fem", "--resolution", "1e-5"],
                 id="disk-3e10-vertices"),
    pytest.param(["spectrum", "--surface", "cylinder", "--T", "1e7", "--method", "fem"],
                 id="cylinder-T-1e7"),
    pytest.param(["spectrum", "--surface", "mobius", "--T", "1", "--count", "100000000"],
                 id="closed-form-count-1e8"),
    pytest.param(["spectrum", "--surface", "disk", "--count", "100000000"],
                 id="disk-count-1e8"),
])
def test_oversize_requests_are_refused_before_allocating(argv):
    with _nothing_built():
        code, err, written = _run_quietly(argv)
    assert code == 2 and "usage error:" in err
    assert "budget" in err or "count must lie" in err
    assert written == []


# not a positive finite number
NOT_POSITIVE = st.one_of(st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0]),
                         st.floats(max_value=0.0))
# outside (0, 1), or so fine that every surface's mesh exceeds the vertex budget
BAD_RESOLUTION = NOT_POSITIVE | st.floats(min_value=1.0) | st.sampled_from([5e-324, 1e-300]) \
    | st.floats(min_value=0.0, max_value=1e-3, exclude_min=True)


@st.composite
def bad_fem_commands(draw):
    """`spectrum --method fem` or `sweep` with one bad --resolution, --T or --rho."""
    sweep = draw(st.booleans())
    flag = draw(st.sampled_from(["--resolution", "--rho" if sweep else "--T"]))
    value = repr(draw(BAD_RESOLUTION if flag == "--resolution" else NOT_POSITIVE))
    if sweep:
        argv = ["sweep", "--preset", draw(st.sampled_from(steklov.cli.PRESETS))]
        args = {"--rho": "0.1,0.05", "--resolution": "0.1"}
        args[flag] = value if flag == "--resolution" else f"0.1,{value}"
    else:
        surfaces = ["disk", "cylinder", "mobius"] if flag == "--resolution" else ["cylinder",
                                                                                 "mobius"]
        surface = draw(st.sampled_from(surfaces))
        argv = ["spectrum", "--surface", surface, "--method", "fem"]
        args = {"--resolution": "0.1"} if surface == "disk" else {"--resolution": "0.1",
                                                                  "--T": "1.0"}
        args[flag] = value
    return argv + [f"{key}={v}" for key, v in args.items()]


class TestFemArgumentProperties:
    """`spectrum --method fem` and `sweep` over non-finite, zero, negative and
    too fine values: a usage error before anything is meshed, nothing written."""

    @settings(max_examples=60, deadline=None)
    @given(argv=bad_fem_commands())
    @example(argv=["spectrum", "--surface", "disk", "--method", "fem", "--resolution=5e-324"])
    @example(argv=["sweep", "--preset", "two-disks", "--resolution=0.001"])
    @example(argv=["sweep", "--preset", "two-disks-interior", "--rho=0.1,-inf"])
    @example(argv=["spectrum", "--surface", "mobius", "--method", "fem", "--T=inf"])
    def test_usage_error_before_meshing(self, argv):
        with _nothing_built():
            code, err, written = _run_quietly(argv)
        assert code == 2 and err.startswith("usage error:"), err
        assert "Traceback" not in err
        assert written == []



class TestTinyChartHeight:
    """`spectrum --method fem` over tiny positive --T: below the chart height
    `meshes.MIN_CHART_HEIGHT` a usage error before anything is meshed, from it
    up a report of finite values."""

    @settings(max_examples=30, deadline=None)
    @given(surface=st.sampled_from(["cylinder", "mobius"]),
           T=st.floats(-323.0, -1.0).map(lambda e: 10.0 ** e)
           | st.sampled_from([5e-324, 1e-6, 9.99e-4, 1e-3]),
           resolution=st.sampled_from([0.1, 0.3]))
    @example(surface="mobius", T=1e-6, resolution=0.1)
    @example(surface="cylinder", T=1e-300, resolution=0.1)
    @example(surface="cylinder", T=1e-3, resolution=0.1)
    def test_refused_before_meshing_or_solved(self, surface, T, resolution):
        argv = ["spectrum", "--surface", surface, "--method", "fem", f"--T={T!r}",
                f"--resolution={resolution}"]
        if T < steklov.meshes.MIN_CHART_HEIGHT:
            with _nothing_built():
                code, err, written = _run_quietly(argv)
            assert code == 2 and err.startswith("usage error: chart height"), err
            assert written == []
            return
        with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
            os.environ.pop("STEKLOV_OUT", None)
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv + ["--out", tmp])
            [report] = [json.loads(p.read_text(), parse_constant=_reject_non_finite)
                        for p in Path(tmp).iterdir()]
        assert code == 0 and len(report) == 8


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


class TestFemDensityProperties:
    """`spectrum --method fem --density d` on cylinders and Moebius bands over
    densities from 0.01 to 100 and chart heights from the floor up: a report of
    finite values, or a usage error that writes nothing."""

    @settings(max_examples=30, deadline=None)
    @given(surface=st.sampled_from(["cylinder", "mobius"]), density=_log_uniform(0.01, 100.0),
           T=_log_uniform(steklov.meshes.MIN_CHART_HEIGHT, 2.0),
           resolution=st.floats(0.1, 0.3))
    @example(surface="mobius", density=0.01, T=1e-3, resolution=0.3)
    @example(surface="cylinder", density=100.0, T=1e-3, resolution=0.1)
    @example(surface="cylinder", density=0.01, T=2.0, resolution=0.1)
    def test_exit_0_with_finite_rows_or_exit_2(self, surface, density, T, resolution):
        _assert_finite_report_or_usage_error(
            ["spectrum", "--surface", surface, "--method", "fem", f"--T={T!r}",
             f"--density={density!r}", f"--resolution={resolution!r}"], 8)


# one bad value for --trials, --seed or --k-max: not an integer, below its
# range, or a --k-max above the disk mesh's boundary degrees of freedom
NOT_AN_INT = st.sampled_from(["nan", "inf", "-inf", "1.5", "1e3", "", "abc", "0x10"]) \
    | st.floats().map(repr)


@st.composite
def bad_bounds_commands(draw):
    flag = draw(st.sampled_from(["--trials", "--seed", "--k-max"]))
    too_low = {"--trials": st.integers(max_value=0), "--seed": st.integers(max_value=-1),
               "--k-max": st.integers(max_value=0) | st.integers(min_value=10_000)}[flag]
    args = {"--trials": "1", "--seed": "3", "--k-max": "2"}
    args[flag] = draw(NOT_AN_INT | too_low.map(str))
    return ["bounds"] + [f"{key}={value}" for key, value in args.items()]


class TestBoundsArgumentProperties:
    """`bounds` with one bad argument: exit 2 and a message, no traceback, no
    report, no NaN."""

    @settings(max_examples=40, deadline=None)
    @given(argv=bad_bounds_commands())
    @example(argv=["bounds", "--trials=0", "--seed=3", "--k-max=2"])
    @example(argv=["bounds", "--trials=1", "--seed=-1", "--k-max=2"])
    @example(argv=["bounds", "--trials=1", "--seed=3", "--k-max=1000"])
    @example(argv=["bounds", "--trials=nan", "--seed=3", "--k-max=2"])
    def test_usage_error(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
            os.environ.pop("STEKLOV_OUT", None)
            out = Path(tmp) / "out"
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv + ["--out", str(out)])
                except SystemExit as exc:  # argparse refuses what is not an integer
                    code = exc.code
            written = sorted(out.iterdir()) if out.exists() else []
        err = stderr.getvalue()
        assert code == 2, err
        assert err.startswith("usage") and ("usage error:" in err or "error: argument" in err)
        assert "Traceback" not in err and written == [] and stdout.getvalue() == ""


class TestSweepAndCompare:
    def test_two_disk_sweep(self, tmp_path, monkeypatch, capsys):
        code, out = run(["sweep", "--preset", "two-disks", "--k", "2",
                         "--rho", "0.1,0.05", "--resolution", "0.07"],
                        tmp_path, monkeypatch)
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert any(name.startswith("sweep-two-disks-") and name.endswith(".json")
                   for name in files)
        assert any(name.endswith(".csv") for name in files)
        assert "verdict: pass" in capsys.readouterr().out

    def test_mobius_critical_preset(self, tmp_path, monkeypatch, capsys):
        code, out = run(["sweep", "--preset", "mobius-critical", "--k", "2",
                         "--rho", "0.08", "--resolution", "0.07"],
                        tmp_path, monkeypatch)
        assert code == 0
        assert "verdict: pass" in capsys.readouterr().out

    def test_compare_annulus(self, tmp_path, monkeypatch, capsys):
        code, out = run(["compare", "--surface", "annulus", "--k", "2"],
                        tmp_path, monkeypatch)
        assert code == 0
        text = capsys.readouterr().out
        assert "margin +4.19" in text

    def test_compare_k1_usage_error(self, tmp_path, monkeypatch):
        code, _ = run(["compare", "--surface", "mobius", "--k", "1"],
                      tmp_path, monkeypatch)
        assert code == 2

    def test_sweep_rejects_increasing_rho(self, tmp_path, monkeypatch):
        code, _ = run(["sweep", "--preset", "two-disks", "--rho", "0.05,0.1"],
                      tmp_path, monkeypatch)
        assert code == 2


    def test_failed_row_fails_sweep(self, tmp_path, monkeypatch, capsys):
        # the smallest-rho row fails; the rows before it are fine
        built = {}
        real_build = steklov.experiments.build_glued_mesh
        real_solve = steklov.experiments.steklov_spectrum

        def build(family, resolution):
            built["rho"] = family.rho
            return real_build(family, resolution)

        def solve(mesh, count, **kwargs):
            if built.get("rho", 1.0) < 0.06:
                raise SolverError("injected failure")
            return real_solve(mesh, count, **kwargs)

        monkeypatch.setattr(steklov.experiments, "build_glued_mesh", build)
        monkeypatch.setattr(steklov.experiments, "steklov_spectrum", solve)
        code, out = run(["sweep", "--preset", "two-disks", "--k", "2",
                         "--rho", "0.1,0.05", "--resolution", "0.07"],
                        tmp_path, monkeypatch)
        assert code == 1
        assert "verdict: fail" in capsys.readouterr().out
        [report] = out.glob("sweep-two-disks-*.json")
        payload = json.loads(report.read_text())
        assert payload["verdict"] == "fail"
        assert "failure" not in payload["rows"][0]
        assert "SolverError" in payload["rows"][-1]["failure"]

    def test_interior_preset(self, tmp_path, monkeypatch, capsys):
        code, out = run(["sweep", "--preset", "two-disks-interior", "--rho", "0.1,1e-4",
                         "--resolution", "0.08"], tmp_path, monkeypatch)
        assert code == 0
        assert "verdict: pass" in capsys.readouterr().out
        [report] = out.glob("sweep-two-disks-interior-*.json")
        rows = json.loads(report.read_text())["rows"]
        # an interior neck leaves the boundary alone, and carries no neck fractions
        assert rows[0]["boundary_length"] == rows[1]["boundary_length"]
        assert not any(key.startswith("neck_fraction") for key in rows[0])

    def test_rising_neck_fractions_fail_boundary_sweep(self, tmp_path, monkeypatch, capsys):
        calls = []

        def rising(mesh, spectrum, j_max):
            calls.append(None)
            return tuple(0.01 * len(calls) for _ in range(j_max + 1))

        monkeypatch.setattr(steklov.experiments, "_neck_fractions", rising)
        code, out = run(["sweep", "--preset", "two-disks", "--k", "2",
                         "--rho", "0.1,0.05", "--resolution", "0.07"],
                        tmp_path, monkeypatch)
        assert code == 1
        text = capsys.readouterr().out
        assert "neck boundary-mass fractions do not fall" in text
        assert "verdict: fail" in text
        [report] = out.glob("sweep-two-disks-*.json")
        payload = json.loads(report.read_text())
        assert payload["verdict"] == "fail"
        assert not any("failure" in row for row in payload["rows"])

    def test_tiny_rho_ends_with_a_report(self, tmp_path, monkeypatch):
        # rho 2.0 exceeds the clearance quarter of 1.57: a failed row, still a report
        code, out = run(["sweep", "--preset", "two-disks", "--rho", "2.0,0.1",
                         "--resolution", "0.05"], tmp_path, monkeypatch, "a")
        assert code == 1
        [report] = out.glob("sweep-two-disks-*.json")
        rows = json.loads(report.read_text())["rows"]
        assert len(rows) == 2
        assert rows[0]["failure"].startswith("InvalidGluingError")
        assert "failure" not in rows[1]
        # rho 1e-7 meshes on the arcs' half-collars
        code, out = run(["sweep", "--preset", "two-disks", "--rho", "0.1,1e-7",
                         "--resolution", "0.03"], tmp_path, monkeypatch, "b")
        [report] = out.glob("sweep-two-disks-*.json")
        rows = json.loads(report.read_text())["rows"]
        assert len(rows) == 2 and not any("failure" in row for row in rows)
        assert code == 0


class TestBounds:
    def test_two_reports_byte_identical_reruns(self, tmp_path, monkeypatch):
        argv = ["bounds", "--trials", "2", "--k-max", "2"]
        code, out1 = run(argv, tmp_path, monkeypatch, "a")
        assert code == 0
        _, out2 = run(argv, tmp_path, monkeypatch, "b")
        reports = sorted(p.name for p in out1.glob("*.json"))
        assert [name.rsplit("-", 1)[0] for name in reports] == [
            "bounds-hps-disk", "bounds-karpukhin-annulus"]
        for name in sorted(p.name for p in out1.iterdir()):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        disk = json.loads((out1 / reports[0]).read_text())
        assert disk["params"] == {"k_max": 2, "seed": 20240811, "trials": 2}
        annulus = json.loads((out1 / reports[1]).read_text())
        assert annulus["params"]["trials"] == 1
        assert disk["verdict"] == annulus["verdict"] == "pass"


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        argv = ["spectrum", "--surface", "mobius", "--T", "0.65848",
                "--count", "5", "--format", "csv"]
        _, out1 = run(argv, tmp_path, monkeypatch, "a")
        _, out2 = run(argv, tmp_path, monkeypatch, "b")
        for name in sorted(p.name for p in out1.iterdir()):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


    def test_sweep_bytes_independent_of_blas_threads(self, tmp_path):
        argv = [sys.executable, "-m", "steklov.cli", "sweep", "--preset", "two-disks",
                "--k", "2", "--rho", "0.1", "--resolution", "0.1"]
        src = os.path.dirname(os.path.dirname(os.path.abspath(steklov.__file__)))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            env.pop("STEKLOV_OUT", None)
            done = subprocess.run(argv + ["--out", str(out)], env=env, capture_output=True)
            assert done.returncode == 0, done.stderr.decode()
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert len(outputs[0]) == 2
        assert outputs[0] == outputs[1]


class TestEnvOverride:
    def test_steklov_out_wins(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        monkeypatch.setenv("STEKLOV_OUT", str(env_dir))
        code = main(["constants", "--out", str(tmp_path / "flag")])
        assert code == 0
        assert (env_dir / "constants.json").exists()
        assert not (tmp_path / "flag").exists()


class TestVerify:
    def test_exit_codes_follow_results(self, tmp_path, monkeypatch, capsys):
        from steklov.acceptance import CriterionResult

        def fake_pass():
            return [CriterionResult(1, "stub", True, 0.0, {})]

        def fake_fail():
            return [CriterionResult(1, "stub", True, 0.0, {}),
                    CriterionResult(2, "stub2", False, 0.0, {"why": "x"})]

        monkeypatch.setattr(steklov.acceptance, "run_all", fake_pass)
        code, out = run(["verify"], tmp_path, monkeypatch, "v1")
        assert code == 0
        assert (out / "verify.json").exists()

        monkeypatch.setattr(steklov.acceptance, "run_all", fake_fail)
        code, _ = run(["verify"], tmp_path, monkeypatch, "v2")
        assert code == 1
        assert "1/2 criteria passed" in capsys.readouterr().out


def readme_commands():
    """Every `steklov ...` line of the README's shell blocks, loop variables bound."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        loops = {var: values.split()[0]
                 for var, values in re.findall(r"for (\w+) in ([^;]+);", block)}
        for line in block.splitlines():
            line = line.split("#")[0].strip()
            if line.startswith("steklov "):
                for var, value in loops.items():
                    line = line.replace(f"${var}", value)
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: steklov {shlex.join(argv)}")
