import json
import math
from unittest import mock

import numpy as np
import pytest

import steklov as sk
import steklov.experiments
from steklov.dtn import build_dtn
from steklov.experiments import write_report
from steklov.meshes import boundary_edge_lengths

TWO_PI = 2 * math.pi
FOUR_PI = 4 * math.pi


@pytest.fixture(scope="module")
def two_disk_sweep():
    return sk.glue_sweep([sk.UnitDisk(), sk.UnitDisk()], k=2,
                         rho_list=(0.15, 0.05), resolution=0.06)


class TestGlueSweep:
    def test_equal_components_solved_once(self, monkeypatch):
        solved = []
        real = steklov.experiments.steklov_spectrum

        def solve(mesh, count, **kwargs):
            solved.append(mesh.n_logical)
            return real(mesh, count, **kwargs)

        monkeypatch.setattr(steklov.experiments, "steklov_spectrum", solve)
        target = steklov.experiments._component_target([sk.UnitDisk()] * 2, 0.1, 6)
        single = real(sk.build_disk_mesh(0.1), 6)
        assert len(solved) == 1
        assert np.array_equal(target.eigenvalues, np.repeat(single.eigenvalues, 2))
        assert target.boundary_length == 2 * single.boundary_length

    def test_converges_toward_merged_target(self, two_disk_sweep):
        sweep = two_disk_sweep
        assert sweep.target.sigma_bar(2) == pytest.approx(FOUR_PI, rel=1e-2)
        errs = [abs(row.spectrum.sigma_bar(2) - FOUR_PI) / FOUR_PI
                for row in sweep.rows]
        assert errs[-1] < errs[0]
        assert errs[-1] < 0.05

    def test_rows_monotone_rho(self, two_disk_sweep):
        rhos = [row.rho for row in two_disk_sweep.rows]
        assert rhos == sorted(rhos, reverse=True)

    def test_rejects_unsorted_rho(self):
        with pytest.raises(sk.InvalidParameterError):
            sk.glue_sweep([sk.UnitDisk()] * 2, 2, (0.05, 0.1), 0.1)

    def test_single_component_degenerate(self):
        target = steklov.experiments._component_target([sk.UnitDisk()], 0.1, 6)
        assert target.sigma_bar(1) == pytest.approx(TWO_PI, rel=1e-2)
        for rho_list in ((), (0.1,)):  # a disk has no neck to itself, with or without rho
            with pytest.raises(sk.InvalidParameterError):
                sk.glue_sweep([sk.UnitDisk()], k=1, rho_list=rho_list, resolution=0.1)

    def test_failures_recorded_not_raised(self):
        sweep = sk.glue_sweep([sk.UnitDisk(), sk.UnitDisk()], k=2,
                              rho_list=(0.1, 0.09, 0.05), resolution=0.08)
        # 0.09 after 0.1 passes validation; inject an impossible rho by hand
        bad = sk.glue_sweep([sk.UnitDisk(), sk.UnitDisk()], k=2,
                            rho_list=(2.0, 0.05), resolution=0.08)
        assert bad.rows[0].failure is not None
        assert bad.rows[1].failure is None
        assert sweep.rows[-1].spectrum is not None

    def _sweep_raising(self, monkeypatch, exc):
        real = steklov.experiments.steklov_spectrum
        target_size = sk.build_disk_mesh(0.1).n_logical

        def solve(mesh, count, **kwargs):
            if mesh.n_logical != target_size:  # the glued rows, not the target
                raise exc
            return real(mesh, count, **kwargs)

        monkeypatch.setattr(steklov.experiments, "steklov_spectrum", solve)
        return sk.glue_sweep([sk.UnitDisk(), sk.UnitDisk()], k=2,
                             rho_list=(0.1,), resolution=0.1)

    def test_domain_error_recorded_as_row_failure(self, monkeypatch):
        sweep = self._sweep_raising(monkeypatch, sk.SolverError("residual"))
        assert sweep.rows[0].failure == "SolverError: residual"

    def test_programming_error_propagates(self, monkeypatch):
        with pytest.raises(TypeError, match="injected"):
            self._sweep_raising(monkeypatch, TypeError("injected"))


def _forbidden(*args, **kwargs):
    raise AssertionError("a refused sweep reached a mesh builder or a solver")


class TestSweepRefusals:
    """Every usage error of a sweep is refused before anything is meshed or solved."""

    @pytest.mark.parametrize("sweep, components, rho_list", [
        pytest.param(sk.interior_glue_sweep, [sk.UnitDisk()], (0.1, 0.05), id="one-disk"),
        pytest.param(sk.interior_glue_sweep, [sk.MobiusCylinder(1.0)], (0.1, 0.05),
                     id="one-moebius-band"),
        pytest.param(sk.glue_sweep, [sk.FlatCylinder(1.0)], (0.1,),
                     id="one-cylinder-boundary-neck"),
        pytest.param(sk.glue_sweep, [sk.UnitDisk()] * 2, (0.1, -0.05), id="negative-rho"),
        pytest.param(sk.glue_sweep, [sk.UnitDisk()] * 2, (0.1, math.nan), id="nan-rho"),
        pytest.param(sk.interior_glue_sweep, [sk.UnitDisk()] * 2, (0.1, math.inf),
                     id="infinite-rho"),
        pytest.param(sk.glue_sweep, [sk.UnitDisk()] * 2, (0.05, 0.1), id="increasing-rho"),
    ])
    def test_refused_before_meshing(self, sweep, components, rho_list):
        with mock.patch.multiple(steklov.experiments, build_spec_mesh=_forbidden,
                                 build_glued_mesh=_forbidden, steklov_spectrum=_forbidden):
            with pytest.raises(sk.InvalidParameterError):
                sweep(components, 1, rho_list, 0.1)


class TestInteriorSweep:
    def test_boundary_length_constant(self):
        sweep = sk.interior_glue_sweep([sk.UnitDisk(), sk.UnitDisk()], k=3,
                                       rho_list=(0.1, 0.01), resolution=0.07)
        lengths = [row.boundary_length for row in sweep.rows]
        assert lengths[0] == pytest.approx(lengths[1], rel=1e-12)
        assert lengths[0] == pytest.approx(FOUR_PI, rel=1e-2)

    def test_self_glued_annulus_sigma1(self):
        sweep = sk.interior_glue_sweep([sk.FlatCylinder(1.0)], k=1,
                                       rho_list=(0.05,), resolution=0.06)
        target = sk.cylinder_spectrum(1.0, count=3)
        got = sweep.rows[-1].spectrum.eigenvalues[1]
        assert got == pytest.approx(target.eigenvalues[1], rel=0.05)

    def test_self_glued_annulus_pinches_to_tiny_rims(self):
        # rims below the collar radius: the cylinder hole gets the log collar
        sweep = sk.interior_glue_sweep([sk.FlatCylinder(1.0)], k=1,
                                       rho_list=(1e-2, 1e-4, 1e-6, 1e-9), resolution=0.06)
        assert [row.failure for row in sweep.rows] == [None] * 4
        lengths = [row.boundary_length for row in sweep.rows]
        assert lengths == pytest.approx([lengths[0]] * 4, rel=1e-12)
        target = sk.cylinder_spectrum(1.0, count=3).eigenvalues[1]  # 0.4621
        assert sweep.rows[-1].spectrum.eigenvalues[1] == pytest.approx(target, rel=0.05)


class TestCatenoidDiskSweep:
    def test_sigma_bar2_approaches_formula(self):
        t10 = sk.constant_T10().value
        want = FOUR_PI / t10 + TWO_PI  # about 16.758
        sweep = sk.glue_sweep([sk.critical_catenoid_metric(), sk.UnitDisk()],
                              k=2, rho_list=(0.05,), resolution=0.04)
        got = sweep.rows[-1].spectrum.sigma_bar(2)
        assert got == pytest.approx(want, rel=0.02)
        assert sweep.target.sigma_bar(2) == pytest.approx(want, rel=0.01)


class TestSharpness:
    def test_weinstock_round_disk(self):
        val = sk.touching_disks_sharpness(1, rho=0.0, resolution=0.04)
        assert val == pytest.approx(TWO_PI, rel=5e-3)
        assert val < TWO_PI

    def test_two_disk_chain_near_bound(self):
        val = sk.touching_disks_sharpness(2, rho=0.05, resolution=0.06)
        assert 0.9 * 2 * TWO_PI < val < 1.02 * 2 * TWO_PI


class TestComparison:
    def test_annulus_k2_spot_values(self):
        rec = sk.noninvariant_comparison("annulus", 2)
        t10 = sk.constant_T10().value
        assert rec.glued_limit == pytest.approx(FOUR_PI / t10 + TWO_PI, abs=1e-9)
        assert rec.invariant_supremum == pytest.approx(FOUR_PI, abs=1e-9)
        assert rec.margin == pytest.approx(4.1916, abs=1e-3)
        assert rec.verdict == "pass"

    def test_annulus_k4(self):
        rec = sk.noninvariant_comparison("annulus", 4)
        assert rec.invariant_supremum == pytest.approx(FOUR_PI * math.sqrt(3.0), abs=1e-9)
        assert rec.glued_limit == pytest.approx(29.32, abs=5e-3)
        assert rec.margin > 0

    def test_mobius_k2(self):
        rec = sk.noninvariant_comparison("mobius", 2)
        want = TWO_PI * math.sqrt(3.0)
        assert rec.glued_limit == pytest.approx(want + TWO_PI, abs=1e-9)
        assert rec.invariant_supremum == pytest.approx(want, abs=1e-9)
        assert rec.margin > 0

    def test_margins_positive_k2_to_k10(self):
        for surface in ("annulus", "mobius"):
            for k in range(2, 11):
                rec = sk.noninvariant_comparison(surface, k)
                assert rec.margin > 0, (surface, k)

    def test_mobius_odd_chain_check(self):
        rec = sk.noninvariant_comparison("mobius", 5)
        assert rec.chain_check["holds"]
        assert rec.chain_check["l"] == 3

    def test_k1_rejected(self):
        with pytest.raises(sk.InvalidParameterError):
            sk.noninvariant_comparison("annulus", 1)


class TestBoundCheck:
    def test_disk_bound_holds(self):
        report = sk.bound_check("hps-disk", trials=4, seed=11, k_max=4,
                                resolution=0.06)
        assert report["verdict"] == "pass"
        assert report["worst_ratio"] <= 1.02

    def test_round_disk_weinstock_ratio(self):
        spec = sk.steklov_spectrum(sk.build_disk_mesh(0.04), 2)
        ratio = spec.sigma_bar(1) / TWO_PI
        assert 0.995 <= ratio <= 1.0

    def test_seed_determines_report(self):
        a = sk.bound_check("hps-disk", trials=2, seed=5, k_max=3, resolution=0.08)
        b = sk.bound_check("hps-disk", trials=2, seed=5, k_max=3, resolution=0.08)
        assert a == b

    def test_annulus_bound_holds(self):
        report = sk.bound_check("karpukhin-annulus", trials=2, seed=3, k_max=4,
                                resolution=0.08)
        assert report["verdict"] == "pass"
        t10 = sk.constant_T10().value
        # the critical catenoid sits well inside the annulus bound at k=1
        assert FOUR_PI / t10 < 2 * TWO_PI

    def test_annulus_trials_match_dense_operator(self, monkeypatch):
        kwargs = dict(trials=2, seed=3, k_max=4, resolution=0.08)
        pencil = sk.bound_check("karpukhin-annulus", **kwargs)
        dense_solves = []

        def dense(mesh, count):
            dense_solves.append(count)
            return build_dtn(mesh).spectrum(count)

        monkeypatch.setattr(steklov.experiments, "steklov_spectrum", dense)
        reference = sk.bound_check("karpukhin-annulus", **kwargs)
        assert dense_solves == [5, 5]
        for row, ref in zip(pencil["rows"], reference["rows"]):
            assert row["T"] == ref["T"]
            assert np.allclose(row["ratios"], ref["ratios"], rtol=1e-10, atol=0)

    def test_unknown_kind(self):
        with pytest.raises(sk.InvalidParameterError):
            sk.bound_check("nope", trials=1, seed=0)

    @pytest.mark.parametrize("kind", ["hps-disk", "karpukhin-annulus"])
    def test_zero_resolution_refused(self, kind):
        # 0.0 reaches the mesh budget; it is not replaced by the default resolution
        with pytest.raises(sk.InvalidParameterError, match="resolution must lie in"):
            sk.bound_check(kind, 1, 0, k_max=2, resolution=0.0)


class TestCutoffEnergy:
    def test_matches_exact_law(self):
        table = sk.cutoff_energy_law((1e-4, 1e-6))
        exact = [TWO_PI / math.log(100.0), TWO_PI / math.log(1000.0)]
        for row, want in zip(table["rows"], exact):
            assert row["energy"] == pytest.approx(want, rel=0.02)
        assert table["monotone_decreasing"]
        ratio = table["rows"][0]["energy"] / table["rows"][1]["energy"]
        assert ratio == pytest.approx(1.5, rel=0.02)

    def test_rho_out_of_range(self):
        with pytest.raises(sk.InvalidParameterError):
            sk.cutoff_energy_law((1.5,))
        with pytest.raises(sk.InvalidParameterError):
            sk.cutoff_energy_law((0.9,))  # sqrt(rho) beyond CUTOFF_R0 = 0.5

    def test_under_resolved_raises(self, monkeypatch):
        monkeypatch.setattr(sk.experiments, "CUTOFF_RESOLUTION", 0.9)
        with pytest.raises(sk.ResolutionError):
            sk.cutoff_energy_law((1e-4,))


class TestNeckDiagnostic:
    def test_fractions_behave(self, two_disk_sweep):
        diag = sk.neck_mass_diagnostic(two_disk_sweep, 2)
        for j, vals in diag["fractions"].items():
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert vals[-1] < 0.05  # no concentration on the neck sides
        assert all(diag["decreasing"].values())

    def test_constant_mode_fraction_is_length_share(self, two_disk_sweep):
        row = two_disk_sweep.rows[-1]
        neck_length = 4 * row.rho
        assert row.neck_fractions[0] == pytest.approx(
            neck_length / row.boundary_length, rel=1e-6)

    def test_fractions_match_edge_loop(self, two_disk_sweep):
        """The vectorized neck membership reproduces a per-edge loop bit for bit."""
        row = two_disk_sweep.rows[-1]
        mesh = sk.build_glued_mesh(sk.chain_family([sk.UnitDisk()] * 2, row.rho), 0.06)
        spec = sk.steklov_spectrum(mesh, 6, want_vectors=True)
        tag = mesh.tags["neck_boundary"]
        uv = mesh.logical[mesh.boundary_edge_chart]
        pos = -np.ones(mesh.n_logical, dtype=np.int64)
        pos[spec.boundary_index] = np.arange(len(spec.boundary_index))
        ua, ub = spec.eigenvectors[pos[uv[:, 0]]], spec.eigenvectors[pos[uv[:, 1]]]
        per_edge = boundary_edge_lengths(mesh)[:, None] * 0.5 * (ua ** 2 + ub ** 2)
        on_neck = np.array([(int(a) in tag) and (int(b) in tag) for a, b in uv])
        assert 0 < on_neck.sum() < len(uv)
        loop = per_edge[on_neck].sum(axis=0) / per_edge.sum(axis=0)
        assert row.neck_fractions == tuple(float(f) for f in loop[:3])

    def test_missing_vectors_rejected(self):
        # interior sweeps record no traces, so they have no neck fractions
        sweep = sk.interior_glue_sweep([sk.UnitDisk()] * 2, 1, (0.1,), 0.1)
        with pytest.raises(sk.InvalidParameterError):
            sk.neck_mass_diagnostic(sweep, 1)


class TestReports:
    def test_write_report_deterministic(self, tmp_path):
        rows = [{"rho": 0.1, "value": 1.25}, {"rho": 0.05, "value": 1.5}]
        p1 = write_report(tmp_path / "a", "demo", {"x": 1}, rows, "pass")
        p2 = write_report(tmp_path / "b", "demo", {"x": 1}, rows, "pass")
        with open(p1["json"]) as fh:
            a = fh.read()
        with open(p2["json"]) as fh:
            b = fh.read()
        assert a == b
        payload = json.loads(a)
        assert payload["experiment"] == "demo"
        assert payload["verdict"] == "pass"
        with open(p1["csv"]) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "rho,value"
        assert len(lines) == 3
