import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steklov as sk
from steklov.experiments import write_csv
from steklov.spectra import EMPTY, cluster_indices, make_spectrum, spectrum_rows


def spectrum_strategy():
    values = st.lists(st.floats(0.0, 50.0, allow_nan=False), min_size=1, max_size=8)
    length = st.floats(0.1, 100.0)
    return st.builds(
        lambda vals, L: make_spectrum(np.sort([0.0] + vals), L), values, length)


class TestMakeSpectrum:
    def test_normalized_values(self):
        s = make_spectrum([0.0, 1.0, 2.0], 3.0)
        assert np.allclose(s.normalized, [0.0, 3.0, 6.0])

    def test_rejects_unsorted(self):
        with pytest.raises(sk.InvalidParameterError):
            make_spectrum([1.0, 0.5], 1.0)

    def test_rejects_large_negative_leading_value(self):
        with pytest.raises(sk.InvalidParameterError):
            make_spectrum([-0.5, 1.0], 1.0)

    def test_clamps_solver_noise(self):
        s = make_spectrum([-1e-14, 1.0], 1.0)
        assert s.eigenvalues[0] == 0.0

    @pytest.mark.parametrize("noise", [3e-15, -3e-15])
    def test_zero_mode_noise_of_either_sign_is_zero(self, noise):
        s = make_spectrum([noise, 1.0, 2.0], 2.0)
        assert s.eigenvalues[0] == 0.0
        assert s.normalized[0] == 0.0

    def test_value_above_noise_band_kept(self):
        band = 1e-8 * 1.0 + 1e-12
        s = make_spectrum([2 * band, 1.0], 1.0)
        assert s.eigenvalues[0] == 2 * band

    def test_clusters(self):
        s = make_spectrum([0.0, 1.0, 1.0 + 1e-12, 2.0], 1.0)
        assert s.multiplicity(1) == 2
        assert s.multiplicity(3) == 1
        assert cluster_indices(np.array([1.0, 1.5]), 1e-9) == ((0,), (1,))


class TestMerge:
    def test_two_disks(self):
        disk = sk.disk_spectrum(7)
        merged = sk.merge_spectra([disk, disk])
        assert list(merged.eigenvalues[:7]) == [0, 0, 1, 1, 1, 1, 2]
        assert merged.boundary_length == pytest.approx(4 * math.pi)
        assert merged.sigma_bar(2) == pytest.approx(4 * math.pi)

    def test_catenoid_plus_disks(self):
        t10 = sk.constant_T10().value
        for k in (2, 3, 5):
            parts = [sk.spectrum_for(sk.critical_catenoid_metric(), 10)]
            parts += [sk.disk_spectrum(10)] * (k - 1)
            merged = sk.merge_spectra(parts)
            assert merged.eigenvalues[k] == pytest.approx(1.0, abs=1e-12)
            want = 4 * math.pi / t10 + 2 * (k - 1) * math.pi
            assert merged.sigma_bar(k) == pytest.approx(want, abs=1e-9)

    def test_single_is_identity(self):
        s = sk.disk_spectrum(4)
        assert np.array_equal(sk.merge_spectra([s]).eigenvalues, s.eigenvalues)

    def test_empty_list_rejected(self):
        with pytest.raises(sk.InvalidParameterError):
            sk.merge_spectra([])

    @settings(max_examples=50)
    @given(spectrum_strategy(), spectrum_strategy(), spectrum_strategy())
    def test_associative_commutative(self, a, b, c):
        left = sk.merge_spectra([sk.merge_spectra([a, b]), c])
        right = sk.merge_spectra([a, sk.merge_spectra([c, b])])
        assert np.array_equal(left.eigenvalues, right.eigenvalues)
        assert left.boundary_length == pytest.approx(right.boundary_length, rel=1e-12)

    @settings(max_examples=30)
    @given(spectrum_strategy())
    def test_neutral_element(self, a):
        merged = sk.merge_spectra([a, EMPTY])
        assert np.array_equal(merged.eigenvalues, a.eigenvalues)
        assert merged.boundary_length == a.boundary_length


class TestCsv:
    def test_header_and_rows(self, tmp_path):
        write_csv(tmp_path / "disk.csv", spectrum_rows(sk.disk_spectrum(4)))
        lines = (tmp_path / "disk.csv").read_text().strip().splitlines()
        assert lines[0] == "k,sigma,sigma_bar,multiplicity"
        assert len(lines) == 5
        k, sigma, sigma_bar, mult = lines[2].split(",")
        assert k == "1" and float(sigma) == 1.0 and int(mult) == 2

    # one pass over the clusters: a per-row cluster scan took 8 s at count 3e4
    def test_large_count_rows_carry_their_cluster_sizes(self):
        spec = sk.cylinder_spectrum(1.0, count=30_000)
        rows = spectrum_rows(spec)
        assert [r["k"] for r in rows] == list(range(30_000))
        for k in (0, 1, 2, 3, 4, 15_001, 29_999):
            assert rows[k]["multiplicity"] == spec.multiplicity(k)
        assert sum(1.0 / r["multiplicity"] for r in rows) == pytest.approx(len(spec.clusters))
