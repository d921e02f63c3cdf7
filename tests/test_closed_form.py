import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steklov as sk
from steklov.closed_form import cylinder_branches, mobius_branches


def bisect(f, a, b, iters=200):
    """Independent root oracle for the transcendental constants."""
    fa = f(a)
    assert fa * f(b) < 0
    for _ in range(iters):
        c = 0.5 * (a + b)
        fc = f(c)
        if fc == 0:
            return c
        if (fc < 0) == (fa < 0):
            a, fa = c, fc
        else:
            b = c
    return 0.5 * (a + b)


# frozen from the bisection oracle above
T10_REF = 1.199678640257734
T21_EXACT = math.log(2.0 + math.sqrt(3.0)) / 2.0
T1_REF = 1.3668026001942144


class TestRootSolver:
    def test_t_coth_root(self):
        root = sk.solve_bracketed_root(lambda t: t - 1.0 / math.tanh(t), 1.0, 2.0)
        assert abs(root - T10_REF) < 1e-12
        assert abs(root - bisect(lambda t: t - 1.0 / math.tanh(t), 1.0, 2.0)) < 1e-12

    def test_known_logarithmic_root(self):
        root = sk.solve_bracketed_root(
            lambda t: 2.0 * math.tanh(2.0 * t) - 1.0 / math.tanh(t), 0.5, 1.0)
        assert abs(root - T21_EXACT) < 1e-12

    def test_tanh_linear_root(self):
        root = sk.solve_bracketed_root(lambda t: math.tanh(t) - 1.2 / t, 1.0, 2.0)
        assert abs(root - T1_REF) < 1e-12
        assert root > 1.36

    def test_no_sign_change_raises(self):
        with pytest.raises(sk.BracketError):
            sk.solve_bracketed_root(lambda t: t * t + 1.0, -1.0, 1.0)

    def test_nan_value_raises(self):
        with pytest.raises(sk.SolverError):
            sk.solve_bracketed_root(lambda t: math.nan if t > 0.5 else t - 0.7, 0.0, 1.0)

    def test_nonconvergence_raises(self, monkeypatch):
        # a sign step at 1e-300 under tol 1e-300 needs about 1000 bisections
        monkeypatch.setattr(sk.closed_form, "ROOT_TOL", 1e-300)
        with pytest.raises(sk.SolverError):
            sk.solve_bracketed_root(lambda t: 1.0 if t > 1e-300 else -1.0, -1.0, 1.0)


def _coth(t):
    return 1.0 / math.tanh(t)


# the constants' brackets, then generic ones: a root at either endpoint, a
# reversed bracket, a triple root, steep and flat crossings
BRENT_CASES = (
    [pytest.param(lambda t: t - _coth(t), 1.0, 2.0, id="T_10")]
    + [pytest.param(lambda t, k=k: k * math.tanh(k * t) - _coth(t), 1e-8, 2.0,
                    id=f"T_{k}1") for k in range(2, 11)]
    + [pytest.param(lambda t, k=k: k * math.tanh(k * t) - 1.2 / t, 1e-8, 3.0,
                    id=f"t_{k}") for k in range(1, 11)]
    + [pytest.param(lambda x: x - 1.0, 1.0, 3.0, id="root-at-a"),
       pytest.param(lambda x: x * x - 9.0, 1.0, 3.0, id="root-at-b"),
       pytest.param(lambda x: math.cos(x) - x, 2.0, -1.0, id="reversed"),
       pytest.param(lambda x: (x - 0.3) ** 3, -2.0, 5.0, id="triple-root"),
       pytest.param(lambda x: math.atan(50.0 * (x - 0.1)), -3.0, 4.0, id="steep"),
       pytest.param(lambda x: math.exp(x) - 1.0 - 1e-9, -10.0, 1.0, id="flat-tail")]
)


@pytest.mark.parametrize("f, a, b", BRENT_CASES)
def test_brent_port_matches_scipy_bitwise(f, a, b):
    from scipy.optimize import brentq
    expect = brentq(f, a, b, xtol=sk.closed_form.ROOT_TOL,
                    rtol=4.0 * np.finfo(float).eps, maxiter=200)
    assert sk.solve_bracketed_root(f, a, b) == expect


def test_import_graph_has_no_scipy_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sk.__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, steklov, steklov.cli, steklov.acceptance; "
            "print('scipy.optimize' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


class TestConstants:
    def test_T10(self):
        c = sk.constant_T10()
        assert c.residual <= 1e-12
        assert 1.19 < c.value < 1.21

    def test_Tk1_decreasing_in_k(self):
        values = [sk.constant_Tk1(k).value for k in range(2, 11)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(sk.constant_Tk1(k).residual <= 1e-12 for k in range(2, 11))

    def test_T21_closed_form(self):
        c = sk.constant_Tk1(2)
        assert abs(c.value - T21_EXACT) <= 1e-12
        assert abs(1.0 / math.tanh(c.value) - math.sqrt(3.0)) <= 1e-10

    def test_tk_identity(self):
        t1 = sk.constant_tk(1).value
        assert t1 > 1.36
        for k in range(1, 11):
            c = sk.constant_tk(k)
            assert c.residual <= 1e-12
            assert abs(k * c.value - t1) <= 1e-10


class TestBranches:
    def test_cylinder_branch_values(self):
        T = 1.7
        for br in cylinder_branches(4):
            if br.kind == "zero-linear":
                assert br.value(T) == pytest.approx(2.0 / T)
                assert br.multiplicity == 1
            elif br.kind == "even":
                assert br.value(T) == pytest.approx(br.mode * math.tanh(br.mode * T / 2))
                assert br.multiplicity == 2
            else:
                assert br.value(T) == pytest.approx(br.mode / math.tanh(br.mode * T / 2))

    def test_mobius_branch_parity(self):
        for br in mobius_branches(6):
            if br.mode % 2 == 0:
                assert br.kind == "even"
            else:
                assert br.kind == "odd"
        kinds = {br.kind for br in mobius_branches(6)}
        assert "zero-linear" not in kinds

    @given(st.floats(0.2, 5.0))
    def test_branch_values_increase_with_mode(self, T):
        for kind in ("even", "odd"):
            vals = [br.value(T) for br in cylinder_branches(6)
                    if br.kind == kind]
            assert all(b > a for a, b in zip(vals, vals[1:]))


class TestSpectra:
    def test_sigma0_is_zero(self):
        assert sk.cylinder_spectrum(1.0, count=5).eigenvalues[0] == 0.0
        assert sk.mobius_spectrum(1.0, count=5).eigenvalues[0] == 0.0

    def test_cylinder_T1_values(self):
        spec = sk.cylinder_spectrum(1.0, count=8)
        expect = [0.0, math.tanh(0.5), math.tanh(0.5), 2 * math.tanh(1.0),
                  2 * math.tanh(1.0), 2.0, 1 / math.tanh(0.5), 1 / math.tanh(0.5)]
        assert np.allclose(spec.eigenvalues, expect, rtol=1e-14)
        assert spec.boundary_length == pytest.approx(4 * math.pi)

    def test_sigma2bar_approaches_4pi_from_below(self):
        spec = sk.cylinder_spectrum(50.0, count=3)
        gap = sk.cylinder_sigma2bar_deficit(50.0)
        assert 0.0 < gap <= 1e-3
        assert spec.sigma_bar(2) + gap == pytest.approx(4 * math.pi, abs=1e-12)

    def test_triple_crossing_at_doubled_T10(self):
        t10 = sk.constant_T10().value
        spec = sk.cylinder_spectrum(2 * t10, rho_b=1.0, count=6)
        first3 = spec.eigenvalues[1:4]
        assert np.max(np.abs(first3 - 1.0 / t10)) < 1e-12
        assert spec.sigma_bar(1) == pytest.approx(4 * math.pi / t10, abs=1e-9)
        # linear branch meets the mode-1 tangent pair: a genuine triple
        assert spec.multiplicity(1) == 3
        assert spec.eigenvalues[4] > spec.eigenvalues[3] * (1 + 1e-9)

    def test_mobius_critical_height(self):
        t21 = sk.constant_Tk1(2).value
        spec = sk.mobius_spectrum(t21, count=5)
        assert spec.sigma_bar(1) == pytest.approx(2 * math.pi * math.sqrt(3.0), abs=1e-9)
        assert spec.sigma_bar(1) == pytest.approx(spec.sigma_bar(2), abs=1e-9)
        assert spec.multiplicity(1) >= 2

    def test_mobius_large_T_limit(self):
        spec = sk.mobius_spectrum(60.0, count=3)
        assert spec.eigenvalues[1] == pytest.approx(1.0, abs=1e-9)

    def test_disk_spectrum(self):
        spec = sk.disk_spectrum(7)
        assert list(spec.eigenvalues) == [0, 1, 1, 2, 2, 3, 3]
        assert spec.boundary_length == pytest.approx(2 * math.pi)

    def test_invalid_parameters(self):
        with pytest.raises(sk.InvalidParameterError):
            sk.cylinder_spectrum(0.0, count=4)
        with pytest.raises(sk.InvalidParameterError):
            sk.cylinder_spectrum(1.0, rho_b=-1.0, count=4)
        with pytest.raises(sk.InvalidParameterError):
            sk.mobius_spectrum(1.0, count=0)

    @settings(max_examples=40)
    @given(st.floats(0.05, 20.0), st.floats(0.05, 20.0))
    def test_normalized_values_independent_of_density(self, T, rho_b):
        a = sk.cylinder_spectrum(T, rho_b=rho_b, count=8)
        b = sk.cylinder_spectrum(T, rho_b=1.0, count=8)
        assert np.allclose(a.normalized, b.normalized, rtol=1e-12, atol=1e-12)

    @settings(max_examples=40)
    @given(st.floats(0.05, 20.0), st.floats(0.05, 20.0), st.floats(0.1, 10.0))
    def test_scaling_covariance(self, T, rho_b, c):
        base = sk.cylinder_spectrum(T, rho_b=rho_b, count=6)
        scaled = sk.cylinder_spectrum(T, rho_b=c * rho_b, count=6)
        assert np.allclose(scaled.eigenvalues, base.eigenvalues / c, rtol=1e-12)
        assert scaled.boundary_length == pytest.approx(c * base.boundary_length, rel=1e-12)


class TestSuprema:
    def test_cylinder_odd_indices(self):
        t10 = sk.constant_T10().value
        for k in (1, 2, 3):
            res = sk.invariant_supremum("cylinder", 2 * k - 1)
            assert res.achieved
            assert res.value == pytest.approx(4 * k * math.pi / t10, abs=1e-9)
            assert res.maximizer_T == pytest.approx(2 * t10 / k, rel=1e-9)

    def test_cylinder_k2_not_achieved(self):
        res = sk.invariant_supremum("cylinder", 2)
        assert not res.achieved
        assert res.maximizer_T is None
        assert res.value == pytest.approx(4 * math.pi, abs=1e-12)

    def test_cylinder_k4_closed_form(self):
        res = sk.invariant_supremum("cylinder", 4)
        assert res.value == pytest.approx(4 * math.pi * math.sqrt(3.0), abs=1e-9)

    def test_mobius_pairs_coincide(self):
        for k in (1, 2, 3):
            odd = sk.invariant_supremum("mobius", 2 * k - 1)
            even = sk.invariant_supremum("mobius", 2 * k)
            want = 4 * math.pi * k * math.tanh(2 * k * sk.constant_Tk1(2 * k).value)
            assert odd.value == pytest.approx(want, abs=1e-9)
            assert even.value == pytest.approx(want, abs=1e-9)

    def test_invalid_k(self):
        with pytest.raises(sk.InvalidParameterError):
            sk.invariant_supremum("cylinder", 0)

    @settings(max_examples=20, deadline=None)
    @given(surface=st.sampled_from(["cylinder", "mobius"]), k=st.integers(1, 60))
    def test_supremum_bounds_the_envelope(self, surface, k):
        spectrum = sk.cylinder_spectrum if surface == "cylinder" else sk.mobius_spectrum
        sigma_bar_k = lambda T: spectrum(T, count=k + 1).sigma_bar(k)
        res = sk.invariant_supremum(surface, k)
        envelope = np.array([sigma_bar_k(T) for T in np.logspace(-3.0, 3.0, 200)])
        assert envelope.max() <= res.value * (1.0 + 1e-12)
        # sigma_k(T) tends to the k-th smallest branch limit, n each
        assert res.value >= envelope[-1] * (1.0 - 1e-12)
        assert res.achieved == (res.maximizer_T is not None)
        if res.achieved:
            assert sigma_bar_k(res.maximizer_T) == pytest.approx(res.value, rel=1e-12)


class TestCriticalMetrics:
    def test_catenoid_metric(self):
        spec = sk.critical_catenoid_metric()
        t10 = sk.constant_T10().value
        assert spec.T == pytest.approx(2 * t10)
        s = sk.spectrum_for(spec, 5)
        assert np.max(np.abs(s.eigenvalues[1:4] - 1.0)) < 1e-12
        assert s.eigenvalues[4] > 1.0
        assert s.boundary_length == pytest.approx(4 * math.pi / t10)

    def test_mobius_metric(self):
        spec = sk.critical_mobius_metric()
        s = sk.spectrum_for(spec, 3)
        assert s.eigenvalues[1] == pytest.approx(1.0, abs=1e-12)
        assert s.boundary_length == pytest.approx(2 * math.pi * math.sqrt(3.0))
