import math

import numpy as np
import pytest
from scipy import optimize, special

from beamtrack.analysis import (
    asymptotic_variance,
    convergence_bound,
    escape_time,
    inverse_square_tail_sum,
    lipschitz_constant,
    mainlobe,
    ode_trajectory,
    stability_threshold,
    stable_points,
)
from beamtrack.arrays import ArrayConfig, f_gain
from beamtrack.crlb import max_fisher_information
from beamtrack.trackers import alpha_star

CFG8 = ArrayConfig(8, 0.5)


class TestStablePoints:
    def test_m8_structure(self):
        sp = stable_points(CFG8, 0.5)
        assert sp.points.size == 7
        assert sp.spacing == pytest.approx(2 / 7)
        np.testing.assert_allclose(np.diff(sp.points), 2 / 7, atol=1e-9)
        assert np.any(np.abs(sp.points - 0.5) < 1e-12)  # x itself is a member

    def test_all_points_are_negative_slope_roots(self):
        sp = stable_points(CFG8, 0.5)
        for v0 in sp.points:
            root = optimize.brentq(
                lambda v: f_gain(CFG8, v, 0.5), v0 - 0.1 * sp.spacing, v0 + 0.1 * sp.spacing
            )
            assert root == pytest.approx(v0, abs=1e-9)

    def test_boundary_flags_consistent_with_field(self):
        for x in (-0.9, 0.0, 0.37, 0.93):
            sp = stable_points(CFG8, x)
            assert sp.upper_boundary_stable == (f_gain(CFG8, 1.0, x) >= 0)
            assert sp.lower_boundary_stable == (f_gain(CFG8, -1.0, x) <= 0)


class TestMainlobe:
    def test_m8_center(self):
        assert mainlobe(CFG8, 0.0) == pytest.approx((-0.25, 0.25))

    def test_clipped_at_edge(self):
        lo, hi = mainlobe(CFG8, 1.0)
        assert (lo, hi) == pytest.approx((0.75, 1.0))

    def test_contains_center(self):
        for x in np.linspace(-1, 1, 21):
            lo, hi = mainlobe(CFG8, x)
            assert lo <= x <= hi


class TestOde:
    def test_constant_at_fixed_point(self):
        _, v = ode_trajectory(CFG8, 0.3, 0.3, t_end=1.0, dt=0.001)
        np.testing.assert_allclose(v, 0.3, atol=1e-12)

    def test_monotone_approach_in_mainlobe(self):
        _, v = ode_trajectory(CFG8, 0.3, 0.12, t_end=5.0, dt=0.001)
        assert np.all(np.diff(v) >= -1e-12)
        assert np.all(v <= 0.3 + 1e-9)
        assert v[-1] == pytest.approx(0.3, abs=1e-6)

    def test_discrete_tracker_shadows_ode(self):
        # noise-free fixed-step recursion tracks the flow within O(alpha)
        x, v0 = 0.3, 0.15
        devs = {}
        for frac in (0.05, 0.02):
            alpha = frac / lipschitz_constant(CFG8)
            n_steps = int(6.0 / alpha)
            t_ode, v_ode = ode_trajectory(CFG8, x, v0, t_end=n_steps * alpha, dt=0.001)
            v = v0
            worst = 0.0
            for n in range(1, n_steps + 1):
                v = min(max(v + alpha * f_gain(CFG8, v, x), -1.0), 1.0)
                worst = max(worst, abs(v - np.interp(n * alpha, t_ode, v_ode)))
            devs[frac] = (worst, alpha)
        for worst, alpha in devs.values():
            assert worst <= 0.5 * alpha
        assert devs[0.02][0] < devs[0.05][0]

    def test_dt_guard(self):
        with pytest.raises(ValueError):
            ode_trajectory(CFG8, 0.0, 0.1, t_end=1.0, dt=1.0)


class TestEscapeTime:
    def test_smaller_delta_smaller_t(self):
        t1 = escape_time(CFG8, 0.3, 0.15, 0.02)
        t2 = escape_time(CFG8, 0.3, 0.15, 0.04)
        assert t1 < t2

    def test_diverges_as_start_approaches_target(self):
        ts = [escape_time(CFG8, 0.3, 0.3 - eps, 0.004) for eps in (0.05, 0.02, 0.01)]
        assert ts[0] < ts[1] < ts[2]
        assert escape_time(CFG8, 0.3, 0.3, 1e-6) == math.inf

    def test_rejects_large_delta(self):
        with pytest.raises(ValueError):
            escape_time(CFG8, 0.3, 0.15, 0.2)

    def test_ode_moves_at_least_delta(self):
        for x0, delta in ((0.15, 0.04), (0.2, 0.03), (0.42, 0.05)):
            t = escape_time(CFG8, 0.3, x0, delta)
            _, v = ode_trajectory(CFG8, 0.3, x0, t_end=t, dt=0.0005)
            assert abs(v[-1] - x0) >= delta


class TestVarianceAndThreshold:
    def test_lipschitz_value(self):
        assert lipschitz_constant(CFG8) == pytest.approx(math.sqrt(8) * 7 * math.pi * 0.5)
        assert lipschitz_constant(CFG8) == pytest.approx(31.10, abs=0.01)

    def test_lipschitz_bounds_difference_quotient(self):
        v = np.linspace(-1, 1, 20_001)
        f = np.asarray(f_gain(CFG8, v, 0.3))
        quot = np.abs(np.diff(f)) / np.diff(v)
        ell = lipschitz_constant(CFG8)
        assert quot.max() <= ell * (1 + 1e-6)
        # the bound is approached near v = x
        h = 1e-6
        slope = abs(f_gain(CFG8, 0.3 + h, 0.3) - f_gain(CFG8, 0.3 - h, 0.3)) / (2 * h)
        assert slope == pytest.approx(ell, rel=1e-6)

    def test_alpha_star_inverse_of_lipschitz(self):
        assert alpha_star(CFG8) * lipschitz_constant(CFG8) == pytest.approx(1.0, rel=1e-12)

    def test_threshold_is_half_alpha_star(self):
        assert stability_threshold(CFG8) == pytest.approx(alpha_star(CFG8) / 2)

    def test_variance_at_alpha_star_is_min_crlb(self):
        rho = 10.0
        sigma = asymptotic_variance(CFG8, rho, alpha_star(CFG8))
        assert sigma * max_fisher_information(CFG8, rho) == pytest.approx(1.0, abs=1e-12)

    def test_variance_blows_up_at_threshold(self):
        rho = 10.0
        thr = stability_threshold(CFG8)
        assert asymptotic_variance(CFG8, rho, thr * 1.001) > 100 * asymptotic_variance(
            CFG8, rho, alpha_star(CFG8)
        )
        with pytest.raises(ValueError):
            asymptotic_variance(CFG8, rho, thr)

    def test_alpha_star_is_unique_minimizer(self):
        rho = 10.0
        a_star = alpha_star(CFG8)
        h = 1e-7
        d = (asymptotic_variance(CFG8, rho, a_star + h) - asymptotic_variance(CFG8, rho, a_star - h)) / (2 * h)
        assert abs(d) < 1e-6 * asymptotic_variance(CFG8, rho, a_star) / a_star
        for a in (0.7 * a_star, 1.5 * a_star, 3 * a_star):
            assert asymptotic_variance(CFG8, rho, a) > asymptotic_variance(CFG8, rho, a_star)


class TestSeriesSum:
    @pytest.mark.parametrize("n0", [0.0, 10.0, 33.5, 1000.0])
    def test_matches_trigamma(self, n0):
        expected = float(special.polygamma(1, n0 + 1.0))
        assert inverse_square_tail_sum(n0) == pytest.approx(expected, rel=1e-12)


class TestConvergenceBound:
    X, X0, DELTA = 0.0, -0.1, 0.05

    def test_inapplicable_cases_are_explicit(self):
        a_star = alpha_star(CFG8)
        res = convergence_bound(CFG8, 10.0, a_star, 0.0, self.X, self.X0, self.DELTA)
        assert not res.applicable and res.value is None and res.reason
        res = convergence_bound(CFG8, 10.0, a_star, 10.0, self.X, self.X0, 0.5)
        assert not res.applicable and "delta" in res.reason
        res = convergence_bound(CFG8, 10.0, 100.0, 10.0, self.X, self.X0, self.DELTA)
        assert not res.applicable
        res = convergence_bound(CFG8, 10.0, a_star, 10.0, self.X, 0.9, self.DELTA)
        assert not res.applicable and "mainlobe" in res.reason

    def test_exponents_past_the_float_range_give_a_result_not_an_overflow(self):
        # C_e = exp(L*(T + a_1)) passes the float range (T ~ 5e7): the
        # step-size constraint cannot hold
        res = convergence_bound(CFG8, 10.0, alpha_star(CFG8), 1e3, 0.0, 0.05, 0.0499999999)
        assert not res.applicable and "step-size" in res.reason
        assert res.details["C_e"] == math.inf
        # only C_0's exponent 2*L*(T + alpha_max/(n0 + 1)) does: C_0 = 0 and the bound is 0
        cfg = ArrayConfig(2, 0.5)
        res = convergence_bound(cfg, 1e10, alpha_star(cfg), 1e9, 0.0, 1e-6, 1e-8)
        assert res.applicable and res.value == 0.0 and res.details["C0"] == 0.0

    def test_applicable_with_large_n0(self):
        res = convergence_bound(CFG8, 10.0, alpha_star(CFG8), 10.0, self.X, self.X0, self.DELTA)
        assert res.applicable
        assert 0.0 <= res.value <= 1.0
        assert res.details["C0"] > 0

    def test_monotone_in_n0(self):
        a_star = alpha_star(CFG8)
        vals = []
        for n0 in (10.0, 50.0, 1e5, 4e5):
            res = convergence_bound(CFG8, 10.0, a_star, n0, self.X, self.X0, self.DELTA)
            assert res.applicable
            vals.append(res.value)
        assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))
        assert vals[-1] > 0.5  # the bound becomes informative for heavily damped steps

    def test_monotone_in_rho(self):
        a_star = alpha_star(CFG8)
        vals = []
        for rho in (10.0, 31.6, 100.0):
            res = convergence_bound(CFG8, rho, a_star, 2e5, self.X, self.X0, self.DELTA)
            assert res.applicable
            vals.append(res.value)
        assert vals[0] < vals[1] < vals[2]
        assert all(v <= 1.0 for v in vals)
