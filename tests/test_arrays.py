import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrack.arrays import (
    ArrayConfig,
    BeamformingVector,
    array_response,
    complex_noise,
    conjugate_beamformer,
    dirichlet,
    dirichlet_parts,
    f_gain,
    f_gain_closed,
    log_likelihood,
    steering_vector,
    weighted_dirichlet,
)
from reference import (
    ChannelState,
    SnrConfig,
    from_weights,
    matched_response,
    normalize,
    observe,
    received_signal,
)

PILOT = (1 - 1j) / math.sqrt(2)
BETA = (1 + 1j) / math.sqrt(2)


class TestSteeringVector:
    def test_boresight_is_all_ones(self):
        a = steering_vector(ArrayConfig(4, 0.5), 0.0)
        np.testing.assert_allclose(a, np.ones(4), atol=1e-15)

    def test_two_element_half_wavelength(self):
        a = steering_vector(ArrayConfig(2, 0.5), 0.5)
        np.testing.assert_allclose(a, [1.0, -1.0j], atol=1e-15)

    @given(st.floats(min_value=-1.0, max_value=1.0), st.integers(min_value=2, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_norm_squared_equals_m(self, x, m):
        a = steering_vector(ArrayConfig(m, 0.5), x)
        assert np.linalg.norm(a) ** 2 == pytest.approx(m, rel=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            steering_vector(ArrayConfig(4), 1.5)

    @pytest.mark.parametrize("m", [2, 3, 8, 16, 33, 64])
    @pytest.mark.parametrize("d", [0.5, 0.37, 1.0])
    def test_array_input_stacks_the_scalar_vectors(self, m, d):
        # one steering vector per direction, each row the scalar call's bits
        cfg = ArrayConfig(m, d)
        x = np.random.default_rng(m).uniform(-1.0, 1.0, size=(6, 5))
        x[0, :3] = [-1.0, 0.0, 1.0]
        assert steering_vector(cfg, np.array(0.25)).shape == (m,)
        for block in (x[0], x):
            a = steering_vector(cfg, block)
            assert a.shape == block.shape + (m,)
            for idx in np.ndindex(block.shape):
                np.testing.assert_array_equal(a[idx], steering_vector(cfg, block[idx]))

    @pytest.mark.parametrize("bad", [1.0 + 1e-12, math.nan])
    def test_array_input_rejects_any_entry_out_of_range(self, bad):
        x = np.linspace(-1.0, 1.0, 7)
        x[3] = bad
        with pytest.raises(ValueError):
            steering_vector(ArrayConfig(4), x)

    def test_half_wavelength_alias(self):
        # at d = lambda/2, directions x and x - 2 produce identical vectors
        cfg = ArrayConfig(8, 0.5)
        np.testing.assert_allclose(
            steering_vector(cfg, 0.9), steering_vector(cfg, -1.0) * steering_vector(cfg, -0.1) / 1.0,
            atol=1e-12,
        )


class TestBeamformingVector:
    def test_entry_modulus(self):
        w = conjugate_beamformer(ArrayConfig(7, 0.5), 0.3)
        np.testing.assert_allclose(np.abs(w.weights), 1 / math.sqrt(7), atol=1e-15)
        assert np.linalg.norm(w.weights) == pytest.approx(1.0, abs=1e-12)

    def test_matched_at_zero_is_uniform(self):
        w = conjugate_beamformer(ArrayConfig(4, 0.5), 0.0)
        np.testing.assert_allclose(w.weights, np.full(4, 0.5), atol=1e-15)

    def test_from_weights_validates_modulus(self):
        with pytest.raises(ValueError):
            from_weights(np.array([1.0, 0.5, 0.5, 0.5]))

    def test_phases_wrapped(self):
        w = BeamformingVector([4.0, -4.0, 0.1])
        assert np.all(np.abs(w.phases) <= math.pi + 1e-12)

    def test_immutable(self):
        w = conjugate_beamformer(ArrayConfig(4), 0.0)
        with pytest.raises(AttributeError):
            w.phases = np.zeros(4)


class TestArrayResponse:
    @given(st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_matched_gain(self, v):
        cfg = ArrayConfig(8, 0.5)
        resp = array_response(conjugate_beamformer(cfg, v), cfg, v)
        assert resp == pytest.approx(math.sqrt(8), abs=1e-10)

    def test_cauchy_schwarz_bound(self):
        cfg = ArrayConfig(8, 0.5)
        rng = np.random.default_rng(0)
        for _ in range(200):
            w = BeamformingVector(rng.uniform(-math.pi, math.pi, 8))
            x = rng.uniform(-1, 1)
            assert abs(array_response(w, cfg, x)) <= math.sqrt(8) + 1e-9

    def test_purely_real_at_stable_point(self):
        # a non-central root of the update field: response has zero imaginary part
        cfg = ArrayConfig(8, 0.5)
        v = 0.5 + 2.0 / 7.0
        resp = array_response(conjugate_beamformer(cfg, v), cfg, 0.5)
        assert abs(resp.imag) < 1e-12
        assert abs(resp.real) > 0

    def test_matched_response_closed_form(self):
        cfg = ArrayConfig(16, 0.5)
        rng = np.random.default_rng(3)
        for _ in range(50):
            v, x = rng.uniform(-1, 1, 2)
            direct = array_response(conjugate_beamformer(cfg, v), cfg, x)
            closed = complex(matched_response(cfg, v, x))
            assert closed == pytest.approx(direct, abs=1e-10)


class TestDirichletKernels:
    def test_dirichlet_limits(self):
        # every term is 1 at psi = 2*pi*k, so the sum collapses to m
        assert complex(dirichlet(0.0, 9)) == pytest.approx(9.0)
        assert complex(dirichlet(2 * math.pi, 4)) == pytest.approx(4.0, abs=1e-6)
        assert complex(dirichlet(-2 * math.pi, 5)) == pytest.approx(5.0, abs=1e-6)

    def test_dirichlet_matches_sum(self):
        rng = np.random.default_rng(1)
        for m in (2, 5, 16):
            psi = rng.uniform(-8, 8, 64)
            direct = np.exp(1j * np.outer(psi, np.arange(m))).sum(axis=1)
            np.testing.assert_allclose(dirichlet(psi, m), direct, atol=1e-9)

    def test_dirichlet_keeps_the_shape_of_psi(self):
        psi = np.linspace(-3, 3, 6)
        assert dirichlet(1.0, 4).shape == ()
        np.testing.assert_array_equal(dirichlet(psi.reshape(2, 3), 4), dirichlet(psi, 4).reshape(2, 3))
        # a NaN leaves the limit at psi = 2*pi*k in place
        np.testing.assert_array_equal(dirichlet([math.nan, 0.0], 4), [complex(math.nan, math.nan), 4.0])

    def test_weighted_dirichlet_matches_sum(self):
        rng = np.random.default_rng(2)
        for m in (2, 8, 16):
            psi = np.concatenate([rng.uniform(-8, 8, 64), [0.0, 1e-9]])
            k = np.arange(m)
            direct = (k * np.exp(1j * np.outer(psi, k))).sum(axis=1)
            np.testing.assert_allclose(weighted_dirichlet(psi, m), direct, atol=1e-6)


class TestDirichletParts:
    """The real form (Re D, Im D, |D|^2) of the complex kernel."""

    @pytest.mark.parametrize("spacing", [0.5, 0.37])
    @pytest.mark.parametrize("m", [2, 3, 8, 16, 64])
    def test_matches_complex_dirichlet(self, m, spacing):
        cfg = ArrayConfig(m, spacing)
        rng = np.random.default_rng(m)
        # random offsets, and offsets at and near psi = 2*pi*k (u = k/spacing)
        grid = np.array([k / spacing for k in (-2, -1, 0, 1, 2)])
        near = np.concatenate([grid + e for e in (0.0, 1e-13, -1e-11, 3e-10, -1e-9, 1e-7, -1e-5)])
        u = np.concatenate([rng.uniform(-4, 4, 200), near])
        x = rng.uniform(-1, 1, u.size)
        v = x + u
        parts = dirichlet_parts(cfg, v, x, np.empty((5, u.size)))
        psi = cfg.phase_factor * (v - x)
        d = np.exp(1j * np.outer(psi, np.arange(m))).sum(axis=1)
        # the direct sum is good to ~1e-12*m; the closed form divides the
        # rounding of M*h and h (~eps*M*|h|) by sin(h), large next to the
        # limit threshold |sin h| = 1e-9 when M is not a power of 2
        h = 0.5 * psi
        tol = 1e-12 * m + 4 * np.finfo(float).eps * m * np.abs(h) / np.maximum(np.abs(np.sin(h)), 1e-9)
        assert np.all(np.abs(parts[0] - d.real) <= tol)
        assert np.all(np.abs(parts[1] - d.imag) <= tol)
        assert np.all(np.abs(parts[2] - (d.real**2 + d.imag**2)) <= 2 * m * tol)

    def test_im_only_gives_the_same_im(self):
        cfg = ArrayConfig(8, 0.5)
        v = np.linspace(-1, 1, 33)
        full = dirichlet_parts(cfg, v, 0.2, np.empty((5, v.size)))
        part = dirichlet_parts(cfg, v, 0.2, np.empty((5, v.size)), im_only=True)
        np.testing.assert_array_equal(part[1], full[1])


class TestObserve:
    def test_noise_free_matched(self):
        cfg = ArrayConfig(16, 0.5)
        snr = SnrConfig(pilot=PILOT, rho=10.0, no_noise=True)
        ch = ChannelState(0.3, BETA)
        y = observe(cfg, conjugate_beamformer(cfg, 0.3), ch, snr)
        assert y == pytest.approx(math.sqrt(16), abs=1e-12)

    def test_seeded_determinism(self):
        cfg = ArrayConfig(8, 0.5)
        snr = SnrConfig(pilot=PILOT, rho=5.0)
        ch = ChannelState(-0.2, BETA)
        w = conjugate_beamformer(cfg, 0.1)
        y1 = observe(cfg, w, ch, snr, np.random.default_rng(123))
        y2 = observe(cfg, w, ch, snr, np.random.default_rng(123))
        assert y1 == y2

    def test_monte_carlo_moments(self):
        # mean -> w^H a(x), complex variance -> 1/rho, within 3 sigma of the estimators
        cfg = ArrayConfig(8, 0.5)
        rho = 4.0
        snr = SnrConfig(pilot=PILOT, rho=rho)
        ch = ChannelState(0.4, BETA)
        w = conjugate_beamformer(cfg, 0.25)
        rng = np.random.default_rng(7)
        n = 100_000
        ys = np.array([observe(cfg, w, ch, snr, rng) for _ in range(n)])
        mean_expected = array_response(w, cfg, 0.4)
        mean_tol = 3 * math.sqrt(1 / (2 * rho) / n)
        assert abs(ys.mean() - mean_expected) < 2 * mean_tol
        resid = ys - mean_expected
        var = np.mean(resid.real**2 + resid.imag**2)
        assert var == pytest.approx(1 / rho, rel=3 / math.sqrt(n) * 3)


class TestReceivedSignal:
    def test_unit_pilot_gain_product(self):
        # p*beta = 1 for these constants, so r and y share the same signal part
        assert PILOT * BETA == pytest.approx(1.0)
        cfg = ArrayConfig(8, 0.5)
        snr = SnrConfig(pilot=PILOT, rho=10.0, no_noise=True)
        ch = ChannelState(0.2, BETA)
        w = conjugate_beamformer(cfg, 0.2)
        assert received_signal(cfg, w, ch, snr) == pytest.approx(observe(cfg, w, ch, snr), abs=1e-12)

    def test_noise_free_exact(self):
        cfg = ArrayConfig(4, 0.5)
        snr = SnrConfig(pilot=2.0, rho=7.0, no_noise=True)
        ch = ChannelState(0.6, 0.5j)
        w = conjugate_beamformer(cfg, -0.1)
        r = received_signal(cfg, w, ch, snr)
        assert r == pytest.approx(2.0 * 0.5j * array_response(w, cfg, 0.6), abs=1e-12)

    def test_normalize_matches_observe_distribution(self):
        from scipy import stats

        cfg = ArrayConfig(8, 0.5)
        snr = SnrConfig(pilot=PILOT, rho=2.0)
        ch = ChannelState(0.1, BETA)
        w = conjugate_beamformer(cfg, 0.3)
        rng1, rng2 = np.random.default_rng(11), np.random.default_rng(22)
        n = 100_000
        ya = np.array([normalize(received_signal(cfg, w, ch, snr, rng1), PILOT, BETA) for _ in range(n)])
        yb = np.array([observe(cfg, w, ch, snr, rng2) for _ in range(n)])
        assert stats.ks_2samp(ya.real, yb.real).pvalue > 1e-3
        assert stats.ks_2samp(ya.imag, yb.imag).pvalue > 1e-3

    def test_normalize_rejects_zero(self):
        with pytest.raises(ValueError):
            normalize(1.0 + 0j, 0.0, BETA)
        with pytest.raises(ValueError):
            normalize(1.0 + 0j, PILOT, 0.0)


class TestLogLikelihood:
    def test_maximum_at_match(self):
        cfg = ArrayConfig(8, 0.5)
        rho = 10.0
        w = conjugate_beamformer(cfg, 0.2)
        y = array_response(w, cfg, 0.2)
        assert log_likelihood(cfg, y, 0.2, w, rho) == pytest.approx(math.log(rho / math.pi))

    def test_argmax_recovers_direction(self):
        cfg = ArrayConfig(8, 0.5)
        x_true = 0.37
        w = conjugate_beamformer(cfg, x_true)
        y = array_response(w, cfg, x_true)
        grid = np.linspace(-1, 1, 4001)
        vals = [log_likelihood(cfg, y, g, w, 10.0) for g in grid]
        assert grid[int(np.argmax(vals))] == pytest.approx(x_true, abs=6e-4)

    def test_score_closed_form_at_match(self):
        # d logp/dx at the matched beamformer equals -2*sqrt(M)*(M-1)*pi*(d/lam)*rho*Im{y}
        cfg = ArrayConfig(8, 0.5)
        rho, x = 10.0, 0.45
        w = conjugate_beamformer(cfg, x)
        rng = np.random.default_rng(5)
        for _ in range(20):
            y = array_response(w, cfg, x) + complex_noise(rng, 1 / math.sqrt(rho))
            h = 1e-6
            fd = (log_likelihood(cfg, y, x + h, w, rho) - log_likelihood(cfg, y, x - h, w, rho)) / (2 * h)
            closed = -2 * math.sqrt(8) * 7 * math.pi * 0.5 * rho * y.imag
            assert fd == pytest.approx(closed, rel=1e-6)


class TestUpdateField:
    @given(st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_zero_at_match(self, x):
        assert f_gain(ArrayConfig(8, 0.5), x, x) == pytest.approx(0.0, abs=1e-12)

    def test_sum_and_closed_forms_agree(self):
        cfg = ArrayConfig(8, 0.5)
        u = np.linspace(-2, 2, 10_000)
        keep = np.abs(np.abs(u) % 2.0) > 1e-8  # away from removable singularities
        s = f_gain(cfg, u[keep], 0.0)
        c = f_gain_closed(cfg, u[keep], 0.0)
        np.testing.assert_allclose(c, s, atol=1e-10)

    def test_closed_form_singularities_use_limit(self):
        cfg = ArrayConfig(8, 0.5)
        assert f_gain_closed(cfg, 0.3, 0.3) == pytest.approx(0.0, abs=1e-12)
        assert f_gain_closed(cfg, 1.0, -1.0) == pytest.approx(0.0, abs=1e-12)

    def test_roots_with_negative_slope(self):
        from scipy import optimize

        cfg = ArrayConfig(8, 0.5)
        x = 0.5
        spacing = 2.0 / 7.0
        expected = [x + k * spacing for k in range(-5, 2)]
        for v0 in expected:
            lo, hi = v0 - 0.1 * spacing, v0 + 0.1 * spacing
            root = optimize.brentq(lambda v: f_gain(cfg, v, x), lo, hi, xtol=1e-13)
            assert root == pytest.approx(v0, abs=1e-9)
            h = 1e-7
            slope = (f_gain(cfg, root + h, x) - f_gain(cfg, root - h, x)) / (2 * h)
            assert slope < 0

    def test_slope_at_match(self):
        cfg = ArrayConfig(8, 0.5)
        h = 1e-6
        slope = (f_gain(cfg, 0.2 + h, 0.2) - f_gain(cfg, 0.2 - h, 0.2)) / (2 * h)
        expected = -math.sqrt(8) * 7 * math.pi * 0.5
        assert slope == pytest.approx(expected, rel=1e-6)


class TestValidation:
    def test_array_config(self):
        with pytest.raises(ValueError):
            ArrayConfig(1)
        with pytest.raises(ValueError):
            ArrayConfig(8, 0.0)

    def test_channel_state(self):
        with pytest.raises(ValueError):
            ChannelState(1.2, 1.0)
        with pytest.raises(ValueError):
            ChannelState(0.5, 0.0)

    def test_snr_config(self):
        with pytest.raises(ValueError):
            SnrConfig(pilot=0.0, rho=1.0)
        with pytest.raises(ValueError):
            SnrConfig(pilot=1.0, rho=0.0)
        assert SnrConfig.from_db(10.0).rho == pytest.approx(10.0)
        assert SnrConfig(pilot=1.0, rho=2.0, no_noise=True).noise_sigma(1.0) == 0.0
