import math
import tracemalloc

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
    cophased_beam,
    dirichlet,
    _dirichlet_rows,
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
EPS = np.finfo(float).eps


def direct_sum(psi, m, power=0):
    """Re and Im of D_m(psi) = sum_k exp(1j*k*psi), or with ``power=1`` of
    G_m(psi) = sum_k k*exp(1j*k*psi), each summed exactly (math.fsum) from
    libm's cos and sin of k*psi."""
    re = np.array([math.fsum(k**power * math.cos(k * p) for k in range(m)) for p in psi])
    im = np.array([math.fsum(k**power * math.sin(k * p) for k in range(m)) for p in psi])
    return re, im


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

    @pytest.mark.parametrize("m", [2, 8, 16, 64])
    def test_matches_the_complex_exponential(self, m):
        cfg = ArrayConfig(m, 0.5)
        x = np.concatenate([[-1.0, 0.0, 1.0], np.random.default_rng(m).uniform(-1.0, 1.0, 500)])
        theta = cfg.phase_factor * np.multiply.outer(x, cfg.antenna_indices)
        assert np.abs(steering_vector(cfg, x) - np.exp(-1j * theta)).max() <= 2 * EPS

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
            np.testing.assert_allclose(weighted_dirichlet(psi, m)[1], direct, atol=1e-6)

    @pytest.mark.parametrize("m", [2, 3, 8, 12, 16, 33, 64])
    def test_weighted_dirichlet_matches_the_direct_sum(self, m):
        # a dense grid, plus offsets of 1e-300 to 0.1 from psi = 0, +-2*pi and
        # +-4*pi, densest across the core's series branch (|tan(psi/2)| < 7e-3/m)
        offsets = np.concatenate([np.geomspace(1e-300, 1e-7, 30), np.geomspace(1e-7, 1e-1, 240)])
        lobes = [k * math.pi + sign * offsets for k in (-4, -2, 0, 2, 4) for sign in (1, -1)]
        psi = np.concatenate([np.linspace(-4 * math.pi - 1, 4 * math.pi + 1, 2001), *lobes])
        re, im = direct_sum(psi, m, power=1)
        g = weighted_dirichlet(psi, m)[1]
        assert np.abs(g.real - re).max() <= 1e-13 * m * m
        assert np.abs(g.imag - im).max() <= 1e-13 * m * m

    def test_weighted_dirichlet_keeps_the_shape_of_psi(self):
        psi = np.linspace(-3, 3, 6)
        assert [k.shape for k in weighted_dirichlet(1.0, 4)] == [(), ()]
        for flat, square in zip(weighted_dirichlet(psi, 4), weighted_dirichlet(psi.reshape(2, 3), 4)):
            np.testing.assert_array_equal(square, flat.reshape(2, 3))
        # a NaN leaves the limits m and m*(m-1)/2 at psi = 2*pi*k in place
        d, g = weighted_dirichlet([math.nan, 0.0, 2 * math.pi], 4)
        np.testing.assert_array_equal(d, [complex(math.nan, math.nan), 4.0, 4.0])
        np.testing.assert_array_equal(g, [complex(math.nan, math.nan), 6.0, 6.0])

    def test_weighted_dirichlet_returns_the_dirichlet_bits(self):
        # the KF's predicted pilot is D from the call that gives it G
        psi = np.concatenate([np.linspace(-9.0, 9.0, 1001), 2 * math.pi * np.arange(-3, 4), [math.nan, 1e-300]])
        for m in (2, 3, 8, 12, 16, 33):
            d, _ = weighted_dirichlet(psi, m)
            assert np.array_equal(d, dirichlet(psi, m), equal_nan=True)


class TestDirichletParts:
    """The real form (the core's rows: Re D, Im D, the two tangents) of the
    complex kernel; |D|^2 is rows[0]**2 + rows[1]**2, as the metrics form it."""

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
        assert np.all(np.abs(parts[0] ** 2 + parts[1] ** 2 - (d.real**2 + d.imag**2)) <= 2 * m * tol)

    # 99.9th-percentile errors (Re D, Im D, |D|^2) of the form
    # exp(j*(M-1)*h)*sin(M*h)/sin(h) with libm's sin and cos, on the dense
    # grid below against direct_sum; M = 12 and 33 include its grating-lobe
    # loss next to u = +-2
    SINE_FORM_P999 = {
        2: (4.44e-16, 1.11e-16, 1.78e-15),
        8: (7.66e-15, 1.07e-14, 4.26e-14),
        12: (2.79e-13, 4.64e-14, 6.74e-12),
        16: (3.38e-14, 4.80e-14, 2.27e-13),
        33: (7.85e-13, 1.64e-13, 5.32e-11),
    }

    @pytest.mark.parametrize("m", [2, 8, 12, 16, 33])
    def test_dense_grid_as_accurate_as_the_sine_form(self, m):
        # every point within twice the sine form's 99.9th-percentile error
        # plus four roundings of a value of size M (M^2 for |D|^2)
        cfg = ArrayConfig(m, 0.5)
        tiny = np.geomspace(1e-300, 1e-2, 150)
        u = np.concatenate([np.linspace(-2.0, 2.0, 4001), tiny, -tiny])
        re, im = direct_sum(cfg.phase_factor * u, m)
        parts = dirichlet_parts(cfg, u, 0.0, np.empty((5, u.size)))
        refs = (re, im, re**2 + im**2)
        rows = (parts[0], parts[1], parts[0] ** 2 + parts[1] ** 2)
        for row, ref, p999, scale in zip(rows, refs, self.SINE_FORM_P999[m], (m, m, m * m)):
            assert np.abs(row - ref).max() <= 2 * p999 + 4 * EPS * scale

    @pytest.mark.parametrize("m", [12, 16, 33])
    def test_grating_lobes_match_the_direct_sum(self, m):
        # psi within 1e-7 of +-2*pi: the reduced angle keeps full precision
        cfg = ArrayConfig(m, 0.5)
        u = np.array([2 - 7e-10, 2 - 3e-9, 2 - 1e-7, -2 + 5e-10])
        re, im = direct_sum(cfg.phase_factor * u, m)
        parts = dirichlet_parts(cfg, u, 0.0, np.empty((5, u.size)))
        assert np.abs(parts[0] - re).max() <= 1e-12
        assert np.abs(parts[1] - im).max() <= 1e-12

    @pytest.mark.parametrize("m", [2, 12, 16, 33])
    def test_leaves_the_core_rows(self, m):
        # one layout from the core to the metrics: rows 2-3 keep the tangents
        cfg = ArrayConfig(m, 0.5)
        rng = np.random.default_rng(m)
        v = np.concatenate([rng.uniform(-1, 1, 300), [0.25, 0.25 + 1e-12, -1.0, 1.0]])
        x = np.concatenate([rng.uniform(-1, 1, 300), [0.25, 0.25, 1.0, -1.0]])
        parts = dirichlet_parts(cfg, v, x, np.empty((5, v.size)))
        core = np.empty((5, v.size))
        np.subtract(v, x, out=core[3])
        core[3] *= 0.5 * cfg.phase_factor
        _dirichlet_rows(m, core)
        assert np.array_equal(parts[:4], core[:4])

    def test_fills_a_preallocated_buffer_without_temporaries(self):
        # the engine's slot loop evaluates the kernel into one (5, T) buffer
        # per chunk; no h reduces to exactly 0 here, so no temporary is made
        cfg = ArrayConfig(16, 0.5)
        rng = np.random.default_rng(7)
        v, x = rng.uniform(-1, 1, (2, 2048))
        assert np.all(v != x)
        out = np.empty((5, v.size))
        dirichlet_parts(cfg, v, x, out)  # warm-up
        tracemalloc.start()
        try:
            dirichlet_parts(cfg, v, x, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < v.nbytes


class TestVectorPath:
    def test_kernels_call_no_sin_cos_or_exp(self, monkeypatch):
        # the per-slot kernels take every sine and cosine from np.tan, which
        # numpy vectorises; np.sin, np.cos and complex np.exp run scalar loops
        def scalar_loop(*args, **kwargs):
            raise AssertionError("a per-slot kernel called np.sin, np.cos or np.exp")

        for name in ("sin", "cos", "exp"):
            monkeypatch.setattr(np, name, scalar_loop)
        cfg = ArrayConfig(8, 0.5)
        v = np.linspace(-1.0, 1.0, 9)  # holds v = x = 0.25: the limit branch
        dirichlet_parts(cfg, v, 0.25, np.empty((5, v.size)))
        dirichlet(v, 8)
        weighted_dirichlet(v, 8)  # v = 0 takes the series branch
        steering_vector(cfg, v)
        cophased_beam(steering_vector(cfg, v))


class TestCophasedBeam:
    """Least squares' data beam exp(1j*angle(h))/sqrt(M), formed as h/(|h|*sqrt(M))."""

    @pytest.mark.parametrize("m", [2, 8, 16])
    def test_entries_have_modulus_one_over_sqrt_m_and_the_phase_of_h(self, m):
        rng = np.random.default_rng(m)
        h = rng.standard_normal((64, m)) + 1j * rng.standard_normal((64, m))
        h *= np.geomspace(1e-150, 1e150, 64)[:, None]
        w = cophased_beam(h)
        np.testing.assert_allclose(np.abs(w), 1 / math.sqrt(m), rtol=4 * EPS, atol=0)
        np.testing.assert_allclose(w, np.exp(1j * np.angle(h)) / math.sqrt(m), rtol=0, atol=4 * EPS)

    def test_zero_entries_get_weight_one_over_sqrt_m(self):
        h = np.array([[0j, 1 + 1j, 0j, -2.0], [0j, 0j, 0j, 0j]])
        w = cophased_beam(h)
        assert w[0, 0] == w[0, 2] == 0.5
        np.testing.assert_array_equal(w[1], np.full(4, 0.5))
        np.testing.assert_allclose(w[0, [1, 3]], [(1 + 1j) / (2 * math.sqrt(2)), -0.5], rtol=0, atol=EPS)


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
