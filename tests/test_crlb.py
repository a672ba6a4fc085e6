import math

import numpy as np
import pytest

from beamtrack.arrays import (
    ArrayConfig,
    BeamformingVector,
    array_response,
    complex_noise,
    conjugate_beamformer,
    steering_vector_deriv,
)
from beamtrack.crlb import (
    asymptotic_channel_crlb,
    fisher_information,
    max_fisher_information,
    min_crlb_x,
)
from reference import channel_deriv_norm_sq


class TestFisherInformation:
    def test_matched_attains_maximum(self):
        cfg = ArrayConfig(8, 0.5)
        for x in (-0.7, 0.0, 0.51):
            val = fisher_information(cfg, 10.0, x, conjugate_beamformer(cfg, x))
            assert val == pytest.approx(max_fisher_information(cfg, 10.0), rel=1e-12)

    def test_value_m8_10db(self):
        assert max_fisher_information(ArrayConfig(8, 0.5), 10.0) == pytest.approx(1960 * math.pi**2)

    def test_value_m2_0db(self):
        assert max_fisher_information(ArrayConfig(2, 0.5), 1.0) == pytest.approx(math.pi**2)

    def test_linear_in_rho(self):
        cfg = ArrayConfig(16, 0.5)
        assert max_fisher_information(cfg, 20.0) == pytest.approx(2 * max_fisher_information(cfg, 10.0))

    def test_never_exceeds_maximum(self):
        cfg = ArrayConfig(8, 0.5)
        rng = np.random.default_rng(0)
        imax = max_fisher_information(cfg, 3.0)
        for _ in range(10_000):
            w = BeamformingVector(rng.uniform(-math.pi, math.pi, 8))
            x = rng.uniform(-1, 1)
            assert fisher_information(cfg, 3.0, x, w) <= imax * (1 + 1e-12)

    def test_equality_only_at_matched_up_to_global_phase(self):
        cfg = ArrayConfig(8, 0.5)
        x = 0.3
        w = conjugate_beamformer(cfg, x)
        shifted = BeamformingVector(w.phases + 1.234)  # global phase keeps alignment
        assert fisher_information(cfg, 5.0, x, shifted) == pytest.approx(
            max_fisher_information(cfg, 5.0), rel=1e-12
        )
        perturbed = BeamformingVector(w.phases + np.array([0, 0, 0, 0.4, 0, 0, 0, 0]))
        assert fisher_information(cfg, 5.0, x, perturbed) < max_fisher_information(cfg, 5.0)

    def test_score_mean_and_variance(self):
        # empirical score statistics match the information value within 5%
        cfg = ArrayConfig(8, 0.5)
        rho, x = 10.0, 0.15
        w = conjugate_beamformer(cfg, 0.22)  # deliberately mismatched
        mu = array_response(w, cfg, x)
        slope = complex(np.vdot(w.weights, steering_vector_deriv(cfg, x)))
        rng = np.random.default_rng(42)
        n = 100_000
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2 * rho)
        scores = 2 * rho * ((noise).conjugate() * slope).real
        assert abs(scores.mean()) < 4 * scores.std() / math.sqrt(n)
        assert scores.var() == pytest.approx(fisher_information(cfg, rho, x, w), rel=0.05)
        assert (mu + noise[0]) is not None  # observation model sanity


class TestCrlbCurves:
    def test_min_crlb_first_slot(self):
        cfg = ArrayConfig(8, 0.5)
        assert min_crlb_x(cfg, 10.0, 1) == pytest.approx(1 / max_fisher_information(cfg, 10.0))

    def test_halves_when_n_doubles(self):
        cfg = ArrayConfig(8, 0.5)
        assert min_crlb_x(cfg, 10.0, 2000) == pytest.approx(min_crlb_x(cfg, 10.0, 1000) / 2)

    def test_value_m16(self):
        assert min_crlb_x(ArrayConfig(16, 0.5), 10.0, 1) == pytest.approx(1 / (18000 * math.pi**2))

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            min_crlb_x(ArrayConfig(8), 10.0, 0)


class TestChannelCrlb:
    def test_value_m16(self):
        assert asymptotic_channel_crlb(ArrayConfig(16, 0.5), 0.1, 1.0) == pytest.approx(31 * 0.1 / 45)

    def test_scale_invariance(self):
        cfg = ArrayConfig(16, 0.5)
        a = asymptotic_channel_crlb(cfg, 0.1, 1.0)
        b = asymptotic_channel_crlb(cfg, 0.7, 7.0)
        assert a == pytest.approx(b)

    def test_two_antennas(self):
        assert asymptotic_channel_crlb(ArrayConfig(2, 0.5), 0.3, 2.0) == pytest.approx(0.3 / 2.0)

    def test_consistent_with_derivative_norm(self):
        # ||d(beta a(x))/dx||^2 / I_max equals the closed-form channel bound
        cfg = ArrayConfig(16, 0.5)
        pilot, beta, rho = (1 - 1j) / math.sqrt(2), (1 + 1j) / math.sqrt(2), 10.0
        sigma2 = abs(pilot * beta) ** 2 / rho
        direct = channel_deriv_norm_sq(cfg, beta) / max_fisher_information(cfg, rho)
        assert direct == pytest.approx(asymptotic_channel_crlb(cfg, sigma2, abs(pilot) ** 2), rel=1e-12)

    def test_derivative_norm_matches_numeric(self):
        cfg = ArrayConfig(8, 0.5)
        beta = 0.7 - 0.2j
        deriv = beta * steering_vector_deriv(cfg, 0.33)
        assert np.sum(np.abs(deriv) ** 2) == pytest.approx(channel_deriv_norm_sq(cfg, beta), rel=1e-12)
