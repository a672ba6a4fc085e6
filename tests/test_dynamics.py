import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrack.dynamics import FixedVelocity, SinusoidJitter, Static, initial_x, trajectory


class TestStatic:
    def test_constant(self):
        x = trajectory(Static(0.5), 100)
        assert np.all(x == 0.5)
        assert initial_x(Static(0.5)) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            Static(1.5)
        with pytest.raises(ValueError):
            trajectory(Static(0.0), 0)


class TestSinusoidJitter:
    def test_peak_without_jitter(self):
        model = SinusoidJitter(jitter_std=0.0)
        x = trajectory(model, 250)
        assert x[-1] == pytest.approx(math.sin(math.pi / 3))
        assert initial_x(model) == 0.0

    def test_jitter_statistics(self):
        model = SinusoidJitter()
        rng = np.random.default_rng(0)
        theta = np.arcsin(trajectory(model, 20_000, rng))
        clean = np.arcsin(trajectory(SinusoidJitter(jitter_std=0.0), 20_000))
        resid = theta - clean
        assert resid.std() == pytest.approx(0.005, rel=0.05)

    def test_requires_rng(self):
        with pytest.raises(ValueError):
            trajectory(SinusoidJitter(), 10)

    def test_seeded_determinism(self):
        x1 = trajectory(SinusoidJitter(), 500, np.random.default_rng(9))
        x2 = trajectory(SinusoidJitter(), 500, np.random.default_rng(9))
        np.testing.assert_array_equal(x1, x2)

    @pytest.mark.parametrize("jitter_std", [0.005, 0.0])
    def test_block_of_generators_is_per_trial_calls(self, jitter_std):
        # one call for T trials: row t is the call with rngs[t] alone, bit for bit
        model = SinusoidJitter(period=70, jitter_std=jitter_std)
        seeds = range(5)
        block = trajectory(model, 333, [np.random.default_rng(s) for s in seeds])
        assert block.shape == (5, 333)
        for row, s in zip(block, seeds):
            np.testing.assert_array_equal(row, trajectory(model, 333, np.random.default_rng(s)))

    def test_block_draws_only_the_jitter_rows(self):
        # each generator continues where its jitter row stopped
        rngs = [np.random.default_rng(s) for s in range(3)]
        trajectory(SinusoidJitter(), 40, rngs)
        for s, r in enumerate(rngs):
            expected = np.random.default_rng(s)
            expected.standard_normal(40)
            assert r.bit_generator.state == expected.bit_generator.state

    def test_amplitude_limited_to_endfire(self):
        SinusoidJitter(amplitude=-math.pi / 2)
        for amplitude in (math.pi / 2 + 1e-9, -3.0):
            with pytest.raises(ValueError, match="amplitude"):
                SinusoidJitter(amplitude=amplitude)


class TestFixedVelocity:
    def test_first_steps_and_reversal(self):
        model = FixedVelocity(0.064)
        theta = np.arcsin(trajectory(model, 40))
        assert theta[0] == pytest.approx(0.064)
        # rises monotonically until the bound, then reverses
        diffs = np.diff(theta)
        k = int(np.argmax(diffs < 0))
        assert k > 0
        assert np.all(diffs[:k] > 0)
        assert np.all(np.abs(theta) <= math.pi / 3 + 1e-12)

    def test_zero_velocity(self):
        x = trajectory(FixedVelocity(0.0), 10)
        assert np.all(x == 0.0)

    @given(
        st.floats(min_value=1e-4, max_value=math.pi),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_bound_by_more_than_omega(self, omega, start):
        # a reversed step lands inside [-bound, bound] only when omega <= bound
        bound = math.pi / 3
        if omega > bound:
            with pytest.raises(ValueError):
                FixedVelocity(omega, bound=bound, theta0=start * bound)
            return
        x = trajectory(FixedVelocity(omega, bound=bound, theta0=start * bound), 300)
        assert np.all(np.abs(np.arcsin(x)) <= bound + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedVelocity(-0.1)
        with pytest.raises(ValueError):
            FixedVelocity(0.1, bound=0.5, theta0=0.7)

    def test_bound_limited_to_endfire(self):
        x = trajectory(FixedVelocity(0.3, bound=math.pi / 2, theta0=-1.5), 50)
        assert np.all(np.abs(x) <= 1.0)
        for bound in (math.pi / 2 + 1e-9, 3.0):
            with pytest.raises(ValueError, match="bound"):
                FixedVelocity(0.1, bound=bound)
