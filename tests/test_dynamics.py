import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrack.dynamics import FixedVelocity, SinusoidJitter, Static, moving, per_trial, trajectory


def truth(model, n_slots):
    """The (n,) truth of a model that draws nothing per trial."""
    return trajectory(model, n_slots, 1)[1]


class TestStatic:
    def test_constant(self):
        x0, xs = trajectory(Static(0.5), 100, 3)
        np.testing.assert_array_equal(x0, [0.5, 0.5, 0.5])
        assert xs.shape == (3, 100) and np.all(xs == 0.5)
        # a broadcast view of x0, so a chunk holds no (T, n) copy
        assert xs.strides[1] == 0 and np.shares_memory(xs, x0)

    def test_uniform_x_per_trial(self):
        # Static(None) draws trial t's x uniformly from rngs[t], and only that
        x0, xs = trajectory(Static(None), 20, 4, [np.random.default_rng(s) for s in range(4)])
        np.testing.assert_array_equal(x0, [np.random.default_rng(s).uniform(-1.0, 1.0) for s in range(4)])
        assert xs.shape == (4, 20) and xs.strides[1] == 0
        np.testing.assert_array_equal(xs[:, -1], x0)
        with pytest.raises(ValueError, match="rngs"):
            trajectory(Static(None), 20, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            Static(1.5)
        with pytest.raises(ValueError):
            trajectory(Static(0.0), 0, 1)


class TestPredicates:
    def test_moving_and_per_trial(self):
        models = {
            Static(0.2): (False, False),
            Static(None): (False, True),
            FixedVelocity(0.01): (True, False),
            SinusoidJitter(jitter_std=0.0): (True, False),
            SinusoidJitter(): (True, True),
        }
        for model, expected in models.items():
            assert (moving(model), per_trial(model)) == expected, model

    @pytest.mark.parametrize(
        "model", [Static(0.2), FixedVelocity(0.01), SinusoidJitter(jitter_std=0.0)], ids=["static", "fv", "sinusoid"]
    )
    def test_no_generator_read_unless_per_trial(self, model):
        rngs = [np.random.default_rng(s) for s in range(3)]
        x0, xs = trajectory(model, 30, 3, rngs)
        for s, r in enumerate(rngs):
            assert r.bit_generator.state == np.random.default_rng(s).bit_generator.state
        np.testing.assert_array_equal(xs, trajectory(model, 30, 3)[1])


class TestSinusoidJitter:
    def test_peak_without_jitter(self):
        model = SinusoidJitter(jitter_std=0.0)
        x0, xs = trajectory(model, 250, 4)
        # one row every trial shares
        assert xs.shape == (250,)
        assert xs[-1] == pytest.approx(math.sin(math.pi / 3))
        np.testing.assert_array_equal(x0, np.zeros(4))

    def test_jitter_statistics(self):
        model = SinusoidJitter()
        x0, xs = trajectory(model, 20_000, 1, [np.random.default_rng(0)])
        np.testing.assert_array_equal(x0, [0.0])
        theta = np.arcsin(xs[0])
        clean = np.arcsin(truth(SinusoidJitter(jitter_std=0.0), 20_000))
        resid = theta - clean
        assert resid.std() == pytest.approx(0.005, rel=0.05)

    def test_requires_rng(self):
        with pytest.raises(ValueError):
            trajectory(SinusoidJitter(), 10, 1)

    def test_seeded_determinism(self):
        _, x1 = trajectory(SinusoidJitter(), 500, 1, [np.random.default_rng(9)])
        _, x2 = trajectory(SinusoidJitter(), 500, 1, [np.random.default_rng(9)])
        np.testing.assert_array_equal(x1, x2)

    @pytest.mark.parametrize("jitter_std", [0.005, 0.0])
    def test_block_of_generators_is_per_trial_calls(self, jitter_std):
        # one call for T trials: row t is the call with rngs[t] alone, bit for
        # bit; an unjittered sinusoid is one row that every trial reads
        model = SinusoidJitter(period=70, jitter_std=jitter_std)
        seeds = range(5)
        _, block = trajectory(model, 333, 5, [np.random.default_rng(s) for s in seeds])
        assert block.shape == ((5, 333) if jitter_std else (333,))
        for row, s in zip(np.broadcast_to(block, (5, 333)), seeds):
            np.testing.assert_array_equal(row, trajectory(model, 333, 1, [np.random.default_rng(s)])[1].reshape(333))

    def test_block_draws_only_the_jitter_rows(self):
        # each generator continues where its jitter row stopped
        rngs = [np.random.default_rng(s) for s in range(3)]
        trajectory(SinusoidJitter(), 40, 3, rngs)
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
        theta = np.arcsin(truth(model, 40))
        assert theta[0] == pytest.approx(0.064)
        x0, _ = trajectory(FixedVelocity(0.064, theta0=0.2), 40, 2)
        np.testing.assert_array_equal(x0, [math.sin(0.2)] * 2)
        # rises monotonically until the bound, then reverses
        diffs = np.diff(theta)
        k = int(np.argmax(diffs < 0))
        assert k > 0
        assert np.all(diffs[:k] > 0)
        assert np.all(np.abs(theta) <= math.pi / 3 + 1e-12)

    def test_zero_velocity(self):
        x = truth(FixedVelocity(0.0), 10)
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
        x = truth(FixedVelocity(omega, bound=bound, theta0=start * bound), 300)
        assert np.all(np.abs(np.arcsin(x)) <= bound + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedVelocity(-0.1)
        with pytest.raises(ValueError):
            FixedVelocity(0.1, bound=0.5, theta0=0.7)

    def test_bound_limited_to_endfire(self):
        x = truth(FixedVelocity(0.3, bound=math.pi / 2, theta0=-1.5), 50)
        assert np.all(np.abs(x) <= 1.0)
        for bound in (math.pi / 2 + 1e-9, 3.0):
            with pytest.raises(ValueError, match="bound"):
                FixedVelocity(0.1, bound=bound)
