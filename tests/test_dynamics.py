import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrack.dynamics import FixedVelocity, SinusoidJitter, Static, advance, trajectory


class TestStatic:
    def test_constant(self):
        theta, x = trajectory(Static(0.5), 100)
        assert np.all(x == 0.5)
        assert np.all(theta == math.asin(0.5))

    def test_validation(self):
        with pytest.raises(ValueError):
            Static(1.5)


class TestSinusoidJitter:
    def test_peak_without_jitter(self):
        model = SinusoidJitter(jitter_std=0.0)
        theta, x = trajectory(model, 250)
        assert theta[-1] == pytest.approx(math.pi / 3)
        assert x[-1] == pytest.approx(math.sin(math.pi / 3))

    def test_jitter_statistics(self):
        model = SinusoidJitter()
        rng = np.random.default_rng(0)
        theta, _ = trajectory(model, 20_000, rng)
        clean, _ = trajectory(SinusoidJitter(jitter_std=0.0), 20_000)
        resid = theta - clean
        assert resid.std() == pytest.approx(0.005, rel=0.05)

    def test_requires_rng(self):
        with pytest.raises(ValueError):
            trajectory(SinusoidJitter(), 10)

    def test_seeded_determinism(self):
        t1, _ = trajectory(SinusoidJitter(), 500, np.random.default_rng(9))
        t2, _ = trajectory(SinusoidJitter(), 500, np.random.default_rng(9))
        np.testing.assert_array_equal(t1, t2)


class TestFixedVelocity:
    def test_first_steps_and_reversal(self):
        model = FixedVelocity(0.064)
        theta, _ = trajectory(model, 40)
        assert theta[0] == pytest.approx(0.064)
        # rises monotonically until the bound, then reverses
        diffs = np.diff(theta)
        k = int(np.argmax(diffs < 0))
        assert k > 0
        assert np.all(diffs[:k] > 0)
        assert np.all(np.abs(theta) <= math.pi / 3 + 1e-12)

    def test_zero_velocity(self):
        theta, x = trajectory(FixedVelocity(0.0), 10)
        assert np.all(theta == 0.0)
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
        theta, x = trajectory(FixedVelocity(omega, bound=bound, theta0=start * bound), 300)
        assert np.all(np.abs(theta) <= bound + 1e-12)
        assert np.all(np.abs(x) <= 1.0)

    def test_advance_matches_trajectory(self):
        model = FixedVelocity(0.13)
        theta, _ = trajectory(model, 50)
        state = None
        for n in range(1, 51):
            t, _, state = advance(model, n, None, state)
            assert t == pytest.approx(theta[n - 1], abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedVelocity(-0.1)
        with pytest.raises(ValueError):
            FixedVelocity(0.1, bound=0.5, theta0=0.7)


def test_advance_rejects_bad_slot():
    with pytest.raises(ValueError):
        advance(Static(0.0), 0)
