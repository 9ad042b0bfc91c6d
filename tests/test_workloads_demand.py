"""Unit tests for repro.workloads.demand combinators."""

import numpy as np
import pytest

from repro.workloads.demand import (
    bimodal,
    constant,
    on_off,
    scaled,
    with_noise,
)


class TestConstant:
    def test_value(self):
        fn = constant(1.5)
        assert fn(0) == 1.5
        assert fn(10**9) == 1.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            constant(-1.0)


class TestOnOff:
    def test_square_wave(self):
        fn = on_off(on_level=4.0, off_level=0.5, period=10, duty=0.5)
        assert [fn(t) for t in range(10)] == [4.0] * 5 + [0.5] * 5

    def test_duty_cycle(self):
        fn = on_off(1.0, 0.0, period=10, duty=0.3)
        on_seconds = sum(1 for t in range(10) if fn(t) == 1.0)
        assert on_seconds == 3

    def test_phase_shift(self):
        base = on_off(1.0, 0.0, period=10, duty=0.5)
        shifted = on_off(1.0, 0.0, period=10, duty=0.5, phase=5)
        assert shifted(0) == base(5)
        assert shifted(5) == base(10 % 10)

    def test_duty_extremes(self):
        always_on = on_off(1.0, 0.0, period=10, duty=1.0)
        assert all(always_on(t) == 1.0 for t in range(20))
        always_off = on_off(1.0, 0.0, period=10, duty=0.0)
        assert all(always_off(t) == 0.0 for t in range(20))

    def test_validation(self):
        with pytest.raises(ValueError, match="period"):
            on_off(1.0, 0.0, period=0)
        with pytest.raises(ValueError, match="duty"):
            on_off(1.0, 0.0, period=10, duty=1.5)
        with pytest.raises(ValueError, match="levels"):
            on_off(-1.0, 0.0, period=10)


class TestBimodal:
    def test_low_and_high_phases(self):
        fn = bimodal(0.05, 0.35, period=10, low_fraction=0.5)
        values = {fn(t) for t in range(10)}
        assert values == {0.05, 0.35}

    def test_low_fraction(self):
        fn = bimodal(0.0, 1.0, period=10, low_fraction=0.7)
        low_seconds = sum(1 for t in range(10) if fn(t) == 0.0)
        assert low_seconds == 7


class TestNoise:
    def test_zero_sigma_is_identity(self):
        rng = np.random.default_rng(0)
        base = constant(2.0)
        assert with_noise(base, 0.0, rng) is base

    def test_noise_centred_on_base(self):
        rng = np.random.default_rng(0)
        fn = with_noise(constant(2.0), 0.05, rng)
        values = [fn(0) for _ in range(2000)]
        assert np.mean(values) == pytest.approx(2.0, rel=0.02)
        assert np.std(values) > 0

    def test_never_negative(self):
        rng = np.random.default_rng(0)
        fn = with_noise(constant(0.01), 2.0, rng)
        assert all(fn(0) >= 0.0 for _ in range(500))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            with_noise(constant(1.0), -0.1, np.random.default_rng(0))


class TestScaled:
    def test_modulation(self):
        fn = scaled(constant(2.0), lambda t: 0.5 if t < 10 else 2.0)
        assert fn(0) == 1.0
        assert fn(10) == 4.0

    def test_clips_negative_factor(self):
        fn = scaled(constant(2.0), lambda t: -1.0)
        assert fn(0) == 0.0
