from dataclasses import fields

import numpy as np
import pytest

from knewimp import missingness
from knewimp.missingness import (
    Mechanism,
    MissingSpec,
    _draw,
    calibrate_bias,
    simulate,
)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def logit(p):
    return np.log(p / (1.0 - p))


class TestCalibrateBias:
    def test_zero_logits_half_rate(self):
        b = calibrate_bias(np.zeros(100), 0.5)
        assert abs(b) < 1e-6

    def test_zero_logits_closed_form(self):
        b = calibrate_bias(np.zeros(50), 0.3)
        assert b == pytest.approx(logit(0.3), abs=1e-5)

    def test_random_logits_hits_target(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logits = rng.standard_normal(int(rng.integers(5, 500))) * 2.0
            target = float(rng.uniform(0.05, 0.95))
            b = calibrate_bias(logits, target)
            assert abs(sigmoid(logits + b).mean() - target) <= 1e-6

    def test_monotone_in_target(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal(200)
        biases = [calibrate_bias(logits, t) for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a < b for a, b in zip(biases, biases[1:]))

    def test_target_bounds(self):
        with pytest.raises(ValueError):
            calibrate_bias(np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            calibrate_bias(np.zeros(3), 1.0)

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    @pytest.mark.parametrize("target", [1e-12, 1.0 - 1e-9])
    def test_extreme_rates_hit_target(self, scale, target):
        # The bracket must reach where sigmoid saturates to exactly 0 and 1.
        logits = np.random.default_rng(2).standard_normal(300) * scale
        b = calibrate_bias(logits, target)
        with np.errstate(over="ignore"):
            assert abs(sigmoid(logits + b).mean() - target) <= 1e-6

    @pytest.mark.parametrize(
        "logits", [np.zeros(0), np.array([np.nan, 1.0]), np.array([1.0, -np.inf])],
        ids=["empty", "nan", "inf"],
    )
    def test_empty_or_non_finite_logits_refused(self, logits):
        with pytest.raises(ValueError, match="logits"):
            calibrate_bias(logits, 0.3)


def mcar(n, d, rate, seed):
    # An MCAR mask depends only on the table's shape and the seed.
    return simulate(np.zeros((n, d)), MissingSpec(Mechanism.MCAR, rate, seed=seed))


class TestMcar:
    def test_rate_bounds_rejected(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                MissingSpec(Mechanism.MCAR, bad)

    def test_empirical_rate(self):
        mask = mcar(10_000, 10, 0.3, seed=5)
        missing = 1.0 - mask.mean()
        assert 0.285 <= missing <= 0.315

    def test_deterministic(self):
        a = mcar(50, 7, 0.4, seed=9)
        b = mcar(50, 7, 0.4, seed=9)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, mcar(50, 7, 0.4, seed=10))

    def test_binary_output(self):
        mask = mcar(40, 3, 0.5, seed=1)
        assert set(np.unique(mask)) <= {0.0, 1.0}


def make_truth(n=400, d=10, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0, d) + rng.normal(0, 2, d)


class TestMar:
    def test_observed_column_count(self):
        spec = MissingSpec(Mechanism.MAR, rate=0.3, seed=2)
        mask = simulate(make_truth(d=10), spec)
        fully_observed = (mask.min(axis=0) == 1.0).sum()
        assert fully_observed >= 3  # ceil(0.3 * 10), plus whatever stays lucky

    def test_selected_columns_all_ones(self):
        # The selection is recoverable: exactly the columns without any miss.
        spec = MissingSpec(Mechanism.MAR, rate=0.5, seed=4)
        truth = make_truth(n=2000, d=10, seed=1)
        mask = simulate(truth, spec)
        col_missing = (mask == 0.0).sum(axis=0)
        assert (col_missing == 0).sum() == 3

    def test_rate_calibration(self):
        spec = MissingSpec(Mechanism.MAR, rate=0.3, seed=7)
        truth = make_truth(n=20_000, d=10, seed=2)
        mask = simulate(truth, spec)
        maskable = mask.min(axis=0) < 1.0
        missing = 1.0 - mask[:, maskable].mean()
        assert 0.27 <= missing <= 0.33

    def test_deterministic(self):
        spec = MissingSpec(Mechanism.MAR, rate=0.4, seed=6)
        truth = make_truth(seed=5)
        assert np.array_equal(simulate(truth, spec), simulate(truth, spec))

    def test_bad_fraction(self):
        # ceil(0.3 * 1) = 1 column stays observed, which leaves none to mask.
        truth = make_truth(d=1)
        for mechanism in (Mechanism.MAR, Mechanism.MNAR):
            spec = MissingSpec(mechanism, rate=0.3, seed=0)
            with pytest.raises(ValueError, match="keeps 1 of 1 columns.*none left to mask"):
                simulate(truth, spec)

    def test_incomplete_truth_rejected(self):
        truth = make_truth()
        truth[0, 0] = np.nan
        with pytest.raises(ValueError, match="complete"):
            simulate(truth, MissingSpec(Mechanism.MAR, rate=0.3, seed=0))

    def test_retry_does_not_repeat_next_seed(self):
        # On 10 rows at rate 0.75 a maskable column often goes fully missing,
        # so many seeds need a second draw; it must not be seed s+1's first.
        truth = make_truth(n=10, d=4, seed=10)
        rate = 0.75

        def first_draw(seed):
            spec = MissingSpec(Mechanism.MAR, rate=rate, seed=seed)
            return _draw(truth, spec, np.random.default_rng(seed))

        retried = [s for s in range(200) if (first_draw(s).max(axis=0) == 0.0).any()]
        assert len(retried) >= 5
        for s in retried:
            mask = simulate(truth, MissingSpec(Mechanism.MAR, rate=rate, seed=s))
            assert not np.array_equal(mask, first_draw(s + 1))


class TestMnar:
    def test_overlay_rate_on_input_columns(self):
        truth = make_truth(n=40_000, d=10, seed=9)
        spec = MissingSpec(Mechanism.MNAR, rate=0.3, seed=23)
        mar_mask = simulate(truth, MissingSpec(Mechanism.MAR, rate=0.3, seed=23))
        mnar_mask = simulate(truth, spec)
        input_cols = np.where(mar_mask.min(axis=0) == 1.0)[0]
        assert input_cols.size == 3
        overlay_missing = 1.0 - mnar_mask[:, input_cols].mean()
        assert abs(overlay_missing - 0.3) <= 0.02

    def test_maskable_columns_keep_mar_rate(self):
        truth = make_truth(n=40_000, d=10, seed=10)
        spec = MissingSpec(Mechanism.MNAR, rate=0.3, seed=29)
        mar_mask = simulate(truth, MissingSpec(Mechanism.MAR, rate=0.3, seed=29))
        mnar_mask = simulate(truth, spec)
        maskable = np.where(mar_mask.min(axis=0) < 1.0)[0]
        missing = 1.0 - mnar_mask[:, maskable].mean()
        assert abs(missing - 0.3) <= 0.03

    def test_overlay_touches_only_input_columns(self):
        truth = make_truth(n=3000, d=10, seed=11)
        spec = MissingSpec(Mechanism.MNAR, rate=0.3, seed=31)
        mar_mask = simulate(truth, MissingSpec(Mechanism.MAR, rate=0.3, seed=31))
        mnar_mask = simulate(truth, spec)
        maskable = mar_mask.min(axis=0) < 1.0
        assert np.array_equal(mnar_mask[:, maskable], mar_mask[:, maskable])


class TestDispatchAndGuard:
    def test_dispatch(self):
        truth = make_truth(n=200, d=6, seed=12)
        for mech in Mechanism:
            spec = MissingSpec(mech, rate=0.3, seed=3)
            mask = simulate(truth, spec)
            assert mask.shape == truth.shape
            assert set(np.unique(mask)) <= {0.0, 1.0}

    @pytest.mark.parametrize("mechanism", list(Mechanism), ids=lambda m: m.value)
    def test_no_fully_missing_columns(self, mechanism):
        # Small n and high rate make fully missing columns likely without
        # the redraw guard.
        truth = make_truth(n=6, d=5, seed=13)
        spec = MissingSpec(mechanism, rate=0.85, seed=1)
        mask = simulate(truth, spec)
        assert mask.sum(axis=0).min() >= 1.0

    def test_exhausted_redraws_name_a_column_from_one(self, monkeypatch):
        monkeypatch.setattr(missingness, "MAX_MASK_ATTEMPTS", 1)
        truth = np.zeros((1, 4))
        spec = MissingSpec(Mechanism.MCAR, rate=0.9, seed=3)
        mask = _draw(truth, spec, np.random.default_rng(spec.seed))
        empty = np.flatnonzero(mask[0] == 0.0)
        assert empty.size
        with pytest.raises(RuntimeError, match=rf"\(column {empty[0] + 1}\) in 1 attempts"):
            simulate(truth, spec)

    def test_mcar_incomplete_truth_rejected(self):
        truth = make_truth()
        truth[0, 0] = np.nan
        with pytest.raises(ValueError, match="complete"):
            simulate(truth, MissingSpec(Mechanism.MCAR, rate=0.3, seed=0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MissingSpec(Mechanism.MCAR, rate=1.2)
        # The recipe's column share and overlay rate are fixed, not settings.
        assert [f.name for f in fields(MissingSpec)] == ["mechanism", "rate", "seed"]

    def test_mechanism_value_draws_its_mechanism(self):
        # "mcar" once drew the MAR mask bit for bit.
        truth = make_truth(n=200, d=6, seed=12)
        for mech in Mechanism:
            spec = MissingSpec(mech.value, rate=0.3, seed=3)
            assert spec.mechanism is mech
            assert np.array_equal(simulate(truth, spec), simulate(truth, MissingSpec(mech, 0.3, seed=3)))

    @pytest.mark.parametrize("bad", ["mcra", "MCAR", None])
    def test_unknown_mechanism_names_the_field(self, bad):
        with pytest.raises(ValueError, match="mechanism must be one of mcar, mar, mnar"):
            MissingSpec(bad, rate=0.3)

    @pytest.mark.parametrize("bad", [2.5, 3.0, True, -1], ids=["fraction", "whole-float", "bool", "negative"])
    def test_bad_seed_names_the_field(self, bad):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            MissingSpec(Mechanism.MCAR, rate=0.3, seed=bad)

    def test_numpy_integer_seed_accepted(self):
        spec = MissingSpec(Mechanism.MAR, rate=0.3, seed=np.int64(4))
        truth = make_truth(n=50, d=4, seed=14)
        assert np.array_equal(simulate(truth, spec), simulate(truth, MissingSpec(Mechanism.MAR, 0.3, seed=4)))
