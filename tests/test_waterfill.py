import importlib
import math
import warnings

import numpy as np
import pytest
from oracles import check_against_oracle

from slicepower import (
    RateInfeasibleError,
    Scheme,
    ZeroInterferenceError,
    embb_power,
    il_power,
    mutual_info_e,
    mutual_info_il,
    mutual_info_u,
    sic_power,
    waterfill,
)


def rate_sum_bits(gains, powers):
    return float(np.log2(1.0 + np.asarray(gains) * np.asarray(powers)).sum())


def random_instances(count, max_channels, seed, spread=3.0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        f = int(rng.integers(1, max_channels + 1))
        gains = 10.0 ** rng.uniform(-spread / 2, spread / 2, size=f)
        target = float(rng.uniform(0.5, 4.0)) * f
        yield gains, target


class TestWaterfill:
    def test_single_channel(self):
        assert waterfill(np.array([1.0]), 1.0) == pytest.approx([1.0])

    def test_symmetric_channels(self):
        assert waterfill(np.array([1.0, 1.0]), 2.0) == pytest.approx([1.0, 1.0])

    def test_exclusion_example(self):
        # full-set level 2*sqrt(10) would drive the weak channel negative;
        # after exclusion the level re-solves to 4
        powers = waterfill(np.array([1.0, 0.1]), 2.0)
        assert powers == pytest.approx([3.0, 0.0], abs=1e-12)

    def test_constraint_tightness(self):
        for gains, target in random_instances(300, 12, seed=2, spread=8.0):
            powers = waterfill(gains, target)
            assert rate_sum_bits(gains, powers) == pytest.approx(target, rel=1e-9)

    def test_kkt_structure(self):
        for gains, target in random_instances(100, 12, seed=3):
            powers = waterfill(gains, target)
            positive = powers > 0.0
            levels = powers[positive] + 1.0 / gains[positive]
            assert levels.max() - levels.min() <= 1e-9 * levels.max()
            if (~positive).any():
                # excluded channels would go negative at this level
                assert (1.0 / gains[~positive]).min() >= levels.max() * (1 - 1e-9)

    def test_total_power_monotone_in_target(self):
        gains = np.array([2.0, 0.7, 0.3, 1.1])
        totals = [waterfill(gains, t).sum() for t in np.linspace(0.5, 20.0, 24)]
        assert all(b >= a for a, b in zip(totals, totals[1:]))

    def test_wide_dynamic_range_is_stable(self):
        gains = 10.0 ** np.linspace(-9.5, 9.5, 12)
        powers = waterfill(gains, 48.0)
        assert np.isfinite(powers).all()
        assert rate_sum_bits(gains, powers) == pytest.approx(48.0, rel=1e-9)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = int(rng.integers(1, 4))
            gains = 10.0 ** rng.uniform(-1.0, 1.3, size=f)
            target = float(rng.uniform(0.5, 2.0)) * f
            powers = waterfill(gains, target)
            closed, oracle, step = check_against_oracle(gains, target, powers)
            assert oracle >= closed - step
            assert closed <= oracle + f * step + 1e-9 * closed

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            waterfill(np.array([]), 1.0)
        with pytest.raises(ValueError):
            waterfill(np.array([1.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            waterfill(np.array([1.0]), 0.0)

    @pytest.mark.parametrize("gain", [np.nan, np.inf])
    def test_rejects_nan_or_infinite_gain(self, gain):
        with pytest.raises(ValueError, match="strictly positive finite gains"):
            waterfill(np.array([1.0, gain]), 1.0)

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_rejects_nan_or_infinite_rate(self, rate):
        with pytest.raises(ValueError, match="positive and finite"):
            waterfill(np.array([1.0, 2.0]), rate)

    def test_rate_below_the_rounding_of_the_level(self):
        # rate + log2(1/g) rounds back to log2(1/g), so no level is above
        # its channel's; the best channel alone carries the rate
        powers = waterfill(np.array([1e-9, 2e-9]), 1e-20)
        assert powers[0] == 0.0
        assert 0.0 <= powers[1] <= 1e-12 / 2e-9

    def test_level_beyond_float_range_is_infeasible(self):
        assert waterfill(np.array([1.0]), 1023.0)[0] == 2.0**1023 - 1.0
        with pytest.raises(RateInfeasibleError, match="rate target 1024"):
            waterfill(np.array([1.0]), 1024.0)
        # one usable channel of six carries 6 x 86 bits, and its cancellation
        # floor 516 more: a level of about 2^1032
        gains = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        p_e = embb_power(gains, 86.0)
        assert np.isfinite(p_e).all()
        with pytest.raises(RateInfeasibleError, match="rate target 516"):
            sic_power(p_e, gains, 86.0, Scheme.NOMA)

    def test_subnormal_gain_is_unreachable(self):
        # 1/1e-310 overflows float64: the channel gets 0 and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert waterfill(np.array([1e-310, 1.0]), 1.0).tolist() == [0.0, 1.0]
            with pytest.raises(RateInfeasibleError, match="every gain"):
                waterfill(np.array([1e-310, 5e-324]), 1.0)


class TestEmbbPower:
    def test_single_channel_reference(self):
        assert embb_power(np.array([1.0]), 1.0) == pytest.approx([1.0])

    def test_meets_rate_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            gamma = rng.standard_exponential(12) * 100.0
            powers = embb_power(gamma, 4.0)
            assert mutual_info_e(powers, gamma) == pytest.approx(4.0, rel=1e-9)

    def test_zero_gain_channels_excluded(self):
        gamma = np.array([0.0, 2.0, 0.0, 1.0])
        powers = embb_power(gamma, 1.0)
        assert powers[0] == 0.0 and powers[2] == 0.0
        # target still counts every offered resource
        assert rate_sum_bits(gamma[[1, 3]], powers[[1, 3]]) == pytest.approx(4.0, rel=1e-9)

    def test_subnormal_gain_is_unreachable(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert embb_power(np.array([1e-310, 1.0, 0.0]), 1.0).tolist() == [0.0, 7.0, 0.0]

    def test_all_zero_gains_infeasible(self):
        with pytest.raises(RateInfeasibleError):
            embb_power(np.zeros(3), 1.0)

    @pytest.mark.parametrize("gamma", [np.array([]), np.ones((2, 2)), np.array([[0.0, 1.0]])])
    def test_rejects_empty_or_non_vector_gains(self, gamma):
        with pytest.raises(ValueError, match="non-empty vector"):
            embb_power(gamma, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_rejects_nan_or_negative_gain(self, bad):
        # neither may pass for a zero gain
        with pytest.raises(ValueError, match="non-negative"):
            embb_power(np.array([1.0, bad]), 1.0)

    @pytest.mark.parametrize("scale", [1e-3, 1e-1, 3.7, 1e2, 1e5])
    def test_scale_invariance(self, scale):
        # min sum P s.t. sum log2(1 + c g P) >= R is solved by P*(g) / c
        # (substitute P' = c P); this is why four acceptance C6 cells are red
        rng = np.random.default_rng(31)
        cases = [rng.standard_exponential(12) * 100.0 for _ in range(20)]
        cases.append(np.array([1e-3, 5.0, 4.0, 1e-4]))  # two weak channels dry
        cases.append(np.array([0.0, 2.0, 0.0, 1e-3, 1.0]))  # zero gains excluded
        for gamma in cases:
            base = embb_power(gamma, 1.5)
            scaled = embb_power(scale * gamma, 1.5)
            assert scaled.sum() == pytest.approx(base.sum() / scale, rel=1e-12)
            # a barely active channel's power is a difference of near-equal
            # terms, so entries are compared against the largest one
            np.testing.assert_allclose(scaled, base / scale, rtol=0.0,
                                       atol=1e-12 * base.max() / scale)
            assert np.all((scaled == 0.0) == (base == 0.0))


class TestSicPower:
    def test_oma_is_zero(self):
        out = sic_power(np.array([1.0, 2.0]), np.array([1.0, 1.0]), 1.0, Scheme.OMA)
        assert np.array_equal(out, np.zeros(2))

    def test_single_channel_no_interference(self):
        out = sic_power(np.array([0.0]), np.array([1.0]), 1.0, Scheme.NOMA)
        assert out == pytest.approx([1.0])

    def test_symmetric_case_against_oracle(self):
        # effective gains are gamma/(1+gamma*P_e) = 1/2 each; the tight
        # level is 2^(r_u) * 2 = 4, giving 2 per channel
        p_e = np.array([1.0, 1.0])
        gamma = np.array([1.0, 1.0])
        out = sic_power(p_e, gamma, 1.0, Scheme.NOMA)
        assert out == pytest.approx([2.0, 2.0], rel=1e-12)
        effective = gamma / (1.0 + gamma * p_e)
        closed, oracle, step = check_against_oracle(effective, 2.0, out)
        assert oracle >= closed - step

    def test_rejects_non_vectors(self):
        with pytest.raises(ValueError, match="must align"):
            sic_power(np.ones((1, 2)), np.array([[0.0, 1.0]]), 1.0, Scheme.NOMA)

    @pytest.mark.parametrize("p_e", [-0.5, np.nan])
    def test_rejects_negative_or_nan_power(self, p_e):
        with pytest.raises(ValueError, match="powers must be non-negative"):
            sic_power(np.array([1.0, p_e]), np.array([1.0, 2.0]), 1.0, Scheme.NOMA)

    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_rejects_nan_or_negative_gain(self, bad):
        with pytest.raises(ValueError, match="non-negative"):
            sic_power(np.array([1.0, 1.0]), np.array([1.0, bad]), 1.0, Scheme.NOMA)

    def test_floor_past_float_range_is_rejected_without_warning(self):
        # two usable channels of 22 carry 22 x 93 bits: a broadband power near
        # 2.8e307 whose product with gain 10 overflows; the reference's error
        gains = np.zeros(22)
        gains[1:3] = [1.0, 10.0]
        p_e = embb_power(gains, 93.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="strictly positive finite gains"):
                sic_power(p_e, gains, 93.0, Scheme.NOMA)
            with pytest.raises(ValueError, match="strictly positive finite gains"):
                sic_power(p_e[1:3], gains[1:3], 93.0, Scheme.NOMA)

    def test_meets_sic_rate_exactly(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            gamma = rng.standard_exponential(6) * 50.0
            p_e = rng.uniform(0.0, 2.0, size=6)
            out = sic_power(p_e, gamma, 0.75, Scheme.NOMA)
            assert mutual_info_u(out, p_e, gamma) == pytest.approx(
                0.75, rel=1e-9
            )


class TestIlPower:
    def test_two_channel_example_with_exclusion(self):
        # gains 1/P_e = [1, 1/4]; tight level 2^1 * 2 = 4 zeroes the
        # second channel, then the level re-solves to 2^2 * 1 = 4 - ...
        out = il_power(np.array([1.0, 4.0]), 1.0)
        assert out == pytest.approx([3.0, 0.0], abs=1e-12)
        closed, oracle, step = check_against_oracle(np.array([1.0, 0.25]), 2.0, out)
        assert oracle >= closed - step

    def test_symmetric_inputs_give_equal_outputs(self):
        out = il_power(np.array([2.0, 2.0, 2.0]), 0.5)
        assert out[0] == out[1] == out[2]

    def test_bound_rate_is_tight(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            p_e = rng.uniform(0.1, 5.0, size=5)
            out = il_power(p_e, 0.8)
            assert mutual_info_il(out, p_e) == pytest.approx(0.8, rel=1e-9)

    def test_zero_interference_entries_take_min_positive(self):
        out_sub = il_power(np.array([2.0, 0.0]), 1.0)
        out_ref = il_power(np.array([2.0, 2.0]), 1.0)
        assert out_sub == pytest.approx(out_ref)

    def test_rejects_nan_interference(self):
        with pytest.raises(ValueError, match="non-negative"):
            il_power(np.array([2.0, np.nan]), 1.0)

    def test_all_zero_interference_is_undefined(self):
        with pytest.raises(ZeroInterferenceError):
            il_power(np.zeros(4), 1.0)

    def test_subnormal_interference_is_a_near_perfect_channel(self):
        # 1/1e-310 overflows float64: the powers and the rate stay finite, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = il_power(np.array([1e-310, 1.0]), 1.0)
            assert out[1] == 0.0 and out[0] == pytest.approx(3e-310, rel=1e-9)
            assert mutual_info_il(out, [1e-310, 1.0]) == pytest.approx(1.0, rel=1e-9)
            scaled = il_power(np.array([1e-310, 3e-310, 0.0]), 2.0)
            assert scaled == pytest.approx(1e-310 * il_power(np.array([1.0, 3.0, 0.0]), 2.0),
                                           rel=1e-9, abs=0.0)
            # the smallest and the largest interference float together
            extremes = il_power(np.array([5e-324, np.finfo(float).max]), 1.0)
            assert extremes.tolist() == [1.5e-323, 0.0]
            rate = mutual_info_il([1.0, 1.0], [1e-310, 1.0])
        ln_ratio = 310.0 * math.log(10.0)  # ln(1 + 1e310), beyond float64
        assert rate == pytest.approx((ln_ratio + math.log(2.0)) / (2.0 * math.log(2.0)), rel=1e-12)

    def test_huge_power_ratio_at_normal_interference(self):
        # 1e300 / 1e-10 overflows float64 although the rate, ln(1e310)/ln 2, is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rate = mutual_info_il([1e300], [1e-10])
            mixed = mutual_info_il([1e300, 1.0], [1e-10, 1.0])
        assert rate == pytest.approx(310.0 * math.log2(10.0), rel=1e-12)
        assert mixed == pytest.approx((rate + 1.0) / 2.0, rel=1e-12)

    def test_finite_ratios_take_log1p_bit_for_bit(self):
        rng = np.random.default_rng(19)
        powers = rng.uniform(0.1, 5.0, (2, 50, 6)) * 10.0 ** rng.uniform(-8.0, 8.0, (2, 50, 6))
        for p_u, p_e in zip(*powers):
            expected = float(np.log1p(p_u / p_e).sum() / (math.log(2.0) * 6))
            assert mutual_info_il(p_u, p_e) == expected

    def test_small_normal_interference_keeps_the_reciprocal_path(self):
        # just above the cut-off, il_power is water-filling over 1 / P_e, bit for bit
        p_e = np.array([1e-300, 1.0])
        assert il_power(p_e, 1.0).tolist() == waterfill(1.0 / p_e, 2.0).tolist()
        rates = np.log1p(1.0 / p_e)
        assert mutual_info_il([1.0, 1.0], p_e) == float(rates.sum() / (2.0 * math.log(2.0)))


class TestWaterfillLookup:
    @pytest.mark.parametrize("zero_gain", [False, True])
    def test_stage_functions_call_waterfill_through_the_module(self, monkeypatch, zero_gain):
        # callers that rebind ``slicepower.waterfill.waterfill`` (the benchmark's
        # tracer, say) see every call, on the all-positive path and the masked one
        calls = []

        def counting(gains, rate_target):
            calls.append(len(gains))
            return waterfill(gains, rate_target)

        # the package re-exports the function under the module's name
        monkeypatch.setattr(importlib.import_module("slicepower.waterfill"), "waterfill", counting)
        gamma = np.array([0.0 if zero_gain else 0.5, 2.0, 1.0])
        p_e = embb_power(gamma, 1.0)
        sic_power(p_e, gamma, 1.0, Scheme.NOMA)
        assert calls == [2, 2] if zero_gain else calls == [3, 3]
