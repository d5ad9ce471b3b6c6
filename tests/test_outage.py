import math
import warnings

import numpy as np
import pytest

from slicepower import (
    CommonRandomOutage,
    ResourceGrid,
    Scheme,
    ZeroInterferenceError,
    estimate_outage,
    il_power,
    mutual_info_e,
    mutual_info_il,
    mutual_info_u,
    single_freq_power,
)
from slicepower.alloc import BcdOptions, descend_urllc_power
from slicepower.channel import drop
from slicepower.grid import spectral_efficiency
from slicepower import outage
from slicepower.outage import _sinr_rate_nats
from slicepower.units import snr_db_to_gain
from slicepower.waterfill import embb_power, sic_power

from oracles import (
    UncachedCommonRandomOutage, every_total, in_order_sum, one_shot_outage, one_shot_totals,
)

#: draws spanning three full blocks of the blocked kernels and a partial fourth
BLOCKS_DRAWS = 3 * 4096 + 5


def held_bytes(crn) -> int:
    """Bytes of the distinct ndarrays an evaluator's attributes hold,
    also inside tuples, lists and dicts (the near set)."""
    seen, stack, total = set(), list(vars(crn).values()), 0
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray) and id(value) not in seen:
            seen.add(id(value))
            total += value.nbytes
        elif isinstance(value, (tuple, list)):
            stack.extend(value)
        elif isinstance(value, dict):
            stack.extend(value.values())
    return total


class TestMutualInformation:
    def test_unit_snr_single_resource(self):
        assert mutual_info_u([1.0], [0.0], [1.0]) == pytest.approx(1.0)

    def test_zero_power_is_zero_rate(self):
        assert mutual_info_u([0.0, 0.0], [1.0, 1.0], [2.0, 3.0]) == 0.0

    def test_equal_powers_saturate_at_one_bit(self):
        # interference ratio 1 per resource as the SNR grows
        rate = mutual_info_u([5.0], [5.0], [1e12])
        assert rate == pytest.approx(1.0, rel=1e-9)

    def test_embb_rate_example(self):
        assert mutual_info_e([1.0, 3.0], [1.0, 1.0]) == pytest.approx(1.5)

    def test_embb_rate_zero_power(self):
        assert mutual_info_e([0.0, 0.0], [4.0, 4.0]) == 0.0

    def test_il_substitution_rule(self):
        assert mutual_info_il([2.0, 2.0], [2.0, 0.0]) == pytest.approx(1.0)

    def test_il_equal_powers(self):
        assert mutual_info_il([3.0, 3.0], [3.0, 3.0]) == pytest.approx(1.0)

    def test_il_needs_interference(self):
        with pytest.raises(ZeroInterferenceError):
            mutual_info_il([1.0], [0.0])


class TestEstimateOutage:
    def test_deterministic_given_seed(self):
        a = estimate_outage([2.0] * 4, [1.0] * 4, 1.0, 0.5, 20_000, seed=5)
        b = estimate_outage([2.0] * 4, [1.0] * 4, 1.0, 0.5, 20_000, seed=5)
        assert a == b

    def test_zero_power_always_in_outage(self):
        est = estimate_outage([0.0] * 3, [1.0] * 3, 1.0, 1.0, 1000, seed=1)
        assert est.p_hat == 1.0 and est.ci_halfwidth == 0.0

    def test_sure_outage_below_interference_bound(self):
        # uniform Pu <= (2^r - 1) Pe caps the rate below target for every draw
        est = estimate_outage([1.0] * 12, [1.0] * 12, 1.0, 1.0, 1000, seed=2)
        assert est.p_hat == 1.0

    def test_above_bound_is_sampled(self):
        est = estimate_outage([4.0] * 12, [1.0] * 12, 1.0, 1.0, 50_000, seed=3)
        assert 0.0 < est.p_hat < 1.0

    def test_nonuniform_vectors_accepted(self):
        p_u = np.array([1.0, 2.0, 0.5, 4.0])
        est = estimate_outage(p_u, np.zeros(4), 1.0, 0.5, 10_000, seed=4)
        assert 0.0 <= est.p_hat <= 1.0

    def test_ci_matches_binomial_formula(self):
        est = estimate_outage([1.0], [0.0], 1.0, 1.0, 10_000, seed=6)
        ref = 3.0 * math.sqrt(est.p_hat * (1 - est.p_hat) / est.trials)
        assert est.ci_halfwidth == pytest.approx(ref)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            estimate_outage([1.0], [0.0], 1.0, 1.0, 0, seed=1)
        with pytest.raises(ValueError):
            estimate_outage([1.0], [0.0], 0.0, 1.0, 10, seed=1)

    def test_rejects_no_resources_and_bad_rates_or_snrs(self):
        with pytest.raises(ValueError, match="F_u >= 1"):
            estimate_outage([], [], 1.0, 1.0, 10, seed=1)
        for r_u in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite rate"):
                estimate_outage([1.0], [0.0], 1.0, r_u, 10, seed=1)
        for gamma in (math.nan, math.inf):
            with pytest.raises(ValueError, match="mean SNR"):
                estimate_outage([1.0], [0.0], gamma, 1.0, 10, seed=1)
        # a zero rate is a legal, always-met target
        assert estimate_outage([1.0], [0.0], 1.0, 0.0, 10, seed=1).p_hat == 0.0

    def test_rejects_nan_powers(self):
        # NaN totals are never at or below the target, so NaN read as outage 0
        for p_u, p_e in (([math.nan, 1.0, 1.0], [0.0] * 3), ([1.0] * 3, [0.0, math.nan, 0.0])):
            with pytest.raises(ValueError, match="non-negative"):
                estimate_outage(p_u, p_e, 1.0, 1.0, 2000, seed=1)


class TestBlockedKernelMatchesOneShot:
    """``estimate_outage`` draws and sums in blocks; its per-draw totals and
    estimate equal those of one unblocked draw."""

    #: (Pu, Pe) per resource, cycled: no interference, interfered, no power,
    #: and a resource whose rate is capped far below the target
    RESOURCES = [(2.0, 0.0), (2.0, 0.5), (0.0, 0.5), (0.01, 1.0)]

    @staticmethod
    def _matches_one_shot(monkeypatch, p_u, p_e, trials, seed):
        """Estimate and per-block totals, checked against one unblocked draw."""
        totals, count = [], outage._outages

        def spy(total_nats, target_nats):
            totals.append(total_nats.copy())
            return count(total_nats, target_nats)

        monkeypatch.setattr(outage, "_outages", spy)
        est = estimate_outage(p_u, p_e, 4.0, 1.0, trials, seed=seed)
        assert est == one_shot_outage(p_u, p_e, 4.0, 1.0, trials, seed)
        assert np.array_equal(np.concatenate(totals), one_shot_totals(p_u, p_e, 4.0, trials, seed))
        return est, totals

    @pytest.mark.parametrize("trials", [1, 4095, 4096, 4097, 99_991])
    @pytest.mark.parametrize("f_count", [1, 3, 12])
    def test_totals_and_estimate_match(self, monkeypatch, trials, f_count):
        p_u, p_e = np.array([self.RESOURCES[f % 4] for f in range(f_count)]).T
        est, _ = self._matches_one_shot(monkeypatch, p_u, p_e, trials, 7)
        if trials == 99_991:
            assert 0.1 < est.p_hat < 0.4

    @pytest.mark.parametrize("extra", [-1, 0, 1, 2])
    @pytest.mark.parametrize("f_count", [1, 5, 12])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_block_edges_match(self, monkeypatch, uniform, f_count, extra):
        # one draw short of, at, and one past a block, and two blocks and one
        p_u, p_e = np.array([self.RESOURCES[f % 4] for f in range(f_count)]).T
        if uniform:
            p_u, p_e = np.full(f_count, 2.0), np.full(f_count, 0.5)
        rows = outage._block_rows(f_count)
        trials = rows + extra if extra < 2 else 2 * rows + 1
        _, totals = self._matches_one_shot(monkeypatch, p_u, p_e, trials, 8)
        assert [len(t) for t in totals[:-1]] == [rows] * (len(totals) - 1)

    @pytest.mark.parametrize("trials", [1, 4097])
    @pytest.mark.parametrize("f_count", [1, 3, 12])
    def test_sure_outage_matches(self, trials, f_count):
        # every resource capped, or unpowered: no draw can reach the target
        for p_u, p_e in ((np.full(f_count, 0.01), np.ones(f_count)), (np.zeros(f_count), np.zeros(f_count))):
            est = estimate_outage(p_u, p_e, 4.0, 1.0, trials, seed=7)
            assert est == one_shot_outage(p_u, p_e, 4.0, 1.0, trials, 7)
            assert est.p_hat == 1.0


class TestRowTotals:
    @pytest.mark.parametrize("f_count", [64, 128, 129, 136, 300])
    def test_wide_rows_equal_in_order_sum(self, f_count):
        # wide rows too add in resource order, with no split of long rows
        rng = np.random.default_rng(f_count)
        values = rng.exponential(size=(300, f_count)) * 10.0 ** rng.uniform(-8, 8, (300, f_count))
        got = outage._row_totals(values.T, np.empty(300))
        assert got.tobytes() == in_order_sum(values).tobytes()

    def test_one_negative_zero_rate_stays_negative(self):
        # the adds start from the first rate, not from 0.0
        got = outage._row_totals(np.array([[-0.0, 1.0]]), np.empty(2))
        assert got.tobytes() == np.array([-0.0, 1.0]).tobytes()


class TestSingleFrequencyPower:
    def test_reference_point(self):
        power = single_freq_power(1.0 / 3.0, snr_db_to_gain(61.0), 1e-5, p_e_f=1.0)
        assert power == pytest.approx(20.9, abs=0.05)

    def test_zero_rate_needs_no_power(self):
        assert single_freq_power(0.0, 100.0, 1e-3) == 0.0

    def test_small_epsilon_expansion(self):
        eps = 1e-6
        exact = single_freq_power(0.7, 50.0, eps, p_e_f=0.3)
        approx = (2**0.7 - 1.0) * (0.3 + 1.0 / (50.0 * eps))
        assert exact == pytest.approx(approx, rel=1e-5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monte_carlo_recovers_target(self, seed):
        rng = np.random.default_rng(seed)
        gamma = snr_db_to_gain(rng.uniform(40.0, 60.0))
        r_u = float(rng.uniform(0.3, 2.0))
        p_e = float(rng.uniform(0.0, 2.0))
        eps = 1e-2
        power = single_freq_power(r_u, gamma, eps, p_e)
        trials = 10**5
        est = estimate_outage([power], [p_e], gamma, r_u, trials, seed=seed + 100)
        assert abs(est.p_hat - eps) <= 3.0 * math.sqrt(eps * (1 - eps) / trials)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            single_freq_power(1.0, 10.0, 0.0)


class TestCommonRandomOutage:
    def test_monotone_under_coordinate_reduction(self):
        crn = CommonRandomOutage(1.0, 6, 0.8, draws=20_000, seed=9)
        rng = np.random.default_rng(10)
        p_e = rng.uniform(0.0, 1.0, size=6)
        for _ in range(20):
            p_u = rng.uniform(0.5, 8.0, size=6)
            base = crn.estimate(p_u, p_e).p_hat
            for f in range(6):
                reduced = p_u.copy()
                reduced[f] *= 0.9
                assert crn.estimate(reduced, p_e).p_hat >= base

    def test_coordinate_update_matches_full_recompute(self):
        crn = CommonRandomOutage(2.0, 4, 1.0, draws=5_000, seed=11)
        p_u = np.array([3.0, 2.0, 1.5, 4.0])
        p_e = np.array([0.5, 0.0, 1.0, 0.2])
        crn.attach(p_u, p_e)
        trial = crn.try_coordinate(2, 1.0)
        moved = p_u.copy()
        moved[2] = 1.0
        assert trial.p_hat == crn.estimate(moved, p_e).p_hat
        crn.commit(2, 1.0)
        assert crn.try_coordinate(0, 3.0).p_hat == crn.estimate(moved, p_e).p_hat

    def test_agrees_with_fresh_estimator(self):
        gamma, r_u = 1.0, 1.0
        p_u, p_e = [6.0] * 8, [1.0] * 8
        crn = CommonRandomOutage(gamma, 8, r_u, draws=10**5, seed=12)
        a = crn.estimate(p_u, p_e)
        b = estimate_outage(p_u, p_e, gamma, r_u, 10**5, seed=13)
        assert abs(a.p_hat - b.p_hat) <= a.ci_halfwidth + b.ci_halfwidth

    def test_rejects_bad_setup(self):
        for gamma, draws in ((0.0, 1000), (-1.0, 1000), (1.0, 0)):
            with pytest.raises(ValueError):
                CommonRandomOutage(gamma, 2, 1.0, draws=draws, seed=1)
        for f_count, r_u in ((0, 1.0), (2, -1.0)):
            with pytest.raises(ValueError):
                CommonRandomOutage(1.0, f_count, r_u, draws=1000, seed=1)

    def test_rejects_negative_powers(self):
        crn = CommonRandomOutage(1.0, 2, 1.0, draws=1000, seed=1)
        with pytest.raises(ValueError):
            crn.estimate([-5, -5], [0, 0])
        with pytest.raises(ValueError):
            crn.attach([1.0, 1.0], [0.0, -1.0])
        crn.attach([1.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            crn.try_coordinate(0, -5.0)
        with pytest.raises(ValueError):
            crn.commit(0, -5.0)

    def test_rejects_nan_powers(self):
        crn = CommonRandomOutage(1.0, 3, 1.0, draws=2000, seed=1)
        for p_u, p_e in (([math.nan, 1.0, 1.0], 0.0), (1.0, [0.0, math.nan, 0.0])):
            with pytest.raises(ValueError, match="non-negative"):
                crn.estimate(p_u, p_e)
            with pytest.raises(ValueError, match="non-negative"):
                crn.attach(p_u, p_e)
        crn.attach(1.0, 0.0)
        with pytest.raises(ValueError, match="non-negative"):
            crn.try_coordinate(0, math.nan)
        with pytest.raises(ValueError, match="non-negative"):
            crn.commit(0, math.nan)

    def test_a_subnormal_try_does_not_overflow(self):
        # the fall ln(p/v) is finite for the smallest positive v
        args = (snr_db_to_gain(20.0), 3, 1.0, 5_000, 13)
        new, old = CommonRandomOutage(*args), UncachedCommonRandomOutage(*args)
        new.attach([0.5, 0.2, 0.1], 0.0)
        old.attach([0.5, 0.2, 0.1], 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in range(3):
                assert new.try_coordinate(f, 5e-324).p_hat == old.try_coordinate(f, 5e-324).p_hat

    def test_requires_attach_before_updates(self):
        crn = CommonRandomOutage(1.0, 2, 1.0, draws=100, seed=1)
        with pytest.raises(RuntimeError):
            crn.try_coordinate(0, 1.0)

    def test_rejects_resources_outside_the_vector(self):
        # -1 used to alias resource F_u - 1 under a cache entry of its own,
        # which a commit on F_u - 1 left stale
        crn = CommonRandomOutage(1.0, 12, 1.0, draws=5_000, seed=7)
        crn.attach(3.0, 0.05)
        for f in (-1, 12):
            with pytest.raises(ValueError, match="outside 0..11"):
                crn.try_coordinate(f, 2.0)
            with pytest.raises(ValueError, match="outside 0..11"):
                crn.commit(f, 6.0)
        crn.commit(11, 6.0)
        moved = np.full(12, 3.0)
        moved[11] = 2.0
        assert crn.try_coordinate(11, 2.0).p_hat == crn.estimate(moved, 0.05).p_hat


class NearLog:
    """Spy on ``crn``'s near set: the draws each band try runs on, and how
    often the near set was built afresh or rebuilt wider."""

    def __init__(self, crn):
        self.lengths = []
        self.builds = self.widenings = 0
        columns = crn._near_columns

        def spy(f, width):
            before = crn._near
            out = columns(f, width)
            self.lengths.append(len(out[0]))
            if crn._near is not before:
                self.builds += before is None
                self.widenings += before is not None
            return out

        crn._near_columns = spy


class TestCachedColumnsAreBitExact:
    """The cached coordinate path gives the uncached oracle's bits."""

    @pytest.mark.parametrize("f_count", [1, 3, 12])
    @pytest.mark.parametrize("interfered", [False, True])
    def test_call_sequence_matches_oracle(self, f_count, interfered):
        # every draw is in outage at these powers
        self.check_call_sequence(f_count, interfered, scale=1.0)

    @pytest.mark.parametrize("f_count", [1, 3, 12])
    @pytest.mark.parametrize("interfered", [False, True])
    def test_selective_call_sequence_matches_oracle(self, f_count, interfered):
        # the near sets are selective and widen for the deeper tries
        self.check_call_sequence(f_count, interfered, scale=300.0)

    @staticmethod
    def check_call_sequence(f_count, interfered, scale):
        rng = np.random.default_rng(100 + f_count + 7 * interfered)
        args = (snr_db_to_gain(20.0), f_count, 1.0, BLOCKS_DRAWS, 31)
        new, old = CommonRandomOutage(*args), UncachedCommonRandomOutage(*args)
        log = NearLog(new)
        p_e = rng.uniform(0.0, 0.5, f_count) if interfered else np.zeros(f_count)
        p_u = scale * rng.uniform(0.02, 0.2, f_count)
        current = p_u.copy()

        def same(a, b):
            assert a.p_hat == b.p_hat
            assert np.array_equal(every_total(new), old._total)

        def tried(f, value):
            same(new.try_coordinate(f, value), old.try_coordinate(f, value))

        def commit(f, value):
            new.commit(f, value)
            old.commit(f, value)
            current[f] = value
            assert np.array_equal(every_total(new), old._total)

        def sweep(step):
            """Try every coordinate, as one descent sweep does."""
            for f in range(f_count):
                tried(f, max(0.0, current[f] - step))

        same(new.attach(p_u, p_e), old.attach(p_u, p_e))
        # a commit on a coordinate that was never tried
        commit(int(rng.integers(f_count)), scale * 0.05)
        same(new.estimate(p_u, p_e), old.estimate(p_u, p_e))
        for _ in range(40):
            f = int(rng.integers(f_count))
            value = scale * float(rng.uniform(0.0, 0.3))
            tried(f, value)
            tried(f, 0.0)
            tried(f, value)
            tried(f, 1.5 * current[f] + scale * 0.01)  # above the current value
            tried(f, current[f])
            commit(f, value)  # the value just tried
            tried(f, value)
            commit(f, scale * float(rng.uniform(0.0, 0.3)))  # not the value last tried
            g = int(rng.integers(f_count))
            tried(g, 0.0)
            commit(g, 0.0)
            commit(g, 0.0)  # the same value twice
            commit(int(rng.integers(f_count)), scale * float(rng.uniform(0.0, 0.3)))
            # a sweep with no change retries every coordinate at half the step
            step = scale * float(rng.uniform(0.0, 0.05))
            sweep(step)
            sweep(step / 2.0)
            # after a commit on one coordinate, every other one is tried again
            commit(int(rng.integers(f_count)), scale * float(rng.uniform(0.0, 0.3)))
            sweep(step / 2.0)
        # a try made before a fresh attach is not reused
        tried(0, scale * 0.1)
        sweep(0.0)
        same(new.attach(2.0 * p_u, p_e), old.attach(2.0 * p_u, p_e))
        current[:] = 2.0 * p_u
        tried(0, scale * 0.1)
        sweep(0.0)
        commit(0, scale * 0.1)

        if scale == 1.0:
            # every draw is in outage: the near set holds every draw
            assert set(log.lengths) == {BLOCKS_DRAWS}
        else:
            assert min(log.lengths) <= BLOCKS_DRAWS // 4
        # the near set is rebuilt after commits and widened for deeper tries
        assert log.builds >= 1 and log.widenings >= 1

    def test_ties_at_the_target_are_pivotal(self):
        # with r_u = 0 the target is 0; a lone powered resource carries
        # every total, so lowering it to 0 (a try over every draw) is an
        # outage everywhere, while a raise from 0 needs only the draws within
        # the margin of the target, and there are none
        args = (snr_db_to_gain(40.0), 12, 0.0, 4_000, 32)
        new, old = CommonRandomOutage(*args), UncachedCommonRandomOutage(*args)
        near_lengths = NearLog(new).lengths
        p_u, p_e = np.zeros(12), np.zeros(12)
        p_u[5] = 1.0
        assert new.attach(p_u, p_e).p_hat == old.attach(p_u, p_e).p_hat == 0.0
        for f in range(12):
            for value in (0.0, 0.5, 1.0, 2.0):
                assert new.try_coordinate(f, value).p_hat == old.try_coordinate(f, value).p_hat
        assert new.try_coordinate(5, 0.0).p_hat == 1.0
        # every try but those to 0 ran on the near set
        assert len(near_lengths) == 12 * 3 and near_lengths[3:6] == [0] * 3

    def test_descent_on_a_c8_drop_matches_oracle(self):
        grid = ResourceGrid(F=12, M=7, delta_f=180e3, T=1e-3)
        eps, draws = 1e-2, 20_000
        r_e = spectral_efficiency(8640.0, grid, grid.F, grid.M)
        r_u = spectral_efficiency(2160.0 / 7.0, grid, grid.F, 1)
        gamma_u = snr_db_to_gain(56.68)
        gamma_e = drop(808, 0, snr_db_to_gain(50.0), grid.F)
        p_e = embb_power(gamma_e, r_e)
        floor = sic_power(p_e, gamma_e, r_u, Scheme.NOMA)
        oracle = UncachedCommonRandomOutage(gamma_u, grid.F, r_u, draws, 5)
        # a table-like start: the uniform level that survives the worst interference
        level = 1e-3
        while True:
            est = oracle.estimate(np.full(grid.F, level), np.full(grid.F, p_e.max()))
            if est.p_hat + est.ci_halfwidth <= eps:
                break
            level *= 1.25
        start = np.maximum(level, floor)
        options = BcdOptions(draws=draws)
        crn = CommonRandomOutage(gamma_u, grid.F, r_u, draws, 5)
        log = NearLog(crn)
        new_p, new_sweeps = descend_urllc_power(start, floor, p_e, crn, eps, options)
        old_p, old_sweeps = descend_urllc_power(start, floor, p_e, oracle, eps, options)
        assert np.array_equal(new_p, old_p)
        assert new_sweeps == old_sweeps
        # the descent both rejects moves and leaves entries above the floor
        assert new_sweeps > 10 and np.any(new_p > floor)
        # and the tries run on near sets of a few percent of the draws
        assert len(log.lengths) > 100 and max(log.lengths) <= draws // 20
        # the live set stays a small share of the draws, so the evaluator
        # holds the draws and little more than a few draws-long vectors
        assert 0 < len(crn._idx) <= draws // 5
        assert held_bytes(crn) < 8 * draws * (grid.F + 4)
        # a run of deep cuts on one coordinate, from well above the start, with
        # tries of the others at half power and at the floor: each commit drops
        # the near set and the deeper tries rebuild it wider
        builds, widenings = log.builds, log.widenings
        high = 4.0 * start
        assert crn.attach(high, p_e).p_hat == oracle.attach(high, p_e).p_hat
        for value in high[0] * 0.7 ** np.arange(1, 9):
            crn.commit(0, value)
            oracle.commit(0, value)
            for f in range(1, grid.F):
                for trial in (0.5 * high[f], floor[f]):
                    new, old = crn.try_coordinate(f, trial), oracle.try_coordinate(f, trial)
                    assert new.p_hat == old.p_hat
        assert np.array_equal(every_total(crn), oracle._total)
        assert log.builds == builds + 8 and log.widenings >= widenings + 8

    def test_band_margin_covers_the_rounding_of_a_fall(self):
        # One resource, so each total is its rate; near 42 nats the totals
        # sit on a grid of ulp(42) ~ 7e-15, far coarser than the rounding of
        # ln 3.  A try from p = 3 to v = 1 lowers a total by the rounded
        # fall fl(log1p(3 g)) - fl(log1p(g)), which may exceed fl(ln 3) by a
        # grid step although the exact fall is below ln 3.  Among the gains
        # whose try lands at or below the target, pick one whose total lies
        # above fl(t + ln 3): only the band's margin keeps it in the near set.
        p, v, args = 3.0, 1.0, (1.0, 1, 60.0, 4, 34)
        new, old = CommonRandomOutage(*args), UncachedCommonRandomOutage(*args)
        log, t = NearLog(new), new.target_nats
        gains = math.expm1(t) / v * (1.0 + np.arange(-300, 300) * 2.0**-52)
        edge = (np.log1p(gains * v) <= t) & (np.log1p(gains * p) > t + math.log(p / v))
        assert edge.any(), "no rounding knife-edge found"
        new._gamma[:], old.gamma[:] = gains[edge][0], gains[edge][0]
        assert new.attach([p], [0.0]).p_hat == old.attach([p], [0.0]).p_hat == 0.0
        assert new.try_coordinate(0, v).p_hat == old.try_coordinate(0, v).p_hat == 1.0
        assert log.lengths == [4]

    def test_a_draw_just_above_the_band_is_left_out(self):
        # Two draws on one resource, with totals on either side of the near
        # set's edge fl(t + W), W = ln(p/v) (1 + 1e-6) + 1e-6: the try runs on
        # the first draw only, and the second is out of reach of the outage.
        p, v, args = 2.0, 1.0, (1.0, 1, 30.0, 2, 35)
        new, old = CommonRandomOutage(*args), UncachedCommonRandomOutage(*args)
        edge = new.target_nats + (math.log(p / v) * (1.0 + 1e-6) + 1e-6)
        gains = math.expm1(edge) / p * (1.0 + np.arange(-64, 64) * 2.0**-52)
        totals = np.log1p(gains * p)
        pair = [gains[totals <= edge][-1], gains[totals > edge][0]]
        assert np.log1p(pair[1] * p) == math.nextafter(edge, math.inf)
        new._gamma[0], old.gamma[:, 0] = pair, pair
        assert new.attach([p], [0.0]).p_hat == old.attach([p], [0.0]).p_hat == 0.0
        log = NearLog(new)
        assert new.try_coordinate(0, v).p_hat == old.try_coordinate(0, v).p_hat == 0.0
        assert log.lengths == [1]
        # a deeper try widens the near set to both draws
        assert new.try_coordinate(0, 0.999 * v).p_hat == old.try_coordinate(0, 0.999 * v).p_hat
        assert log.lengths == [1, 2] and log.widenings == 1


class TestLiveSet:
    """Commits move the live draws only; the others catch up when a try needs them."""

    def test_commits_touch_only_live_draws(self, monkeypatch):
        args = (snr_db_to_gain(20.0), 12, 1.0, BLOCKS_DRAWS, 36)
        new, old = CommonRandomOutage(*args), UncachedCommonRandomOutage(*args)
        rng = np.random.default_rng(36)
        p_u, p_e = rng.uniform(10.0, 30.0, 12), rng.uniform(0.0, 0.5, 12)
        assert new.attach(p_u, p_e).p_hat == old.attach(p_u, p_e).p_hat
        assert new.try_coordinate(0, 0.9 * p_u[0]).p_hat == old.try_coordinate(0, 0.9 * p_u[0]).p_hat
        live = len(new._idx)
        assert 0 < live < BLOCKS_DRAWS // 4
        shapes, rates = [], outage._sinr_rate_nats

        def spy(gamma, *args, **kwargs):
            shapes.append(np.shape(gamma))
            return rates(gamma, *args, **kwargs)

        monkeypatch.setattr(outage, "_sinr_rate_nats", spy)
        attach_totals = new._t0.copy()
        for f in range(12):
            new.commit(f, 0.99 * p_u[f])
            old.commit(f, 0.99 * p_u[f])
        # one rate column over the live draws per commit, and no other total moved
        assert shapes == [(live,)] * 12 and len(new._idx) == live
        assert np.array_equal(new._t0, attach_totals)
        assert np.array_equal(every_total(new), old._total)

    def test_a_widening_past_half_the_draws_makes_every_draw_live(self):
        # about half the draws are in outage at the attach vector, so the first
        # try's live set would pass half the draws: it takes them all, in place
        args = (snr_db_to_gain(20.0), 12, 1.0, BLOCKS_DRAWS, 36)
        new, old = CommonRandomOutage(*args), UncachedCommonRandomOutage(*args)
        rng = np.random.default_rng(36)
        p_u, p_e = rng.uniform(7.0, 21.0, 12), rng.uniform(0.0, 0.5, 12)
        assert new.attach(p_u, p_e).p_hat == old.attach(p_u, p_e).p_hat
        new.commit(3, 0.9 * p_u[3])
        old.commit(3, 0.9 * p_u[3])
        assert len(new._idx) == 0
        assert new.try_coordinate(0, 0.9 * p_u[0]).p_hat == old.try_coordinate(0, 0.9 * p_u[0]).p_hat
        assert new._t0 is None and len(new._idx) == BLOCKS_DRAWS
        assert np.array_equal(every_total(new), old._total)

    def test_a_full_sync_matches_the_oracle_within_todays_memory(self):
        # without interference a try or commit to 0 has no fall bound: the
        # first such try makes every draw live, and the session goes on over
        # all of them with tries, commits to 0 and raises
        f_count, draws = 6, BLOCKS_DRAWS
        args = (snr_db_to_gain(20.0), f_count, 1.0, draws, 37)
        new, old = CommonRandomOutage(*args), UncachedCommonRandomOutage(*args)
        rng = np.random.default_rng(37)
        p_u, p_e = rng.uniform(20.0, 60.0, f_count), np.zeros(f_count)
        current = p_u.copy()

        def tried(f, value):
            assert new.try_coordinate(f, value).p_hat == old.try_coordinate(f, value).p_hat

        def commit(f, value):
            new.commit(f, value)
            old.commit(f, value)
            current[f] = value
            assert np.array_equal(every_total(new), old._total)

        assert new.attach(p_u, p_e).p_hat == old.attach(p_u, p_e).p_hat
        for f in range(f_count):
            tried(f, 0.9 * current[f])
            commit(f, 0.9 * current[f] if f % 2 else 1.2 * current[f])
        assert 0 < len(new._idx) < draws
        tried(2, 0.0)
        assert new._t0 is None and np.array_equal(new._idx, np.arange(draws))
        # no more than the eager layout, near set aside: the draws, a rate per
        # draw and resource, and three draws-long vectors
        assert held_bytes(new) <= 8 * draws * (2 * f_count + 3)
        for f in range(f_count):
            tried(f, 0.5 * current[f])
            tried(f, 0.0)
            commit(f, 0.0 if f % 3 == 0 else 1.5 * current[f])
            tried(f, 2.0)  # a raise from 0
            tried((f + 1) % f_count, 0.7 * current[(f + 1) % f_count])
            commit(f, 2.0 if f % 3 == 0 else 0.8 * current[f])
            assert held_bytes(new) <= 8 * draws * (2 * f_count + 3)
        # a fresh attach starts from an empty live set again
        assert new.attach(p_u, p_e).p_hat == old.attach(p_u, p_e).p_hat
        assert len(new._idx) == 0
        tried(0, 0.5 * p_u[0])
        assert 0 < len(new._idx) < draws


class TestBandPremise:
    """The near set rests on ``log1p``: a move from ``p`` to ``v`` changes a
    computed rate by at most ``|ln(v/p)|`` plus far less than 1e-6 nats.  A
    numpy or libm change that broke this would fail here rather than shift
    outage counts."""

    def test_numpy_log1p_agrees_with_math_log1p(self):
        x = 10.0 ** np.random.default_rng(51).uniform(-12.0, 6.0, 10**6)
        exact = np.array([math.log1p(value) for value in x.tolist()])
        assert np.all(np.abs(np.log1p(x) - exact) <= 1e-12 * exact)

    def test_a_move_changes_a_rate_by_at_most_its_log_ratio(self):
        rng = np.random.default_rng(52)
        n = 10**6
        g = 10.0 ** rng.uniform(-6.0, 9.0, n)
        p = 10.0 ** rng.uniform(-3.0, 3.0, n)
        v = p * 10.0 ** rng.uniform(-9.0, 1.0, n)
        p_e = np.where(rng.random(n) < 0.5, 0.0, 10.0 ** rng.uniform(-3.0, 3.0, n))
        rate_p, rate_v = (_sinr_rate_nats(g, power, p_e, np.empty(n)) for power in (p, v))
        change = rate_v - rate_p
        assert np.all(np.abs(change) <= np.abs(np.log(v / p)) + 1e-6)
        # a raise lowers no rate beyond rounding
        assert np.all(change[v >= p] >= -1e-6)

    def test_a_computed_fall_stays_inside_the_width(self):
        # the near set and the live set's drift take W = ln((P_e + p)/(P_e + v))
        # (1 + 1e-6) + 1e-6 for a move from p to v < p; the fall of the rates
        # as computed in floats must never pass it
        rng = np.random.default_rng(54)
        n = 200_000
        g = 10.0 ** rng.uniform(-300.0, 300.0, n)
        p = 10.0 ** rng.uniform(-3.0, 3.0, n)
        v = p * rng.uniform(0.0, 1.0, n)
        v[rng.random(n) < 0.1] = 0.0
        kind = rng.integers(4, size=n)
        p_e = np.select(
            [kind == 0, kind == 1, kind == 2],
            [0.0, 10.0 ** rng.uniform(-320.0, -200.0, n), 10.0 ** rng.uniform(200.0, 300.0, n)],
            10.0 ** rng.uniform(-3.0, 3.0, n),
        )
        # a quarter with g P_e far beyond 2^53, where g/(1 + g P_e) rounds to 1/P_e
        saturated = rng.random(n) < 0.25
        with np.errstate(over="ignore"):
            g[saturated] = np.minimum(10.0 ** rng.uniform(17.0, 30.0, saturated.sum())
                                      / np.maximum(p_e[saturated], 1e-300), 1e300)
            rate_p, rate_v = (_sinr_rate_nats(g, power, p_e, np.empty(n)) for power in (p, v))
        width = np.array([outage._fall_width(*args) for args in zip(p.tolist(), v.tolist(),
                                                                     p_e.tolist())])
        assert np.all(rate_p - rate_v <= width)
        # the saturated draws reach the bound: it is no looser than it must be
        close = saturated & (p_e > 0.0) & (v > 0.0) & np.isfinite(width)
        assert np.any(close & (rate_p - rate_v >= width - 2e-6))
        # and it is never wider than the plain ln(p/v) width, up to rounding
        plain = np.log(p / np.where(v > 0.0, v, np.nan)) * (1.0 + 1e-6) + 1e-6
        assert np.all(width[v > 0.0] <= plain[v > 0.0] + 1e-12)


class TestDistributionalProperties:
    def test_frequency_diversity_helps(self):
        # same total power, same total rate target: twelve resources beat one
        gamma = snr_db_to_gain(30.0)
        trials = 30_000
        for total_dbm in (6.0, 9.0, 12.0):
            total = 10 ** (total_dbm / 10.0)
            many = estimate_outage(
                [total / 12.0] * 12, [0.0] * 12, gamma, 1.0 / 12.0, trials, seed=21
            )
            one = estimate_outage([total], [0.0], gamma, 1.0, trials, seed=22)
            if many.p_hat < 0.5 and one.p_hat < 0.5:
                assert many.p_hat <= one.p_hat + many.ci_halfwidth + one.ci_halfwidth

    def test_interference_limited_power_is_reliable_at_high_snr(self):
        # with a no-interference resource present, the substituted bound is
        # exceeded with probability -> 1 as the mean SNR grows
        p_e = np.array([1.0, 2.0, 4.0, 0.0])
        out = il_power(p_e, 0.5)
        gamma = snr_db_to_gain(70.0)
        est = estimate_outage(out, p_e, gamma, 0.5, 10**5, seed=23)
        assert est.p_hat <= 1e-2
