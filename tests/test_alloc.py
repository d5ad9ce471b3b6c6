import logging
import math
import re
from operator import attrgetter

import numpy as np
import pytest

from slicepower import (
    CommonRandomOutage,
    EmbbStage,
    ResourceGrid,
    Scheme,
    SlicePowerError,
    TrafficSpec,
    allocate,
    build_table,
    embb_stage,
    min_feasible_power,
    mutual_info_e,
    mutual_info_u,
    single_freq_power,
)
from slicepower.alloc import BcdOptions, descend_urllc_power, feasible_urllc_power
from slicepower.channel import drop
from slicepower.units import dbm_to_mw, snr_db_to_gain

GRID = ResourceGrid(F=12, M=7, delta_f=180e3, T=1e-3)
EPS = 1e-2
TRAFFIC = TrafficSpec(N_e=8640.0, N_u=2160.0 / 7.0, epsilon_u=EPS, M_u_max=7)
GAMMA_U = snr_db_to_gain(50.0)
GAMMA_E = snr_db_to_gain(50.0)
BCD = BcdOptions(draws=30_000)


@pytest.fixture(scope="module")
def noma_table():
    return build_table(
        GAMMA_U, 12, 1.0, trials=10_000, seed=77,
        axis_pu_dbm=np.arange(-15.0, 16.0),
        axis_pe_dbm=np.concatenate(([-math.inf], np.arange(-12.0, 13.0))),
    )


@pytest.fixture(scope="module")
def oma3_table():
    return build_table(
        GAMMA_U, 3, 4.0, trials=20_000, seed=77,
        axis_pu_dbm=np.arange(-10.0, 26.0),
        axis_pe_dbm=np.array([-math.inf]),
    )


def gains(i: int) -> np.ndarray:
    return drop(202, i, GAMMA_E, GRID.F)


def stage(i: int, scheme=Scheme.NOMA, f_u_count: int = 12, m_u_count: int = 1) -> EmbbStage:
    return embb_stage(GRID, TRAFFIC, gains(i), scheme, f_u_count, m_u_count)


class TestFeasibleAllocator:
    def test_oma_output_is_uniform_grid_level(self, oma3_table):
        result = allocate(stage(0, Scheme.OMA, 3), GAMMA_U, "fea", EPS,
                          seed=1, table=oma3_table, evidence_trials=30_000)
        level_dbm = min_feasible_power(oma3_table, 0.0, EPS)
        on_fu = result.p_u[list(result.embb.sets.f_u)]
        assert np.allclose(on_fu, dbm_to_mw(level_dbm))
        # grid optimality: one tabulated step below fails the target
        j = int(np.nonzero(oma3_table.axis_pu_dbm == level_dbm)[0][0])
        assert j > 0 and oma3_table.values[0, j - 1] > EPS

    def test_oma_orthogonality_exact(self, oma3_table):
        result = allocate(stage(1, Scheme.OMA, 3), GAMMA_U, "fea", EPS,
                          seed=2, table=oma3_table, evidence_trials=20_000)
        assert np.all(result.p_u * result.embb.p_e == 0.0)
        assert result.sic_satisfied

    def test_noma_feasibility_over_drops(self, noma_table):
        for drop in range(8):
            result = allocate(stage(drop), GAMMA_U, "fea", EPS,
                              seed=drop, table=noma_table, evidence_trials=30_000)
            fu = list(result.embb.sets.f_u)
            assert np.all(result.p_u[fu] >= result.embb.p_u_sic[fu] - 1e-15)
            assert result.p_u_hat.p_hat <= EPS + result.p_u_hat.ci_halfwidth
            assert result.sic_satisfied
            gamma = gains(drop)
            assert mutual_info_e(result.embb.p_e[list(result.embb.sets.f_e)],
                                 gamma[list(result.embb.sets.f_e)]) == pytest.approx(
                result.embb.r_e, rel=1e-9
            )

    def test_noma_with_clear_shared_channels_matches_oma_power(self, oma3_table):
        # three shared channels so weak that the broadband water-filling
        # skips them: the worst interference is zero and the uniform part
        # of the answer equals the orthogonal one
        gamma_e = np.concatenate((np.full(3, 100.0), np.full(9, 1e4)))
        noma = allocate(embb_stage(GRID, TRAFFIC, gamma_e, Scheme.NOMA, 3, 1), GAMMA_U, "fea",
                        EPS, seed=3, table=oma3_table, evidence_trials=10_000)
        oma = allocate(embb_stage(GRID, TRAFFIC, gamma_e, Scheme.OMA, 3, 1), GAMMA_U, "fea",
                       EPS, seed=3, table=oma3_table, evidence_trials=10_000)
        fu = list(noma.embb.sets.f_u)
        assert np.all(noma.embb.p_e[fu] == 0.0)
        assert np.allclose(noma.p_u, oma.p_u)

    def test_worst_interference_drives_the_lookup(self, noma_table):
        p_e = np.array([0.1, 2.0, 0.5])
        sic = np.zeros(3)
        out = feasible_urllc_power(p_e, sic, noma_table, EPS)
        level = dbm_to_mw(min_feasible_power(noma_table, 2.0, EPS))
        assert np.allclose(out, level)


class TestDescentAllocator:
    def test_dominates_feasible_start_and_stays_feasible(self, noma_table):
        for drop in range(6):
            embb = stage(drop)
            fea = allocate(embb, GAMMA_U, "fea", EPS,
                           seed=drop, table=noma_table, evidence_trials=30_000)
            bcd = allocate(embb, GAMMA_U, "bcd", EPS,
                           seed=drop, table=noma_table, bcd=BCD, evidence_trials=30_000)
            assert bcd.urllc_power_mw <= fea.urllc_power_mw + 1e-12
            fu = list(bcd.embb.sets.f_u)
            assert np.all(bcd.p_u[fu] >= bcd.embb.p_u_sic[fu] - 1e-15)
            assert bcd.p_u_hat.p_hat <= EPS + bcd.p_u_hat.ci_halfwidth
            assert bcd.sic_satisfied
            assert mutual_info_u(bcd.p_u[fu], bcd.embb.p_e[fu],
                                 gains(drop)[fu]) >= bcd.embb.r_u * (1 - 1e-9)

    def test_fully_pinned_start_is_returned_unchanged(self):
        crn = CommonRandomOutage(GAMMA_U, 4, 1.0, draws=1000, seed=50)
        floor = np.array([2.0, 1.0, 3.0, 0.5])
        out, sweeps = descend_urllc_power(floor.copy(), floor, np.zeros(4), crn,
                                          EPS, BcdOptions(draws=1000))
        assert np.array_equal(out, floor)
        assert sweeps == 0

    def test_descent_is_bounded_by_start_and_floor(self):
        crn = CommonRandomOutage(GAMMA_U, 6, 1.0, draws=20_000, seed=51)
        start = np.full(6, 5.0)
        floor = np.array([0.0, 0.1, 0.0, 0.4, 0.0, 0.2])
        out, sweeps = descend_urllc_power(start, floor, np.full(6, 0.5), crn,
                                          EPS, BcdOptions(draws=20_000))
        assert np.all(out <= start + 1e-15)
        assert np.all(out >= floor - 1e-15)
        assert sweeps >= 1

    @pytest.mark.parametrize("tau", [1e-15, 1e-300])
    def test_step_below_float_resolution_ends_the_descent(self, tau):
        # at these tau a step of one ulp decides a try by rounding alone; capping
        # the tries turns a descent that never ends into a failure
        class Capped(CommonRandomOutage):
            tries = 0

            def try_coordinate(self, f, value):
                Capped.tries += 1
                assert Capped.tries <= 5000, "the descent does not end"
                return super().try_coordinate(f, value)

        crn = Capped(GAMMA_U, 3, 4.0, draws=4000, seed=5)
        _, sweeps = descend_urllc_power(np.full(3, 500.0), np.zeros(3), np.zeros(3), crn,
                                        EPS, BcdOptions(draws=4000, tau=tau))
        assert sweeps <= 100

    def test_single_frequency_converges_to_closed_form(self):
        # margin off so the stop point tracks the exact quantile rather
        # than the deliberately conservative default
        r_u, gamma = 6.0, GAMMA_U
        closed = single_freq_power(r_u, gamma, EPS, p_e_f=0.0)
        crn = CommonRandomOutage(gamma, 1, r_u, draws=200_000, seed=52)
        start = np.array([4.0 * closed])
        out, _ = descend_urllc_power(start, np.zeros(1), np.zeros(1), crn, EPS,
                                     BcdOptions(draws=200_000, use_margin=False))
        assert out[0] == pytest.approx(closed, rel=0.08)

    def test_margin_makes_descent_conservative(self):
        r_u, gamma = 6.0, GAMMA_U
        crn = CommonRandomOutage(gamma, 1, r_u, draws=50_000, seed=53)
        start = np.array([4.0 * single_freq_power(r_u, gamma, EPS, 0.0)])
        loose, _ = descend_urllc_power(start.copy(), np.zeros(1), np.zeros(1), crn, EPS,
                                       BcdOptions(draws=50_000, use_margin=False))
        crn2 = CommonRandomOutage(gamma, 1, r_u, draws=50_000, seed=53)
        tight, _ = descend_urllc_power(start.copy(), np.zeros(1), np.zeros(1), crn2, EPS,
                                       BcdOptions(draws=50_000, use_margin=True))
        assert tight[0] >= loose[0]


class TestValidation:
    def test_mismatched_table_rejected(self, oma3_table):
        with pytest.raises(SlicePowerError, match="mismatch"):
            allocate(stage(0), GAMMA_U, "fea", EPS, seed=1, table=oma3_table)

    def test_unknown_algorithm(self, noma_table):
        with pytest.raises(ValueError):
            allocate(stage(0), GAMMA_U, "newton", EPS, seed=1, table=noma_table)

    @pytest.mark.parametrize("gamma_u", [0.0, -GAMMA_U, math.nan])
    def test_non_positive_mean_gain_rejected(self, noma_table, gamma_u):
        # checked before the table, whose mismatch error would mislead
        with pytest.raises(ValueError, match="mean SNR must be positive"):
            allocate(stage(0), gamma_u, "fea", EPS, seed=1, table=noma_table)


class TestResultBookkeeping:
    def test_total_power_accounts_for_minislots(self, noma_table):
        result = allocate(stage(2, m_u_count=2), GAMMA_U, "fea", EPS,
                          seed=9, table=build_table(
                              GAMMA_U, 12, 0.5, trials=10_000, seed=77,
                              axis_pu_dbm=np.arange(-15.0, 16.0),
                              axis_pe_dbm=np.concatenate(([-math.inf], np.arange(-12.0, 13.0))),
                          ), evidence_trials=10_000)
        expected = GRID.M * result.embb.p_e.sum() + 2 * result.p_u.sum()
        assert result.p_total_mw == pytest.approx(expected, rel=1e-12)
        assert result.embb_power_mw == pytest.approx(GRID.M * result.embb.p_e.sum())
        assert result.urllc_power_mw == pytest.approx(2 * result.p_u.sum())

    def test_algorithm_and_iterations_recorded(self, noma_table):
        fea = allocate(stage(3), GAMMA_U, "fea", EPS,
                       seed=4, table=noma_table, evidence_trials=10_000)
        bcd = allocate(stage(3), GAMMA_U, "bcd", EPS,
                       seed=4, table=noma_table, bcd=BCD, evidence_trials=10_000)
        assert fea.algorithm == "fea" and fea.iterations == 0
        assert bcd.algorithm == "bcd" and bcd.iterations >= 1

    def test_a_descent_logs_its_counts_at_debug(self, noma_table, caplog, monkeypatch):
        events = []  # ("try" | "commit", f), in call order
        for name, event in (("try_coordinate", "try"), ("commit", "commit")):
            method = getattr(CommonRandomOutage, name)

            def spy(self, f, value, method=method, event=event):
                events.append((event, f))
                return method(self, f, value)

            monkeypatch.setattr(CommonRandomOutage, name, spy)
        with caplog.at_level(logging.DEBUG, logger="slicepower.alloc"):
            allocate(stage(3), GAMMA_U, "fea", EPS, seed=4, table=noma_table, evidence_trials=10_000)
            bcd = allocate(stage(3), GAMMA_U, "bcd", EPS,
                           seed=4, table=noma_table, bcd=BCD, evidence_trials=10_000)
        [record] = [r for r in caplog.records if r.name == "slicepower.alloc"]
        assert record.levelno == logging.DEBUG
        counts = re.fullmatch(r"bcd descent: (\d+) sweeps, (\d+) tries, (\d+) accepted moves, "
                              r"(\d+) step halvings on CommonRandomOutage\(12 x 30000 draws, "
                              r"(\d+) live\)", record.getMessage())
        sweeps, tries, accepted, halvings, live = map(int, counts.groups())
        # a sweep tries the active resources in increasing order, so a try of
        # a resource at or below the last one tried starts the next sweep
        sweep_moves, last = [], math.inf
        for event, f in events:
            if event == "try" and f <= last:
                sweep_moves.append(0)
            sweep_moves[-1] += event == "commit"
            last = f if event == "try" else last
        assert sweeps == bcd.iterations == len(sweep_moves)
        assert tries == sum(event == "try" for event, _ in events)
        assert accepted == sum(sweep_moves) > 0
        assert halvings == sweep_moves.count(0) > 0
        assert 0 < live < BCD.draws


class TestEmbbStage:
    def test_arrays_are_read_only_copies(self):
        gamma_e = gains(4)
        embb = embb_stage(GRID, TRAFFIC, gamma_e, Scheme.NOMA, 12, 1)
        assert gamma_e.flags.writeable  # the caller's array is not re-flagged
        for values in (embb.gamma_e, embb.p_e, embb.p_u_sic):
            assert not np.shares_memory(values, gamma_e)
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                values *= 2.0

    def test_oma_reservation_of_the_whole_band_is_named(self):
        # it used to fail in spectral_efficiency with "got F=0, M=7"
        grid = ResourceGrid(F=4, M=7, delta_f=180e3, T=1e-3)
        with pytest.raises(ValueError, match="OMA reserves all 4 frequencies"):
            embb_stage(grid, TRAFFIC, np.ones(4), Scheme.OMA, 4, 1)

    def test_shared_stage_matches_fresh_stages(self, noma_table):
        # the sweep runs both algorithms of a drop on one stage
        shared = stage(5)
        for algo in ("fea", "bcd"):
            on_shared = allocate(shared, GAMMA_U, algo, EPS, seed=6, table=noma_table,
                                 bcd=BCD, evidence_trials=10_000)
            on_fresh = allocate(stage(5), GAMMA_U, algo, EPS, seed=6, table=noma_table,
                                bcd=BCD, evidence_trials=10_000)
            for name in ("embb.p_e", "p_u", "embb.p_u_sic"):
                assert attrgetter(name)(on_shared).tobytes() == attrgetter(name)(on_fresh).tobytes()
            assert on_shared.p_total_mw == on_fresh.p_total_mw
            assert on_shared.p_u_hat == on_fresh.p_u_hat
            assert on_shared.iterations == on_fresh.iterations
        assert shared.p_e.tobytes() == stage(5).p_e.tobytes()
