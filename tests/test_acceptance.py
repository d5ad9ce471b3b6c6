"""Acceptance suite: one test (or parametrized family) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
value behind every pass/fail line.  Expected wall time is roughly 15
minutes on one core; the bulk is the 10^7-trial outage table shared by
criteria C3 and C4.

C10 (exact publication-scale reliability curves at 1e-5 with unknown
drop counts) is not reproducible at desk scale and is substituted by
C6-C9 plus the distributional checks in the unit suites.

Known red cells: four C6 entries (noma @ 50 dB, and noma/oma-3/oma-6 @
80 dB).  The water-filling allocator is exactly scale-invariant: its
total power is proportional to 1/SNR, so mean-power rows must step
-10 dB per +10 dB of mean SNR.  The reference values for those cells
step -7.7..-9.2 dB per decade (and list three different channel counts
at identical power), so they are unreachable by the allocator under
test at any drop count, while the remaining eight cells reproduce
within 0.25 dB.  All twelve cells assert the value printed in the
paper, and these four are left red rather than loosened or rescaled:
the printed rows fall by less than 10 dB per decade in a steady
pattern, which a scale-breaking term in the paper's model (a floor on
total power, say) would explain, and PAPER.md holds only the abstract,
so it cannot rule such a term out.  If the paper's model has one, it
belongs in the allocator, not in these references.  The invariance of
the allocator itself is checked by
``test_waterfill.py::TestEmbbPower::test_scale_invariance``.
"""

import math

import numpy as np
import pytest
from oracles import (
    check_against_oracle,
    ref_embb_power,
    ref_select_urllc_frequencies,
    ref_sic_power,
)

from slicepower import (
    CommonRandomOutage,
    ResourceGrid,
    ScenarioConfig,
    Scheme,
    TrafficSpec,
    allocate,
    build_table,
    distance_from_mean_snr,
    embb_power,
    embb_stage,
    estimate_outage,
    il_power,
    min_feasible_power,
    mutual_info_e,
    mutual_info_il,
    mutual_info_u,
    scheme_f_u_count,
    sic_power,
    single_freq_power,
)
from slicepower.alloc import BcdOptions
from slicepower.channel import Geometry, drop
from slicepower.table import cell_seed
from slicepower.units import db_to_linear, dbm_to_mw, dbm_to_watt, mw_to_dbm, snr_db_to_gain
from slicepower.waterfill import substitute_zero_interference

GRID = ResourceGrid(F=12, M=7, delta_f=180e3, T=1e-3)
GEOM = Geometry()
SIGMA2_W = dbm_to_watt(-108.0)
N_E = 8640.0
N_U = 2160.0 / 7.0

FIG5_TRIALS = 10**7
FIG5_SEED = 3


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="session")
def fig5_table():
    """10^7-trial table at mean SNR 30 dB, 12 resources, rate 1 (C3+C4)."""
    return build_table(
        snr_db_to_gain(30.0), 12, 1.0, trials=FIG5_TRIALS, seed=FIG5_SEED,
        axis_pe_dbm=np.array([-math.inf, 0.0]),
    )


class TestC01DistanceInversion:
    ANCHORS = [(30.0, 464.56), (40.0, 261.2), (50.0, 146.9),
               (60.0, 82.6), (70.0, 46.5), (80.0, 26.1)]

    def test_c01_table_distances(self):
        results = []
        for snr_db, d_ref in self.ANCHORS:
            d = distance_from_mean_snr(db_to_linear(snr_db), GEOM, SIGMA2_W)
            results.append((snr_db, d, d_ref, abs(d - d_ref) < 0.5))
        ok = all(r[3] for r in results)
        report("C1 distance inversion", ok,
               "; ".join(f"{s:g} dB -> {d:.2f} m (ref {r:g})" for s, d, r, _ in results))
        assert ok


class TestC02WaterfillingOracle:
    def _check(self, gains, target, powers, achieved):
        closed, oracle, step = check_against_oracle(gains, target, powers)
        assert achieved == pytest.approx(target, rel=1e-9)
        assert oracle >= closed - step
        assert closed <= oracle + len(gains) * step + 1e-9 * closed

    def test_c02_closed_forms_match_grid_search(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(70):  # broadband form
            f = int(rng.integers(1, 4))
            gamma = 10.0 ** rng.uniform(-1.5, 1.5, size=f)
            r_e = float(rng.uniform(0.5, 3.0))
            powers = embb_power(gamma, r_e)
            self._check(gamma, f * r_e, powers,
                        mutual_info_e(powers, gamma) * f)
            checked += 1
        for _ in range(70):  # cancellation form
            f = int(rng.integers(1, 4))
            gamma = 10.0 ** rng.uniform(-1.0, 1.5, size=f)
            p_e = rng.uniform(0.0, 3.0, size=f)
            r_u = float(rng.uniform(0.3, 2.5))
            powers = sic_power(p_e, gamma, r_u, Scheme.NOMA)
            effective = gamma / (1.0 + gamma * p_e)
            self._check(effective, f * r_u, powers,
                        mutual_info_u(powers, p_e, gamma) * f)
            checked += 1
        for _ in range(60):  # interference-limited form
            f = int(rng.integers(1, 4))
            p_e = 10.0 ** rng.uniform(-1.0, 1.0, size=f)
            if f > 1 and rng.random() < 0.3:
                p_e[int(rng.integers(0, f))] = 0.0
            r_u = float(rng.uniform(0.3, 2.5))
            powers = il_power(p_e, r_u)
            filled = substitute_zero_interference(p_e)
            self._check(1.0 / filled, f * r_u, powers,
                        mutual_info_il(powers, p_e) * f)
            checked += 1
        report("C2 water-filling oracle", True,
               f"{checked} random instances, all within one grid step, tight to 1e-9")
        assert checked == 200


class TestC03Fig5Anchors:
    def test_c03_tabulated_outage_points(self, fig5_table):
        j9 = int(np.nonzero(fig5_table.axis_pu_dbm == 9.0)[0][0])
        j8 = int(np.nonzero(fig5_table.axis_pu_dbm == 8.0)[0][0])
        p_interf = fig5_table.values[1, j9]
        p_clear = fig5_table.values[0, j8]
        ref_i, ref_c = 2.38e-5, 9.3e-6
        tol_i = 3.0 * math.sqrt(ref_i * (1 - ref_i) / FIG5_TRIALS)
        tol_c = 3.0 * math.sqrt(ref_c * (1 - ref_c) / FIG5_TRIALS)
        ok = abs(p_interf - ref_i) <= tol_i and abs(p_clear - ref_c) <= tol_c
        report("C3 reference outage anchors", ok,
               f"p(9 dBm | 0 dBm)={p_interf:.3e} vs {ref_i:.3e}±{tol_i:.1e}; "
               f"p(8 dBm | clear)={p_clear:.3e} vs {ref_c:.3e}±{tol_c:.1e}")
        assert abs(p_interf - ref_i) <= tol_i
        assert abs(p_clear - ref_c) <= tol_c

    def test_c03_supporting_point(self, fig5_table):
        # one tabulated step above the interfered anchor
        j10 = int(np.nonzero(fig5_table.axis_pu_dbm == 10.0)[0][0])
        ref = 1.4e-6
        tol = 3.0 * math.sqrt(ref * (1 - ref) / FIG5_TRIALS)
        assert abs(fig5_table.values[1, j10] - ref) <= tol

    def test_c03_cells_reproduce_from_metadata(self, fig5_table):
        seed = int(cell_seed(FIG5_SEED, 9.0, 0.0).generate_state(1)[0])
        est = estimate_outage([dbm_to_mw(9.0)] * 12, [1.0] * 12, fig5_table.gamma_u,
                              1.0, FIG5_TRIALS, seed)
        j9 = int(np.nonzero(fig5_table.axis_pu_dbm == 9.0)[0][0])
        assert est.p_hat == fig5_table.values[1, j9]


class TestC04MinFeasiblePower:
    def test_c04_lookup_thresholds(self, fig5_table):
        with_interf = min_feasible_power(fig5_table, 1.0, 1e-5)
        clear = min_feasible_power(fig5_table, 0.0, 1e-5)
        ok = with_interf == 10.0 and clear == 8.0
        report("C4 minimum tabulated power", ok,
               f"interfered: {with_interf:g} dBm (want 10); clear: {clear:g} dBm (want 8)")
        assert with_interf == 10.0
        assert clear == 8.0

    def test_c04_loose_target_returns_grid_floor(self, fig5_table):
        assert min_feasible_power(fig5_table, 0.0, 1.0) == -30.0


class TestC05SingleFrequencyClosedForm:
    def test_c05_monte_carlo_recovers_epsilon(self):
        rng = np.random.default_rng(55)
        eps, trials = 1e-2, 10**5
        tol = 3.0 * math.sqrt(eps * (1 - eps) / trials)
        worst = 0.0
        for k in range(20):
            gamma = snr_db_to_gain(rng.uniform(35.0, 65.0))
            r_u = float(rng.uniform(0.25, 3.0))
            p_e = float(rng.uniform(0.0, 3.0))
            power = single_freq_power(r_u, gamma, eps, p_e)
            est = estimate_outage([power], [p_e], gamma, r_u, trials, seed=900 + k)
            worst = max(worst, abs(est.p_hat - eps))
            assert abs(est.p_hat - eps) <= tol
        report("C5 single-resource closed form", True,
               f"20 triples, worst |p_hat - {eps}| = {worst:.2e} <= {tol:.2e}")


def _embb_mean_dbm(snr_db: float, scheme_label: str, drops: int) -> float:
    gamma_mean = snr_db_to_gain(snr_db)
    scheme, f_u_count = scheme_f_u_count(scheme_label, GRID.F)
    # the outage target plays no part in the broadband stage
    traffic = TrafficSpec(N_e=N_E, N_u=N_U, epsilon_u=1e-5, M_u_max=7)
    totals = np.empty(drops)
    for i in range(drops):
        embb = embb_stage(GRID, traffic, drop(606, i, gamma_mean, GRID.F), scheme, f_u_count, 1)
        totals[i] = GRID.M * embb.p_e.sum()
    return mw_to_dbm(float(totals.mean()))


# mean broadband power spent per slot [dBm], reference values by
# (mean SNR [dB], scheme); tolerance ±0.5 dB at >= 2000 drops
C6_CELLS = [
    (30.0, "noma", 33.21), (30.0, "oma-3", 34.18), (30.0, "oma-6", 38.89),
    (30.0, "oma-9", 58.27),
    (50.0, "noma", 14.21), (50.0, "oma-3", 14.44), (50.0, "oma-6", 19.23),
    (50.0, "oma-9", 38.74),
    (80.0, "noma", -9.67), (80.0, "oma-3", -9.67), (80.0, "oma-6", -9.67),
    (80.0, "oma-9", 8.65),
]


class TestC06BroadbandPowerTable:
    def test_c06_drops_match_reference_stage_bitwise(self):
        # every C6 cell's selection, water-filling and floor equal the frozen
        # reference copies bit for bit, so the table above measures the same numbers
        traffic = TrafficSpec(N_e=N_E, N_u=N_U, epsilon_u=1e-5, M_u_max=7)
        for snr_db, scheme_label, _ in C6_CELLS:
            scheme, f_u_count = scheme_f_u_count(scheme_label, GRID.F)
            for i in range(200):
                gamma = drop(606, i, snr_db_to_gain(snr_db), GRID.F)
                stage = embb_stage(GRID, traffic, gamma, scheme, f_u_count, 1)
                f_u = ref_select_urllc_frequencies(gamma, f_u_count)
                assert stage.sets.f_u == f_u
                fe, fu = list(stage.sets.f_e), list(f_u)
                p_e = ref_embb_power(gamma[fe], stage.r_e)
                assert np.array_equal(stage.p_e[fe], p_e)
                floor = ref_sic_power(stage.p_e[fu], gamma[fu], stage.r_u, scheme)
                assert np.array_equal(stage.p_u_sic[fu], floor)

    @pytest.mark.parametrize("snr_db,scheme,ref_dbm", C6_CELLS)
    def test_c06_mean_embb_power(self, snr_db, scheme, ref_dbm):
        measured = _embb_mean_dbm(snr_db, scheme, drops=4000)
        ok = abs(measured - ref_dbm) <= 0.5
        report(f"C6 broadband power [{scheme} @ {snr_db:g} dB]", ok,
               f"measured {measured:.2f} dBm vs reference {ref_dbm:.2f} dBm")
        assert ok, (
            f"{scheme} @ {snr_db:g} dB: measured {measured:.2f} dBm, "
            f"reference {ref_dbm:.2f} dBm (tolerance 0.5 dB)"
        )


class TestC07MonotonicityUnderCommonDraws:
    def test_c07_exact_coordinate_monotonicity(self):
        crn = CommonRandomOutage(snr_db_to_gain(32.0), 12, 1.0, draws=20_000, seed=70)
        rng = np.random.default_rng(71)
        p_e = rng.uniform(0.0, 1.5, size=12)
        violations = 0
        for _ in range(100):
            p_u = 10.0 ** rng.uniform(-0.5, 1.3, size=12)
            base = crn.attach(p_u, p_e).p_hat
            for f in range(12):
                if crn.try_coordinate(f, 0.9 * p_u[f]).p_hat < base:
                    violations += 1
        report("C7 frozen-draw monotonicity", violations == 0,
               f"100 vectors x 12 coordinates, {violations} violations")
        assert violations == 0


def _scenario_tables_and_drops(traffic, gamma_e_mean, gamma_u_mean, drops, seed, trials):
    """Shared setup for C8/C9: NOMA broadband stages, table restricted to their rows."""
    stages = [embb_stage(GRID, traffic, drop(seed, i, gamma_e_mean, GRID.F), Scheme.NOMA,
                         GRID.F, 1) for i in range(drops)]
    pe_rows = {math.ceil(mw_to_dbm(float(embb.p_e.max()))) for embb in stages}
    axis_pe = np.concatenate(([-math.inf], np.array(sorted(pe_rows), dtype=float)))
    table = build_table(gamma_u_mean, GRID.F, stages[0].r_u, trials=trials, seed=seed,
                        axis_pe_dbm=axis_pe)
    return stages, table


class TestC08DominanceAndFeasibility:
    def test_c08_descent_never_loses_and_stays_feasible(self):
        eps, drops = 1e-2, 100
        traffic = TrafficSpec(N_e=N_E, N_u=N_U, epsilon_u=eps, M_u_max=7)
        gamma_u = snr_db_to_gain(56.68)
        stages, table = _scenario_tables_and_drops(
            traffic, gamma_e_mean=snr_db_to_gain(50.0), gamma_u_mean=gamma_u,
            drops=drops, seed=808, trials=10**5,
        )
        bcd_opts = BcdOptions(draws=10**5)
        dominance_violations = 0
        worst_sic_gap = 0.0
        for i, embb in enumerate(stages):
            fea = allocate(embb, gamma_u, "fea", eps,
                           seed=i, table=table, evidence_trials=10**5)
            bcd = allocate(embb, gamma_u, "bcd", eps,
                           seed=i, table=table, bcd=bcd_opts, evidence_trials=10**5)
            if bcd.urllc_power_mw > fea.urllc_power_mw + 1e-12:
                dominance_violations += 1
            assert fea.p_u_hat.p_hat <= eps + fea.p_u_hat.ci_halfwidth
            assert bcd.p_u_hat.p_hat <= eps + bcd.p_u_hat.ci_halfwidth
            fu = list(bcd.embb.sets.f_u)
            for res in (fea, bcd):
                sic_rate = mutual_info_u(res.p_u[fu], res.embb.p_e[fu], embb.gamma_e[fu])
                worst_sic_gap = max(worst_sic_gap, res.embb.r_u - sic_rate)
                assert sic_rate >= res.embb.r_u * (1.0 - 1e-9)
        report("C8 dominance and feasibility", dominance_violations == 0,
               f"{drops} drops, {dominance_violations} dominance violations, "
               f"worst cancellation-rate shortfall {worst_sic_gap:.2e}")
        assert dominance_violations == 0


class TestC09CancellationFloor:
    def test_c09_descent_reaches_the_floor_when_urllc_is_near(self):
        eps, drops = 1e-2, 100
        traffic = TrafficSpec(N_e=N_E, N_u=N_U, epsilon_u=eps, M_u_max=7)
        d_e, d_u = 261.2, 50.0
        gamma_u = ScenarioConfig().mean_gain(d_u)
        stages, table = _scenario_tables_and_drops(
            traffic, gamma_e_mean=ScenarioConfig().mean_gain(d_e), gamma_u_mean=gamma_u,
            drops=drops, seed=909, trials=10**5,
        )
        bcd_opts = BcdOptions(draws=10**5)
        near_floor = 0
        for i, embb in enumerate(stages):
            bcd = allocate(embb, gamma_u, "bcd", eps,
                           seed=i, table=table, bcd=bcd_opts, evidence_trials=10**4)
            floor = float(bcd.embb.p_u_sic.sum())
            if floor > 0.0 and abs(mw_to_dbm(bcd.p_u.sum()) - mw_to_dbm(floor)) <= 0.5:
                near_floor += 1
        ok = near_floor >= 0.9 * drops
        report("C9 cancellation floor", ok,
               f"{near_floor}/{drops} drops within 0.5 dB of the floor")
        assert ok


class TestC10PublicationScaleNote:
    def test_c10_substitution_note(self):
        report("C10 publication-scale curves", True,
               "not reproducible at desk scale (unknown drop counts at 1e-5); "
               "substituted by C6-C9 per the plan")
