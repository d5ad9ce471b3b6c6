"""Figure-scale scheme comparison at the production outage target.

This is the long-running companion to the desk-scale acceptance suite:
it rebuilds the total-power comparison between shared-band descent and
the 3-resource orthogonal split at the 1e-5 outage target, checking the
crossover behaviour around the URLLC placement.  Expect on the order of
two hours on one core; it is excluded from the default run (select it
with ``pytest -m slow``).  The default run keeps one toy-scale pass of the
same pipeline, so the slow tests cannot break unnoticed.
"""

import math

import numpy as np
import pytest

from slicepower import (ResourceGrid, ScenarioConfig, Scheme, TrafficSpec, allocate, build_table,
                        embb_stage, scheme_f_u_count)
from slicepower.alloc import BcdOptions
from slicepower.channel import drop
from slicepower.units import mw_to_dbm

GRID = ResourceGrid(F=12, M=7, delta_f=180e3, T=1e-3)
TRAFFIC = TrafficSpec(N_e=8640.0, N_u=2160.0 / 7.0, epsilon_u=1e-5, M_u_max=7)
D_E = 146.9
SEED = 1717
# figure-scale sizes
DROPS = 60
TRIALS = 10**7
CRN_DRAWS = 10**6
EVIDENCE_TRIALS = 10**4


def _mean_total_dbm(d_u: float, scheme_label: str, drops: int = DROPS, trials: int = TRIALS,
                    crn_draws: int = CRN_DRAWS, evidence_trials: int = EVIDENCE_TRIALS) -> float:
    gamma_e_mean = ScenarioConfig().mean_gain(D_E)
    gamma_u_mean = ScenarioConfig().mean_gain(d_u)
    scheme, f_u_count = scheme_f_u_count(scheme_label, GRID.F)
    algo = "bcd" if scheme is Scheme.NOMA else "fea"

    stages = [embb_stage(GRID, TRAFFIC, drop(SEED, i, gamma_e_mean, GRID.F), scheme, f_u_count, 1)
              for i in range(drops)]
    pe_rows = set()
    if scheme is Scheme.NOMA:
        pe_rows = {math.ceil(mw_to_dbm(float(embb.p_e.max()))) for embb in stages}
    axis_pe = np.concatenate(([-math.inf], np.array(sorted(pe_rows), dtype=float)))
    table = build_table(gamma_u_mean, f_u_count, stages[0].r_u, trials=trials, seed=SEED,
                        axis_pe_dbm=axis_pe)

    totals = []
    for i, embb in enumerate(stages):
        result = allocate(embb, gamma_u_mean, algo, TRAFFIC.epsilon_u, seed=i, table=table,
                          bcd=BcdOptions(draws=crn_draws), evidence_trials=evidence_trials)
        totals.append(result.p_total_mw)
    return mw_to_dbm(float(np.mean(totals)))


@pytest.mark.slow
class TestSchemeOrdering:
    def test_shared_band_wins_at_far_urllc(self):
        noma = _mean_total_dbm(100.0, "noma")
        oma = _mean_total_dbm(100.0, "oma-3")
        print(f"d_u=100 m: shared-band {noma:.2f} dBm vs orthogonal {oma:.2f} dBm")
        assert noma < oma

    def test_orthogonal_wins_by_little_at_near_urllc(self):
        noma = _mean_total_dbm(50.0, "noma")
        oma = _mean_total_dbm(50.0, "oma-3")
        print(f"d_u=50 m: shared-band {noma:.2f} dBm vs orthogonal {oma:.2f} dBm")
        assert oma <= noma
        assert noma - oma < 1.0


class TestToyScale:
    @pytest.mark.parametrize("scheme_label", ["noma", "oma-3"])
    def test_pipeline_runs(self, scheme_label):
        total = _mean_total_dbm(100.0, scheme_label, drops=2, trials=3000, crn_draws=3000,
                                evidence_trials=3000)
        assert math.isfinite(total)
