"""Figure-scale scheme comparison at the production outage target.

This is the long-running companion to the desk-scale acceptance suite:
it rebuilds the total-power comparison between shared-band descent and
the 3-resource orthogonal split at the 1e-5 outage target, checking the
crossover behaviour around the URLLC placement.  Expect on the order of
two hours on one core; it is excluded from the default run (select it
with ``pytest -m slow``).
"""

import math

import numpy as np
import pytest

from slicepower import ResourceGrid, ScenarioConfig, Scheme, TrafficSpec, allocate, build_table, embb_power, spectral_efficiency
from slicepower.alloc import BcdOptions
from slicepower.channel import drop
from slicepower.units import mw_to_dbm

pytestmark = pytest.mark.slow

GRID = ResourceGrid(F=12, M=7, delta_f=180e3, T=1e-3)
TRAFFIC = TrafficSpec(N_e=8640.0, N_u=2160.0 / 7.0, epsilon_u=1e-5, M_u_max=7)
D_E = 146.9
DROPS = 60
TRIALS = 10**7


def _mean_total_dbm(d_u: float, scheme_label: str) -> float:
    gamma_e_mean = ScenarioConfig().mean_gain(D_E)
    gamma_u_mean = ScenarioConfig().mean_gain(d_u)
    scheme = Scheme.NOMA if scheme_label == "noma" else Scheme.OMA
    f_u_count = GRID.F if scheme is Scheme.NOMA else 3
    algo = "bcd" if scheme is Scheme.NOMA else "fea"
    r_u = spectral_efficiency(TRAFFIC.N_u, GRID, f_u_count, 1)
    r_e_full = spectral_efficiency(TRAFFIC.N_e, GRID, GRID.F, GRID.M)

    channels = [drop(1717, i, gamma_e_mean, gamma_u_mean, GRID.F) for i in range(DROPS)]
    pe_rows = set()
    if scheme is Scheme.NOMA:
        for ch in channels:
            pe_rows.add(math.ceil(mw_to_dbm(float(embb_power(ch.gamma_e, r_e_full).max()))))
    axis_pe = np.concatenate(([-math.inf], np.array(sorted(pe_rows), dtype=float)))
    table = build_table(gamma_u_mean, f_u_count, r_u, trials=TRIALS, seed=1717,
                        axis_pe_dbm=axis_pe)

    totals = []
    for i, ch in enumerate(channels):
        result = allocate(GRID, TRAFFIC, ch, scheme, algo, f_u_count, 1, seed=i,
                          table=table, bcd=BcdOptions(draws=10**6),
                          evidence_trials=10**4)
        totals.append(result.p_total_mw)
    return mw_to_dbm(float(np.mean(totals)))


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
