import itertools

import numpy as np
import pytest

from slicepower import (
    LatencyInfeasibleError,
    ResourceGrid,
    ResourceSets,
    Scheme,
    TrafficSpec,
    build_resource_sets,
    select_urllc_frequencies,
    spectral_efficiency,
)

GRID = ResourceGrid(F=12, M=7, delta_f=180e3, T=1e-3)


def default_traffic(**kw):
    base = dict(N_e=8640.0, N_u=2160.0 / 7.0, epsilon_u=1e-5, M_u_max=7, W_u=0)
    base.update(kw)
    return TrafficSpec(**base)


class TestSpectralEfficiency:
    def test_urllc_reference_rate(self):
        assert spectral_efficiency(2160.0 / 7.0, GRID, 12, 1) == pytest.approx(1.0, rel=1e-12)

    def test_embb_reference_rate(self):
        assert spectral_efficiency(8640.0, GRID, 12, 7) == pytest.approx(4.0, rel=1e-12)

    def test_doubling_minislots_halves_rate(self):
        one = spectral_efficiency(1000.0, GRID, 4, 2)
        two = spectral_efficiency(1000.0, GRID, 4, 4)
        assert two == pytest.approx(one / 2.0, rel=1e-12)

    def test_bit_conservation(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            bits = float(rng.uniform(1.0, 1e6))
            f = int(rng.integers(1, 13))
            m = int(rng.integers(1, 8))
            r = spectral_efficiency(bits, GRID, f, m)
            assert r * GRID.T_m * GRID.delta_f * f * m == pytest.approx(bits, rel=1e-12)

    @pytest.mark.parametrize("f,m", [(0, 1), (1, 0), (-2, 3)])
    def test_invalid_counts(self, f, m):
        with pytest.raises(ValueError):
            spectral_efficiency(100.0, GRID, f, m)

    def test_invalid_payload(self):
        with pytest.raises(ValueError):
            spectral_efficiency(0.0, GRID, 1, 1)


class TestGridInvariants:
    def test_minislot_duration_is_exact(self):
        assert GRID.T_m * GRID.M == GRID.T

    @pytest.mark.parametrize("kw", [dict(F=0), dict(M=0), dict(delta_f=0.0), dict(T=-1.0)])
    def test_rejects_bad_constants(self, kw):
        base = dict(F=12, M=7, delta_f=180e3, T=1e-3)
        base.update(kw)
        with pytest.raises(ValueError):
            ResourceGrid(**base)


class TestFrequencySelection:
    def test_unique_minimum(self):
        assert select_urllc_frequencies(np.array([3.0, 1.0, 2.0]), 1) == (1,)

    def test_two_smallest(self):
        assert select_urllc_frequencies(np.array([3.0, 1.0, 2.0]), 2) == (1, 2)

    def test_tie_break_lowest_index(self):
        assert select_urllc_frequencies(np.array([5.0, 5.0, 5.0]), 2) == (0, 1)

    def test_count_out_of_range(self):
        with pytest.raises(ValueError):
            select_urllc_frequencies(np.array([1.0, 2.0]), 3)

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_rejects_negative_or_nan_snr(self, bad):
        with pytest.raises(ValueError, match="non-negative"):
            select_urllc_frequencies(np.array([1.0, bad, 2.0]), 1)

    def test_minimizes_sum_over_subsets(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            gamma = rng.standard_exponential(8)
            chosen = select_urllc_frequencies(gamma, 3)
            best = min(sum(gamma[list(c)]) for c in itertools.combinations(range(8), 3))
            assert sum(gamma[list(chosen)]) == pytest.approx(best, rel=1e-12)

    def test_empty_selection(self):
        assert select_urllc_frequencies(np.array([1.0]), 0) == ()


class TestResourceSets:
    def test_noma_shares_full_band(self):
        sets = build_resource_sets(Scheme.NOMA, GRID, tuple(range(12)), 1, default_traffic())
        assert sets.f_u == tuple(range(12))
        assert sets.f_e == tuple(range(12)) and sets.F_e == 12

    def test_oma_partition(self):
        grid = ResourceGrid(F=6, M=4, delta_f=180e3, T=1e-3)
        traffic = default_traffic(M_u_max=4)
        sets = build_resource_sets(Scheme.OMA, grid, (1, 3, 5), 2, traffic)
        assert sets.f_e == (0, 2, 4) and sets.F_e == 3
        assert set(sets.f_u) | set(sets.f_e) == set(range(6))
        assert not set(sets.f_u) & set(sets.f_e)

    def test_window_starts_after_waiting(self):
        sets = build_resource_sets(
            Scheme.NOMA, GRID, tuple(range(12)), 3, default_traffic(W_u=2)
        )
        assert sets.m_u == (2, 3, 4)

    def test_exhausted_budget_is_infeasible(self):
        traffic = default_traffic(W_u=7)
        with pytest.raises(LatencyInfeasibleError):
            build_resource_sets(Scheme.NOMA, GRID, tuple(range(12)), 1, traffic)

    def test_window_larger_than_budget(self):
        with pytest.raises(LatencyInfeasibleError):
            build_resource_sets(Scheme.NOMA, GRID, tuple(range(12)), 7,
                                default_traffic(W_u=1))

    def test_budget_cannot_exceed_slot(self):
        traffic = default_traffic(M_u_max=20, W_u=5)
        with pytest.raises(ValueError):
            build_resource_sets(Scheme.NOMA, GRID, tuple(range(12)), 4, traffic)

    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(ValueError):
            build_resource_sets(Scheme.NOMA, GRID, (1, 1, 2), 1, default_traffic())

    @pytest.mark.parametrize("f_u,m_u,message", [
        ((0, 12), (0,), "out of range"),
        ((-1,), (0,), "out of range"),
        ((2, 2), (0,), "duplicate"),
        ((0,), (), "at least one mini-slot"),
        ((0,), (1, 3), "contiguous"),
        ((0,), (6, 7), "mini-slot indices out of range"),
    ])
    def test_direct_construction_is_checked(self, f_u, m_u, message):
        with pytest.raises(ValueError, match=message):
            ResourceSets(f_u=f_u, m_u=m_u, scheme=Scheme.OMA, grid=GRID)

    def test_oma_may_not_reserve_the_whole_band(self):
        # the broadband user would be left with no frequency at all
        with pytest.raises(ValueError, match="OMA reserves all 12 frequencies"):
            ResourceSets(f_u=tuple(range(12)), m_u=(0,), scheme=Scheme.OMA, grid=GRID)
        with pytest.raises(ValueError, match="OMA reserves all 12 frequencies"):
            build_resource_sets(Scheme.OMA, GRID, tuple(range(12)), 1, default_traffic())
        assert ResourceSets(f_u=tuple(range(11)), m_u=(0,), scheme=Scheme.OMA, grid=GRID).f_e == (11,)
        assert ResourceSets(f_u=tuple(range(12)), m_u=(0,), scheme=Scheme.NOMA, grid=GRID).F_e == 12

    def test_scheme_label_is_read_as_a_scheme(self):
        sets = ResourceSets(f_u=(0,), m_u=(0,), scheme="noma", grid=GRID)
        assert sets.scheme is Scheme.NOMA and sets.f_e == tuple(range(12))
        with pytest.raises(ValueError, match="tdma"):
            ResourceSets(f_u=(0,), m_u=(0,), scheme="tdma", grid=GRID)


class TestTrafficSpec:
    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            default_traffic(epsilon_u=0.0)
        with pytest.raises(ValueError):
            default_traffic(epsilon_u=1.0)

    def test_waiting_time_may_equal_budget(self):
        # an arrival whose budget is fully consumed is representable; any
        # transmission window is then infeasible
        spec = default_traffic(W_u=7)
        assert spec.max_window == 0

    def test_negative_waiting_time(self):
        with pytest.raises(ValueError):
            default_traffic(W_u=-1)
