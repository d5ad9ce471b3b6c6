import csv
import math
import os

import numpy as np
import pytest

import slicepower.alloc
import slicepower.sweep
from slicepower import (SlicePowerError, TableExhaustedError, build_table, embb_stage,
                        load_config, save_table, scheme_f_u_count)
from slicepower.channel import drop
from slicepower.sweep import ensure_table, run_sweep, table_path

from oracles import UncachedCommonRandomOutage

FAST = dict(
    epsilon_u=1e-2,
    drops=3,
    table_trials=4000,
    crn_draws=4000,
    evidence_trials=4000,
    auto_build_tables=True,
    schemes=("noma", "oma-3"),
    d_e=(146.9,),
    d_u=(100.0, 200.0),
    seed=11,
)


def fast_config(tmp_path, **extra):
    overrides = dict(FAST)
    overrides["table_dir"] = str(tmp_path / "tables")
    overrides.update(extra)
    return load_config(None, overrides=overrides)


class TestRunSweep:
    def test_empty_axis_produces_nothing(self, tmp_path):
        cfg = fast_config(tmp_path, d_u=())
        out = tmp_path / "out"
        records = run_sweep(cfg, out_dir=str(out))
        assert records == []
        assert not out.exists()

    def test_records_and_files(self, tmp_path):
        cfg = fast_config(tmp_path)
        out = tmp_path / "out"
        records = run_sweep(cfg, out_dir=str(out))
        # noma runs both algorithms, oma only the table one
        assert len(records) == 2 * (2 + 1)
        assert (out / "records.csv").exists()
        assert (out / "power_vs_du_de146.9.csv").exists()
        assert (out / "table_embb_power.csv").exists()
        with open(out / "records.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(records)
        assert set(rows[0]) == {
            "scheme", "algorithm", "d_u_m", "d_e_m", "mean_total_dbm",
            "mean_urllc_dbm", "mean_embb_dbm", "mean_p_hat", "drops",
        }
        for rec in records:
            assert 0.0 <= rec.mean_p_hat <= cfg.epsilon_u + 0.05
            assert math.isfinite(rec.mean_total_dbm)

    def test_embb_distance_view_only_when_d_e_sweeps(self, tmp_path):
        cfg = fast_config(tmp_path, d_e=(146.9, 200.0), drops=2)
        out = tmp_path / "out"
        run_sweep(cfg, out_dir=str(out))
        views = sorted(name for name in os.listdir(out) if name.startswith("power_vs_de_"))
        assert views == ["power_vs_de_du100.csv", "power_vs_de_du200.csv"]
        for d_u in (100.0, 200.0):
            with open(out / f"power_vs_de_du{d_u:g}.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert {row["d_u_m"] for row in rows} == {repr(d_u)}
            keys = [(float(row["d_e_m"]), row["scheme"], row["algorithm"]) for row in rows]
            assert keys == sorted(keys) and len(keys) == 2 * (2 + 1)
        single = tmp_path / "single"
        run_sweep(fast_config(tmp_path, drops=2), out_dir=str(single))
        assert not [name for name in os.listdir(single) if name.startswith("power_vs_de_")]

    def test_bit_reproducible(self, tmp_path):
        cfg = fast_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_sweep(cfg, out_dir=str(out1))
        run_sweep(cfg, out_dir=str(out2))
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()

    def test_embb_power_invariant_to_urllc_distance(self, tmp_path):
        cfg = fast_config(tmp_path)
        records = run_sweep(cfg, out_dir=None)
        for scheme in ("noma", "oma-3"):
            embb = {r.mean_embb_dbm for r in records if r.scheme == scheme}
            assert len(embb) == 1  # identical drops, identical broadband power

    def test_urllc_power_grows_with_distance(self, tmp_path):
        cfg = fast_config(tmp_path, schemes=("oma-3",), d_u=(50.0, 300.0))
        records = run_sweep(cfg, out_dir=None)
        by_du = {r.d_u_m: r.mean_urllc_dbm for r in records}
        assert by_du[300.0] > by_du[50.0]

    def test_snr_axis_is_equivalent_to_distance_axis(self, tmp_path):
        # a 50 dB mean-SNR point is the same sweep point as 146.9 m
        base = fast_config(tmp_path, schemes=("oma-3",), d_u=(100.0,))
        via_d = run_sweep(base, out_dir=None)
        via_g = run_sweep(
            fast_config(tmp_path, schemes=("oma-3",), d_u=(), gamma_u_db=(56.681617,)),
            out_dir=None,
        )
        assert via_g[0].d_u_m == pytest.approx(100.0, abs=1e-3)
        assert via_d[0].mean_embb_dbm == via_g[0].mean_embb_dbm

    def test_each_broadband_stage_is_computed_once(self, tmp_path, monkeypatch):
        # one d_e, two d_u, noma + oma-3, fea + bcd, 3 drops: one draw per
        # drop and one stage per (scheme, drop), shared by the rest
        calls = {"drop": 0, "embb_stage": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            original = getattr(slicepower.sweep, name)
            monkeypatch.setattr(slicepower.sweep, name, counting(name, original))
        cfg = fast_config(tmp_path)
        assert cfg.algorithms == ("fea", "bcd") and len(cfg.d_e) == 1 and len(cfg.d_u) == 2
        records = run_sweep(cfg, out_dir=None)
        assert len(records) == 2 * (2 + 1)
        assert calls == {"drop": 3, "embb_stage": 6}

    def test_noma_beats_oma_at_far_urllc(self, tmp_path):
        # total power comparison at a distant URLLC placement
        cfg = fast_config(tmp_path, d_u=(300.0,), drops=6,
                          schemes=("noma", "oma-3"), algorithms=("bcd",))
        records = run_sweep(cfg, out_dir=None)
        noma = [r for r in records if r.scheme == "noma" and r.algorithm == "bcd"]
        oma = [r for r in records if r.scheme == "oma-3"]
        assert noma[0].mean_total_dbm < oma[0].mean_total_dbm

    def test_bcd_csvs_match_the_uncached_oracle(self, tmp_path, monkeypatch):
        # the cached frozen-draw evaluator and the oracle that recomputes
        # every column write the same bytes, on any platform
        cfg = fast_config(tmp_path, schemes=("noma",), algorithms=("bcd",), d_u=(100.0,),
                          drops=2, table_trials=3000, crn_draws=3000, evidence_trials=3000)
        run_sweep(cfg, out_dir=str(tmp_path / "cached"))
        monkeypatch.setattr(slicepower.alloc, "CommonRandomOutage", UncachedCommonRandomOutage)
        run_sweep(cfg, out_dir=str(tmp_path / "oracle"))
        names = sorted(os.listdir(tmp_path / "cached"))
        assert names == sorted(os.listdir(tmp_path / "oracle")) and "records.csv" in names
        for name in names:
            assert (tmp_path / "cached" / name).read_bytes() == (tmp_path / "oracle" / name).read_bytes()


class TestInterferencePreflight:
    """A table whose interference axis cannot cover the drops fails before
    any table is built and before any allocation."""

    @staticmethod
    def forbid(monkeypatch, *names):
        for name in names:
            def refuse(*args, _name=name, **kwargs):
                raise AssertionError(f"{_name} ran before the preflight")
            monkeypatch.setattr(slicepower.sweep, name, refuse)

    def test_auto_build_beyond_the_default_axis(self, tmp_path, monkeypatch):
        # triple the broadband load at 400 m: the worst NOMA power is
        # about 40 dBm, above the default axis's 30 dBm top row
        cfg = fast_config(tmp_path, n_e=3 * 8640.0, d_e=(400.0,), d_u=(100.0,),
                          schemes=("noma",), algorithms=("fea",))
        self.forbid(monkeypatch, "build_table", "allocate")
        with pytest.raises(TableExhaustedError, match=r"d_e = 400 m: interference 39\.98 dBm"):
            run_sweep(cfg, out_dir=None)

    def test_loaded_table_below_the_worst_power(self, tmp_path, monkeypatch):
        cfg = fast_config(tmp_path, auto_build_tables=False, d_u=(100.0,),
                          schemes=("noma",), algorithms=("fea",))
        grid, traffic = cfg.grid(), cfg.traffic()
        stage = embb_stage(grid, traffic, drop(cfg.seed, 0, cfg.mean_gain(146.9), grid.F),
                           *scheme_f_u_count("noma", grid.F), cfg.m_u)
        gamma_u = cfg.mean_gain(100.0)
        table = build_table(gamma_u, stage.sets.F_u, stage.r_u, 200, cfg.seed,
                            axis_pu_dbm=[0.0, 30.0], axis_pe_dbm=[-math.inf, -30.0])
        path = table_path(cfg, gamma_u, stage.sets.F_u, stage.r_u)
        os.makedirs(os.path.dirname(path))
        save_table(table, path)
        self.forbid(monkeypatch, "allocate")
        with pytest.raises(TableExhaustedError,
                           match=r"d_e = 146.9 m: .* exceeds the table's -30.00 dBm"):
            run_sweep(cfg, out_dir=None)


class TestBroadbandRow40dB:
    # reference row not covered by the acceptance table: 23.36 / 24.32 /
    # 29.09 / 48.54 dBm at a 40 dB mean SNR, +-0.5 dB
    REFS = {"noma": 23.36, "oma-3": 24.32, "oma-6": 29.09, "oma-9": 48.54}

    def test_mean_embb_power_row(self):
        from slicepower.units import mw_to_dbm, snr_db_to_gain

        cfg = load_config(None)
        grid, traffic = cfg.grid(), cfg.traffic()
        drops = 3000
        gains = [drop(33, i, snr_db_to_gain(40.0), grid.F) for i in range(drops)]
        for label, ref in self.REFS.items():
            scheme, f_u_count = scheme_f_u_count(label, grid.F)
            totals = np.empty(drops)
            for i, gamma_e in enumerate(gains):
                embb = embb_stage(grid, traffic, gamma_e, scheme, f_u_count, cfg.m_u)
                totals[i] = grid.M * embb.p_e.sum()
            measured = mw_to_dbm(float(totals.mean()))
            assert abs(measured - ref) <= 0.5, f"{label}: {measured:.2f} vs {ref}"


class TestTables:
    def test_auto_build_persists_and_reloads(self, tmp_path):
        cfg = fast_config(tmp_path)
        table = ensure_table(cfg, 1.0, 3, 4.0)
        path = table_path(cfg, 1.0, 3, 4.0)
        assert path.endswith(".npz")
        again = ensure_table(cfg, 1.0, 3, 4.0)
        assert np.array_equal(again.values, table.values)

    def test_missing_table_error_is_actionable(self, tmp_path):
        cfg = fast_config(tmp_path, auto_build_tables=False)
        with pytest.raises(SlicePowerError, match="table build"):
            ensure_table(cfg, 1.0, 3, 4.0)
