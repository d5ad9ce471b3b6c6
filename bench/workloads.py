"""The three benchmark workloads.

Each workload is built from the seed alone, sets up its inputs
(``setup``, repeatable), then runs identical rounds (``run_round``, the
timed part).  Every round's outputs are checked and digested outside the
timed region.  The workloads call slicepower through module attributes,
as its own callers do, so the tracer's rebinding sees every call.

Sizes are per scale: ``full`` is what the benchmark measures, ``tiny``
runs each workload end to end in a few seconds for the benchmark's own
tests.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import shutil

import numpy as np

import checks
import slicepower.channel as sp_channel
import slicepower.config as sp_config
import slicepower.grid as sp_grid
import slicepower.outage as sp_outage
import slicepower.rng as sp_rng
import slicepower.sweep as sp_sweep
import slicepower.table as sp_table
import slicepower.units as sp_units

# the package re-exports a function named ``waterfill`` over the module name
sp_waterfill = importlib.import_module("slicepower.waterfill")

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIO_FILE = os.path.join(REPO, "example-scenario.cfg")

#: the reference setup every workload starts from (README, "Config files")
REFERENCE = sp_config.ScenarioConfig()


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _mean_gain_per_mw(cfg, distance_m: float) -> float:
    """Per-mW mean gain at a distance, as the sweep derives it."""
    sigma2_w = sp_units.dbm_to_watt(cfg.noise_dbm)
    return sp_channel.mean_snr_from_distance(distance_m, cfg.geometry(), sigma2_w) / 1e3


class TableBuild:
    """Cold default-axes table builds for one NOMA and one OMA-3 need at
    d_u = 100 m, plus one ``.npz`` save/load round trip."""

    name = "table-build"
    op_name = "cells"
    SCALES = {"full": {"trials": 4000}, "tiny": {"trials": 200}}
    D_U_M = 100.0
    NEEDS = (("noma", 12), ("oma-3", 3))
    CHECKED_CELLS = 2  # per table, reproduced in isolation each round

    def __init__(self, seed: int, scale: str, workdir: str):
        self.seed = seed
        self.trials = self.SCALES[scale]["trials"]
        self.workdir = workdir
        self.path = os.path.join(workdir, "table.npz")
        self.needs: list = []
        self.picks: dict | None = None

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        grid, traffic = REFERENCE.grid(), REFERENCE.traffic()
        gamma_u = _mean_gain_per_mw(REFERENCE, self.D_U_M)
        self.needs = [
            (label, gamma_u, f_u, sp_grid.spectral_efficiency(traffic.N_u, grid, f_u, 1))
            for label, f_u in self.NEEDS
        ]

    def run_round(self) -> dict:
        tables = {
            label: sp_table.build_table(gamma_u, f_u, r_u, self.trials, self.seed)
            for label, gamma_u, f_u, r_u in self.needs
        }
        first = self.needs[0][0]
        sp_table.save_table(tables[first], self.path)
        loaded = sp_table.load_table(self.path)
        return {"tables": tables, "round_trip": (first, loaded)}

    def expected_ops(self) -> int:
        rows = sp_table.default_interference_axis_dbm().size
        return rows * sp_table.default_power_axis_dbm().size * len(self.needs)

    def groups(self, out: dict) -> dict:
        return {label: t.values.size for label, t in out["tables"].items()}

    def _pick_cells(self, tables: dict) -> dict:
        """Cells to reproduce: drawn from the seed among the sampled ones."""
        rng = np.random.default_rng([self.seed, 0x7AB1E])
        picks = {}
        for label, table in tables.items():
            sampled = np.argwhere((table.values > 0.0) & (table.values < 1.0))
            pool = sampled if len(sampled) else np.argwhere(np.ones_like(table.values))
            rows = rng.choice(len(pool), size=min(self.CHECKED_CELLS, len(pool)), replace=False)
            picks[label] = [tuple(int(x) for x in pool[r]) for r in rows]
        return picks

    @staticmethod
    def reproduce(table, i: int, j: int) -> float:
        """One cell from (seed, P_u dBm, P_e dBm) alone (README, "Table files")."""
        pu, pe = float(table.axis_pu_dbm[j]), float(table.axis_pe_dbm[i])
        seed = int(sp_table.cell_seed(table.seed, pu, pe).generate_state(1)[0])
        p_u = np.full(table.f_count, sp_units.dbm_to_mw(pu))
        p_e = np.full(table.f_count, sp_units.dbm_to_mw(pe))
        return sp_outage.estimate_outage(
            p_u, p_e, table.gamma_u, table.r_u, table.trials, seed).p_hat

    def check(self, out: dict) -> list:
        tables = out["tables"]
        if self.picks is None:
            self.picks = self._pick_cells(tables)
        label, loaded = out["round_trip"]
        return (
            checks.probabilities_in_unit_interval(tables)
            + checks.round_trip_exact(label, tables[label], loaded)
            + checks.cells_reproduce(tables, self.picks, self.reproduce)
        )

    def digest(self, out: dict) -> str:
        parts = []
        for label, table in sorted(out["tables"].items()):
            parts += [label.encode(), table.axis_pu_dbm.tobytes(), table.axis_pe_dbm.tobytes(),
                      table.values.tobytes()]
        return _sha256(*parts)

    def info(self) -> dict:
        return {"d_u_m": self.D_U_M, "trials": self.trials,
                "needs": [[label, f_u, r_u] for label, _, f_u, r_u in self.needs]}


class SweepWarm:
    """``run_sweep`` on a shrunk ``example-scenario.cfg`` whose tables were
    built during set-up, so every ``ensure_table`` is a hit."""

    name = "sweep-warm"
    op_name = "allocs"
    SCALES = {
        "full": {"drops": 20},
        "tiny": {"drops": 1, "crn_draws": 5000, "evidence_trials": 5000},
    }
    D_U_M = (200.0,)
    SCHEMES = ("noma", "oma-3")
    TABLE_TRIALS = 10_000

    def __init__(self, seed: int, scale: str, workdir: str):
        self.overrides = {
            "schemes": self.SCHEMES, "d_u": self.D_U_M, "seed": seed,
            "table_trials": self.TABLE_TRIALS,
            "table_dir": os.path.join(workdir, "tables"),
            "auto_build_tables": False,  # a table build in the timed run fails it
            **self.SCALES[scale],
        }
        self.out_dir = os.path.join(workdir, "sweep")
        self.cfg = None
        self.interfered_rows: list = []

    def _interference_axis(self, cfg) -> np.ndarray:
        """No-interference row plus the 1 dB rows the NOMA drops query.

        The table allocator looks up the row at or above the largest
        broadband power on the URLLC resources; under NOMA those are all
        resources, under OMA none (the no-interference row).
        """
        grid, traffic = cfg.grid(), cfg.traffic()
        r_e = sp_grid.spectral_efficiency(traffic.N_e, grid, grid.F, grid.M)
        gamma_e_mean = _mean_gain_per_mw(cfg, cfg.d_e[0])
        worst = []
        for i in range(cfg.drops):
            fading = sp_rng.substream(cfg.seed, "drop", i).standard_exponential(grid.F)
            p_e = sp_waterfill.embb_power(gamma_e_mean * fading, r_e)
            worst.append(sp_units.mw_to_dbm(float(p_e.max())))
        rows = np.arange(math.ceil(min(worst)), math.ceil(max(worst)) + 1, dtype=float)
        return np.concatenate(([-math.inf], rows))

    def setup(self) -> None:
        cfg = sp_config.load_config(SCENARIO_FILE, overrides=self.overrides)
        shutil.rmtree(cfg.table_dir, ignore_errors=True)
        os.makedirs(cfg.table_dir)
        axis_pe = self._interference_axis(cfg)
        grid, traffic = cfg.grid(), cfg.traffic()
        for d_u in cfg.d_u:
            gamma_u = _mean_gain_per_mw(cfg, d_u)
            for label in cfg.schemes:
                _, f_u = sp_config.scheme_f_u_count(label, grid.F)
                r_u = sp_grid.spectral_efficiency(traffic.N_u, grid, f_u, cfg.m_u)
                table = sp_table.build_table(gamma_u, f_u, r_u, cfg.table_trials, cfg.seed,
                                             axis_pe_dbm=axis_pe, m_u=cfg.m_u)
                sp_table.save_table(table, sp_sweep.table_path(cfg, gamma_u, f_u, r_u))
        self.cfg, self.interfered_rows = cfg, axis_pe[1:].tolist()

    def run_round(self) -> dict:
        records = sp_sweep.run_sweep(self.cfg, self.out_dir)
        return {"records": records}

    def _points(self) -> int:
        """Records per sweep: NOMA runs every algorithm, OMA the table one."""
        per_placement = sum(len(self.cfg.algorithms) if label == "noma" else 1
                            for label in self.cfg.schemes)
        return len(self.cfg.d_u) * len(self.cfg.d_e) * per_placement

    def expected_ops(self) -> int:
        return self._points() * self.cfg.drops

    def groups(self, out: dict) -> dict:
        return {checks.sweep_label(rec): rec.drops for rec in out["records"]}

    def check(self, out: dict) -> list:
        records = out["records"]
        missing = ["records"] if len(records) != self._points() else []
        return (
            missing
            + checks.bcd_dominates_fea(records)
            + checks.evidence_within_target(records, self.cfg.epsilon_u, self.cfg.evidence_trials)
        )

    def digest(self, out: dict) -> str:
        parts = []
        for name in sorted(os.listdir(self.out_dir)):
            with open(os.path.join(self.out_dir, name), "rb") as fh:
                parts += [name.encode(), fh.read()]
        return _sha256(*parts)

    def info(self) -> dict:
        return {"config": sp_config.dump_config(self.cfg),
                "table_interfered_rows_dbm": self.interfered_rows}


def embb_drop(gamma_mean: float, seed: int, i: int, f_u_count: int, noma: bool,
              grid, n_e: float, r_u: float) -> tuple:
    """One broadband drop: fading draw, URLLC selection, water-filling and,
    under NOMA, the cancellation floor.  Returns (slot power, floor) [mW]."""
    gamma = gamma_mean * sp_rng.substream(seed, "drop", i).standard_exponential(grid.F)
    f_u = sp_grid.select_urllc_frequencies(gamma, f_u_count)
    if noma:
        f_e = list(range(grid.F))
    else:
        taken = set(f_u)
        f_e = [f for f in range(grid.F) if f not in taken]
    r_e = sp_grid.spectral_efficiency(n_e, grid, len(f_e), grid.M)
    p_e = sp_waterfill.embb_power(gamma[f_e], r_e)
    floor = 0.0
    if noma:
        fu = list(f_u)
        floor = float(sp_waterfill.sic_power(p_e[fu], gamma[fu], r_u, sp_grid.Scheme.NOMA).sum())
    return grid.M * float(p_e.sum()), floor


class EmbbDrops:
    """The broadband-power table (C6): 30/50/80 dB x noma/oma-3/6/9."""

    name = "embb-drops"
    op_name = "drops"
    SCALES = {"full": {"drops": 2000}, "tiny": {"drops": 300}}

    def __init__(self, seed: int, scale: str, workdir: str):
        self.seed = seed
        self.drops = self.SCALES[scale]["drops"]
        self.cells: list = []

    def setup(self) -> None:
        grid, traffic = REFERENCE.grid(), REFERENCE.traffic()
        r_u = sp_grid.spectral_efficiency(traffic.N_u, grid, grid.F, REFERENCE.m_u)
        self.cells = []
        for snr_db, label, _ in checks.C6_CELLS:
            scheme, f_u = sp_config.scheme_f_u_count(label, grid.F)
            self.cells.append((checks.c6_label(snr_db, label), sp_units.snr_db_to_gain(snr_db),
                               f_u, scheme is sp_grid.Scheme.NOMA, r_u))
        self.grid, self.n_e = grid, traffic.N_e

    def run_round(self) -> dict:
        out = {}
        for label, gamma_mean, f_u, noma, r_u in self.cells:
            results = [embb_drop(gamma_mean, self.seed, i, f_u, noma, self.grid, self.n_e, r_u)
                       for i in range(self.drops)]
            out[label] = np.array(results)
        return out

    def expected_ops(self) -> int:
        return len(self.cells) * self.drops

    def groups(self, out: dict) -> dict:
        return {label: len(rows) for label, rows in out.items()}

    @staticmethod
    def mean_dbm(out: dict) -> dict:
        return {label: sp_units.mw_to_dbm(float(rows[:, 0].mean())) for label, rows in out.items()}

    def check(self, out: dict) -> list:
        return checks.c6_green_cells(self.mean_dbm(out))

    def digest(self, out: dict) -> str:
        return _sha256(*(label.encode() + rows.tobytes() for label, rows in sorted(out.items())))

    def info(self) -> dict:
        return {"drops_per_cell": self.drops, "cells": [c[0] for c in self.cells]}


WORKLOADS = {w.name: w for w in (TableBuild, SweepWarm, EmbbDrops)}
