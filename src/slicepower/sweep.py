"""Experiment sweeps: distance grids, drop averaging and CSV emission.

A sweep evaluates every (eMBB distance, URLLC distance, scheme,
algorithm) combination over a number of fading drops and writes one CSV
per swept axis plus a broadband-power summary.  Records come in sweep
order: placements sorted, schemes and algorithms in config order.  All
randomness is derived from the config seed, so identical configs produce
byte-identical files on any number of CPUs.

The caller's thread builds or loads the tables and runs every drop's
URLLC stage (the table lookup and the descent) in sweep order, so one
frozen-draw matrix is alive at a time.  Each drop's evidence run goes to
helper threads, one per available CPU beyond the caller's
(:func:`slicepower.parallel.fan_out`), and overlaps the descents that
follow it.  A point's record is made and logged as soon as its evidence
runs and every earlier point's are done.
"""

from __future__ import annotations

import csv
import logging
import os
import threading
import time
from dataclasses import dataclass, fields

import numpy as np

from . import rng as rngmod
from .alloc import Algorithm, allocate, embb_stage, evidence_stage, urllc_stage
from .channel import drop
from .config import ScenarioConfig, scheme_f_u_count
from .errors import SlicePowerError, TableExhaustedError
from .grid import Scheme
from .parallel import fan_out
from .table import (OutageTable, build_table, default_interference_axis_dbm, interference_row,
                    load_table, save_table)
from .units import gain_to_snr_db, mw_to_dbm

# ``allocate`` stays bound here for callers that look it up on this module
# (bench/tracing.py); the sweep runs its two stages apart
__all__ = ["SweepRecord", "table_path", "table_build_command", "ensure_table", "run_sweep",
           "write_records_csv", "allocate"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SweepRecord:
    """Averages for one (scheme, algorithm, placement) sweep point."""

    scheme: str
    algorithm: str
    d_u_m: float
    d_e_m: float
    mean_total_dbm: float
    mean_urllc_dbm: float
    mean_embb_dbm: float
    mean_p_hat: float
    drops: int

    def row(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: repr(v) if isinstance(v, float) else str(v) for name, v in values.items()}


def table_path(cfg: ScenarioConfig, gamma_u: float, f_u: int, r_u: float) -> str:
    """Canonical table file name for one (mean SNR, F_u, r_u) need."""
    name = (
        f"table_gu{gain_to_snr_db(gamma_u):.4f}dB_fu{f_u}_ru{r_u:.8g}"
        f"_t{cfg.table_trials}_s{cfg.seed}.npz"
    )
    return os.path.join(cfg.table_dir, name)


def table_build_command(gamma_u: float, f_u: int, r_u: float, trials: int, seed: int,
                        out: str) -> str:
    """The ``slicepower table build`` command line that writes this table."""
    return (f"slicepower table build --gamma-u-db {gain_to_snr_db(gamma_u):.6f} --f-u {f_u} "
            f"--r-u {r_u:.8g} --trials {trials} --seed {seed} --out {out}")


def ensure_table(cfg: ScenarioConfig, gamma_u: float, f_u: int, r_u: float,
                 p_e_max_mw: float = 0.0) -> OutageTable:
    """Load the table for this need, building it first when allowed.

    The table's interference axis must reach ``p_e_max_mw``, the worst
    broadband power on a URLLC resource: a loaded table is checked right
    after the load and the default axis before a build, so a shortfall
    raises :class:`TableExhaustedError` before any allocation.
    """
    path = table_path(cfg, gamma_u, f_u, r_u)
    if os.path.exists(path):
        table = load_table(path)
        if table.matches(gamma_u, f_u, r_u):
            interference_row(table.axis_pe_dbm, p_e_max_mw)
            return table
        raise SlicePowerError(f"existing table {path} does not match the request")
    if not cfg.auto_build_tables:
        raise SlicePowerError(
            f"missing outage table {path}; build it with\n"
            f"  {table_build_command(gamma_u, f_u, r_u, cfg.table_trials, cfg.seed, path)}\n"
            "or set auto_build_tables = true"
        )
    interference_row(default_interference_axis_dbm(), p_e_max_mw)
    log.info("building outage table %s (trials=%d)", path, cfg.table_trials)
    table = build_table(gamma_u, f_u, r_u, cfg.table_trials, cfg.seed, m_u=cfg.m_u)
    save_table(table, path)
    return table


def _mean_dbm(values_mw) -> float:
    return mw_to_dbm(float(np.mean(values_mw)))


@dataclass
class _Point:
    """One sweep point while the evidence runs of its drops are outstanding."""

    scheme: str
    algorithm: str
    d_u_m: float
    d_e_m: float
    results: list  # one AllocationResult per drop, None until its evidence run ends
    missing: int

    def record(self) -> SweepRecord:
        results = self.results
        return SweepRecord(
            scheme=self.scheme, algorithm=self.algorithm, d_u_m=self.d_u_m, d_e_m=self.d_e_m,
            mean_total_dbm=_mean_dbm([r.p_total_mw for r in results]),
            mean_urllc_dbm=_mean_dbm([r.urllc_power_mw for r in results]),
            mean_embb_dbm=_mean_dbm([r.embb_power_mw for r in results]),
            mean_p_hat=float(np.mean([r.p_u_hat.p_hat for r in results])),
            drops=len(results),
        )


def run_sweep(cfg: ScenarioConfig, out_dir: str | None = None) -> list:
    """Evaluate the whole sweep; returns records and writes CSVs.

    Drop ``i`` has the same fading for every scheme, algorithm and
    placement (:func:`slicepower.channel.drop`), so comparisons see
    common channels.  Its broadband stage (:func:`slicepower.alloc.embb_stage`)
    is computed once per (eMBB placement, scheme) and serves every URLLC
    placement and algorithm.  Each drop's result is the one
    :func:`slicepower.alloc.allocate` returns for it: the URLLC stage runs
    on the caller's thread, the evidence stage on any (module docstring).
    OMA points run the table algorithm only (the descent cannot improve
    a uniform no-interference optimum by more than the grid step).
    """
    start = time.perf_counter()
    grid = cfg.grid()
    traffic = cfg.traffic()
    d_u_axis, d_e_axis = cfg.placements()
    if not d_u_axis or not d_e_axis:
        log.info("empty sweep axis; nothing to do")
        return []

    bcd = cfg.bcd_options()
    points: list[_Point] = []
    records: list[SweepRecord] = []
    lock = threading.Lock()  # guards points, records and each point's missing count

    def urllc_stages():
        """Every drop's URLLC stage in sweep order, each followed by the
        arguments of its evidence run."""
        for d_e in d_e_axis:
            gamma_e_mean = cfg.mean_gain(d_e)
            gains = [drop(cfg.seed, i, gamma_e_mean, grid.F) for i in range(cfg.drops)]
            stages = {label: [embb_stage(grid, traffic, g, *scheme_f_u_count(label, grid.F),
                                         cfg.m_u) for g in gains] for label in cfg.schemes}
            # the worst broadband power on a URLLC resource, which every table must cover
            worst = {label: max(float(stage.p_e[list(stage.sets.f_u)].max()) for stage in runs)
                     for label, runs in stages.items()}
            for d_u in d_u_axis:
                gamma_u_mean = cfg.mean_gain(d_u)
                for scheme_label in cfg.schemes:
                    first = stages[scheme_label][0]  # every drop needs the same (F_u, r_u)
                    try:
                        table = ensure_table(cfg, gamma_u_mean, first.sets.F_u, first.r_u,
                                             worst[scheme_label])
                    except TableExhaustedError as exc:
                        raise TableExhaustedError(f"at d_e = {d_e:g} m: {exc}") from exc
                    algos = (cfg.algorithms if first.sets.scheme is Scheme.NOMA
                             else (Algorithm.FEASIBLE,))
                    for algo in algos:
                        point = _Point(scheme_label, algo, d_u, d_e, [None] * cfg.drops,
                                       cfg.drops)
                        with lock:
                            points.append(point)
                        for i, stage in enumerate(stages[scheme_label]):
                            drop_seed = rngmod.derive_seed_sequence(
                                cfg.seed, "alloc", scheme_label, algo, float(d_e), float(d_u), i)
                            seed = int(drop_seed.generate_state(1)[0])
                            p_u, sweeps = urllc_stage(stage, gamma_u_mean, algo, traffic.epsilon_u,
                                                      seed, table, bcd)
                            yield point, i, stage, gamma_u_mean, algo, p_u, sweeps, seed

    def evidence(point, i, stage, gamma_u_mean, algo, p_u, sweeps, seed) -> None:
        point.results[i] = evidence_stage(stage, gamma_u_mean, algo, p_u, sweeps, seed,
                                          cfg.evidence_trials)
        with lock:
            point.missing -= 1
            while len(records) < len(points) and not points[len(records)].missing:
                records.append(points[len(records)].record())
                log.info("point done: %s", records[-1])

    threads = fan_out(evidence, urllc_stages())
    log.info("swept: %d points, %d allocations, %d evidence threads, %.2f s",
             len(records), sum(rec.drops for rec in records), threads,
             time.perf_counter() - start)
    if out_dir is not None and records:
        _emit_csvs(records, cfg, out_dir)
    return records


def write_records_csv(records, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[f.name for f in fields(SweepRecord)])
        writer.writeheader()
        for rec in records:
            writer.writerow(rec.row())


def _emit_csvs(records, cfg: ScenarioConfig, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_records_csv(records, os.path.join(out_dir, "records.csv"))
    # one power-vs-URLLC-distance file per eMBB placement and, when d_e
    # sweeps, one power-vs-eMBB-distance file per URLLC placement
    views = [("d_e_m", "d_u_m", "power_vs_du_de")]
    if len({rec.d_e_m for rec in records}) > 1:
        views.append(("d_u_m", "d_e_m", "power_vs_de_du"))
    for fixed, axis, stem in views:
        for value in sorted({getattr(rec, fixed) for rec in records}):
            subset = sorted((r for r in records if getattr(r, fixed) == value),
                            key=lambda r: (getattr(r, axis), r.scheme, r.algorithm))
            write_records_csv(subset, os.path.join(out_dir, f"{stem}{value:g}.csv"))
    # broadband-power summary by placement and scheme
    path = os.path.join(out_dir, "table_embb_power.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["d_e_m", *cfg.schemes])
        for d_e in sorted({rec.d_e_m for rec in records}):
            row = [repr(d_e)]
            for scheme in cfg.schemes:
                cells = [r.mean_embb_dbm for r in records
                         if r.d_e_m == d_e and r.scheme == scheme]
                row.append(repr(float(np.mean(cells))) if cells else "")
            writer.writerow(row)
