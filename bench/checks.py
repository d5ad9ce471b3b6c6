"""Output checks of the three workloads.

Each check returns the names of the output groups that failed it (an
empty list when all hold).  Every check holds for any correct
implementation of slicepower, so a change that moves the numbers on
purpose is not reported as failing; what a change must keep bit-exact
is tracked separately by the output digest.
"""

from __future__ import annotations

import math

import numpy as np

#: broadband-power reference cells (mean SNR [dB], scheme, dBm) and the
#: acceptance tolerance; the four cells README lists as red are not checked
C6_CELLS = (
    (30.0, "noma", 33.21), (30.0, "oma-3", 34.18), (30.0, "oma-6", 38.89),
    (30.0, "oma-9", 58.27),
    (50.0, "noma", 14.21), (50.0, "oma-3", 14.44), (50.0, "oma-6", 19.23),
    (50.0, "oma-9", 38.74),
    (80.0, "noma", -9.67), (80.0, "oma-3", -9.67), (80.0, "oma-6", -9.67),
    (80.0, "oma-9", 8.65),
)
C6_RED = {(50.0, "noma"), (80.0, "noma"), (80.0, "oma-3"), (80.0, "oma-6")}
C6_TOLERANCE_DB = 0.5


def c6_label(snr_db: float, scheme: str) -> str:
    return f"{scheme}@{snr_db:g}dB"


def probabilities_in_unit_interval(tables: dict) -> list:
    """Every tabulated outage probability is a number in [0, 1]."""
    return [name for name, table in tables.items()
            if not np.all((table.values >= 0.0) & (table.values <= 1.0))]


def round_trip_exact(name: str, table, loaded) -> list:
    """A saved and reloaded table equals the original bit for bit."""
    same = (
        loaded.values.tobytes() == table.values.tobytes()
        and loaded.axis_pu_dbm.tobytes() == table.axis_pu_dbm.tobytes()
        and loaded.axis_pe_dbm.tobytes() == table.axis_pe_dbm.tobytes()
        and (loaded.gamma_u, loaded.f_count, loaded.r_u, loaded.m_u, loaded.trials, loaded.seed)
        == (table.gamma_u, table.f_count, table.r_u, table.m_u, table.trials, table.seed)
    )
    return [] if same else [name]


def cells_reproduce(tables: dict, cells: dict, reproduce) -> list:
    """Chosen cells equal a fresh ``reproduce(table, i, j)`` estimate."""
    failed = []
    for name, picks in cells.items():
        table = tables[name]
        if any(reproduce(table, i, j) != table.values[i, j] for i, j in picks):
            failed.append(name)
    return failed


def bcd_dominates_fea(records) -> list:
    """At every NOMA point the descent's mean total is at most the table
    allocator's (the descent starts there and only lowers powers)."""
    by_point: dict = {}
    for rec in records:
        if rec.scheme == "noma":
            by_point.setdefault((rec.d_e_m, rec.d_u_m), {})[rec.algorithm] = rec
    failed = []
    for point in by_point.values():
        if "fea" in point and "bcd" in point:
            if not point["bcd"].mean_total_dbm <= point["fea"].mean_total_dbm:
                failed += [sweep_label(point["fea"]), sweep_label(point["bcd"])]
    return failed


def evidence_within_target(records, epsilon: float, evidence_trials: int) -> list:
    """Every point's mean evidence estimate is at most the target plus the
    3-sigma binomial half-width of one evidence run at the target."""
    limit = epsilon + 3.0 * math.sqrt(epsilon * (1.0 - epsilon) / evidence_trials)
    return [sweep_label(rec) for rec in records if not rec.mean_p_hat <= limit]


def sweep_label(rec) -> str:
    return f"{rec.scheme}/{rec.algorithm}@{rec.d_u_m:g}m"


def c6_green_cells(mean_dbm: dict) -> list:
    """The green reference cells reproduce within the tolerance."""
    failed = []
    for snr_db, scheme, ref in C6_CELLS:
        if (snr_db, scheme) in C6_RED:
            continue
        label = c6_label(snr_db, scheme)
        if not abs(mean_dbm[label] - ref) <= C6_TOLERANCE_DB:
            failed.append(label)
    return failed
