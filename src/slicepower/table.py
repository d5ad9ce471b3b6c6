"""Persisted Monte Carlo outage tables and the feasibility query.

A table fixes (mean SNR, frequency count, rate) and stores the estimated
outage probability on a dBm grid of uniform transmit/interference power
pairs.  ``-inf`` on the interference axis is the no-interference row.
Every cell that is not a sure outage is produced by
:func:`slicepower.outage.estimate_outage` under a sub-seed derived from
the cell's coordinates, so any cell can be reproduced in isolation and
cells may be computed in any order without changing the result.  Writes are atomic: a file at a table path is
either the previous table or the complete new one.
"""

from __future__ import annotations

import json
import logging
import math
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .errors import TableExhaustedError
from .outage import _sure_outage, _target_nats, estimate_outage
from .units import dbm_to_mw, mw_to_dbm

__all__ = [
    "OutageTable",
    "default_power_axis_dbm",
    "default_interference_axis_dbm",
    "cell_seed",
    "interference_row",
    "build_table",
    "min_feasible_power",
    "save_table",
    "load_table",
]

_FORMAT_NAME = "slicepower-outage-table"
_FORMAT_VERSION = 1
_MATCH_REL_TOL = 1e-2

log = logging.getLogger(__name__)


# A table file holds, in order, its format name and version, this metadata (with
# the type each loads as) and these float64 arrays; both encodings use this spec.
_META = {"gamma_u": float, "f_count": int, "r_u": float, "m_u": int, "trials": int, "seed": int}
_ARRAYS = ("axis_pu_dbm", "axis_pe_dbm", "values")
_FIELDS = (*_META, *_ARRAYS)


def default_power_axis_dbm() -> np.ndarray:
    """-30..30 dBm in 1 dB steps."""
    return np.arange(-30.0, 31.0)


def default_interference_axis_dbm() -> np.ndarray:
    """No-interference row followed by -30..30 dBm in 1 dB steps."""
    return np.concatenate(([-math.inf], default_power_axis_dbm()))


@dataclass(frozen=True)
class OutageTable:
    """Tabulated outage probabilities with full reproduction metadata.

    ``values[i, j]`` is the estimate at interference ``axis_pe_dbm[i]``
    and transmit power ``axis_pu_dbm[j]`` (both uniform across the
    ``f_count`` resources at rate ``r_u``).  ``m_u`` records the window
    length already folded into ``r_u``.
    """

    axis_pu_dbm: np.ndarray
    axis_pe_dbm: np.ndarray
    gamma_u: float
    f_count: int
    r_u: float
    m_u: int
    values: np.ndarray
    trials: int
    seed: int
    version: int = field(default=_FORMAT_VERSION, init=False)

    def __post_init__(self):
        for name in _ARRAYS:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        for axis in (self.axis_pu_dbm, self.axis_pe_dbm):
            if axis.size == 0 or np.isnan(axis).any() or not (np.diff(axis) > 0.0).all():
                raise ValueError("table axes must be non-empty, free of NaN and strictly increasing")
        if not np.all(np.isfinite(self.axis_pu_dbm)):
            raise ValueError("transmit-power axis must be finite")
        if self.values.shape != (self.axis_pe_dbm.size, self.axis_pu_dbm.size):
            raise ValueError("values shape does not match the axes")
        if not ((self.values >= 0.0) & (self.values <= 1.0)).all():  # NaN fails
            raise ValueError("probabilities must lie in [0, 1]")

    def matches(self, gamma_u: float, f_count: int, r_u: float) -> bool:
        """True when the table serves this (mean SNR, F_u, rate) need.

        The tolerance (~0.04 dB on the mean SNR) absorbs rounded dB/distance
        round trips; setups an entire grid step apart stay distinguishable.
        """
        return (
            self.f_count == f_count
            and math.isclose(self.gamma_u, gamma_u, rel_tol=_MATCH_REL_TOL)
            and math.isclose(self.r_u, r_u, rel_tol=_MATCH_REL_TOL)
        )


def cell_seed(base_seed: int, pu_dbm: float, pe_dbm: float) -> np.random.SeedSequence:
    """Sub-seed of one table cell, keyed by the grid coordinates."""
    return rngmod.derive_seed_sequence(base_seed, "table-cell", float(pu_dbm), float(pe_dbm))


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_table(
    gamma_u: float,
    f_count: int,
    r_u: float,
    trials: int,
    seed: int,
    axis_pu_dbm=None,
    axis_pe_dbm=None,
    m_u: int = 1,
) -> OutageTable:
    """Estimate every (interference, power) cell of the grid.

    Each sampled cell is an independent :func:`estimate_outage` run under
    its derived sub-seed, so the table is bit-reproducible whatever the
    order in which its cells are computed.  A cell where no fading draw
    can reach the rate (every rate stays below ``log(1 + Pu/Pe)``) is a
    sure outage: it reads 1, as any seed would estimate, without a run.

    The cells are shared out, interleaved, among one thread per available
    CPU, the caller's included (numpy releases the GIL while it draws and
    sums); the values are the same bits for any thread count.  The first
    error in any cell, or an interrupt of the caller, stops every thread
    at its next cell, and the error is raised here.
    """
    start = time.perf_counter()
    axis_pu = default_power_axis_dbm() if axis_pu_dbm is None else np.asarray(axis_pu_dbm, float)
    axis_pe = (
        default_interference_axis_dbm() if axis_pe_dbm is None else np.asarray(axis_pe_dbm, float)
    )
    target_nats = _target_nats(gamma_u, trials, f_count, r_u)
    values = np.ones((axis_pe.size, axis_pu.size))  # what a sure outage reads under any seed
    cells = list(np.ndindex(values.shape))
    threads = max(1, min(_available_cpus(), len(cells)))
    sampled, errors, stop = [0] * threads, [], threading.Event()

    def work(k: int) -> None:
        try:
            for i, j in cells[k::threads]:
                if stop.is_set():
                    return
                p_u = np.full(f_count, dbm_to_mw(axis_pu[j]))
                p_e = np.full(f_count, dbm_to_mw(axis_pe[i]))
                if not _sure_outage(p_u, p_e, target_nats):
                    cell = int(cell_seed(seed, axis_pu[j], axis_pe[i]).generate_state(1)[0])
                    values[i, j] = estimate_outage(p_u, p_e, gamma_u, r_u, trials, cell).p_hat
                    sampled[k] += 1
        except BaseException as exc:  # re-raised below once every thread has stopped
            errors.append(exc)
            stop.set()

    helpers = [threading.Thread(target=work, args=(k,)) for k in range(1, threads)]
    for helper in helpers:
        helper.start()
    try:
        work(0)  # the caller's own share
        for helper in helpers:
            helper.join()
    except BaseException:  # an interrupt while joining
        stop.set()
        for helper in helpers:
            helper.join()
        raise
    if errors:
        raise errors[0]
    log.info("built outage table: %d cells, %d sure outages, %d sampled, %d threads, %.2f s",
             len(cells), len(cells) - sum(sampled), sum(sampled), threads,
             time.perf_counter() - start)
    return OutageTable(
        axis_pu_dbm=axis_pu, axis_pe_dbm=axis_pe, gamma_u=gamma_u, f_count=f_count,
        r_u=r_u, m_u=m_u, values=values, trials=trials, seed=seed,
    )


def interference_row(axis_pe_dbm: np.ndarray, p_e_query_mw: float) -> int:
    """Index on an interference axis that covers the query, rounding the
    interference up; :class:`TableExhaustedError` when none does."""
    if not 0.0 <= p_e_query_mw < math.inf:  # NaN fails
        raise ValueError("interference power must be non-negative and finite")
    if p_e_query_mw == 0.0:
        if not np.isneginf(axis_pe_dbm[0]):
            raise TableExhaustedError(
                "table has no no-interference row; rebuild with one"
            )
        return 0
    query_dbm = mw_to_dbm(p_e_query_mw)
    # tolerate float fuzz when the query sits exactly on a grid line
    candidates = np.nonzero(axis_pe_dbm >= query_dbm - 1e-9)[0]
    if candidates.size == 0:
        raise TableExhaustedError(
            f"interference {query_dbm:.2f} dBm exceeds the table's "
            f"{axis_pe_dbm[-1]:.2f} dBm; extend the interference axis"
        )
    return int(candidates[0])


def min_feasible_power(table: OutageTable, p_e_query_mw: float, epsilon_u: float) -> float:
    """Smallest tabulated power meeting the outage target [dBm].

    The interference row is chosen conservatively (next grid point at or
    above the query); the returned power is the first grid point whose
    estimate is at or below ``epsilon_u``.
    """
    if not 0.0 < epsilon_u <= 1.0:
        raise ValueError("epsilon_u must be in (0, 1]")
    row = table.values[interference_row(table.axis_pe_dbm, p_e_query_mw)]
    feasible = np.nonzero(row <= epsilon_u)[0]
    if feasible.size == 0:
        raise TableExhaustedError(
            f"no tabulated power reaches outage {epsilon_u:g}; extend the power axis"
        )
    return float(table.axis_pu_dbm[feasible[0]])


def save_table(table: OutageTable, path) -> None:
    """Persist as JSON (``.json``) or compact binary (``.npz``).

    Both encodings round-trip bit-exactly: JSON stores shortest-repr
    floats (with ``-Infinity`` for the no-interference row) and the
    binary form stores the raw float64 arrays.  The directory is created
    when missing, and a temporary file beside ``path`` is renamed over it,
    so a failed save leaves the old table.
    """
    path = str(path)
    if not path.endswith((".json", ".npz")):
        raise ValueError(f"unsupported table format: {path!r} (use .json or .npz)")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        doc = {"format": _FORMAT_NAME, "version": table.version}
        doc.update((name, getattr(table, name)) for name in _FIELDS)
        with open(tmp, "wb") as fh:
            if path.endswith(".json"):
                fh.write((json.dumps(doc, default=np.ndarray.tolist) + "\n").encode("utf-8"))
            else:
                arrays = {name: doc.pop(name) for name in _ARRAYS}
                # the open handle: a path name would get ".npz" appended
                np.savez_compressed(fh, meta=json.dumps(doc), **arrays)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_table(path) -> OutageTable:
    """Read a table written by :func:`save_table`; ``ValueError`` on a file
    of another format or version, or one that lacks a field."""
    path = str(path)
    if path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    elif path.endswith(".npz"):
        with np.load(path) as data:
            doc = json.loads(str(data["meta"])) if "meta" in data else {}
            if isinstance(doc, dict):
                doc.update((name, data[name]) for name in _ARRAYS if name in data)
    else:
        raise ValueError(f"unsupported table format: {path!r} (use .json or .npz)")
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT_NAME:
        raise ValueError(f"{path!r} is not an outage table file")
    if doc.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported table version {doc.get('version')!r}")
    missing = [name for name in _FIELDS if name not in doc]
    if missing:
        raise ValueError(f"table file {path!r} lacks field(s) {', '.join(missing)}")
    return OutageTable(**{name: kind(doc[name]) for name, kind in _META.items()},
                       **{name: doc[name] for name in _ARRAYS})
