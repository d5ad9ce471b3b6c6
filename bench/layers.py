"""Per-layer metrics, derived from the spans of a traced run.

Counts and busy times are per timed round (rounds repeat identical
inputs, so a count repeats exactly); percentiles pool every sample.  A
span name that never occurs in the timed rounds is read from the set-up
spans instead, per set-up: on ``sweep-warm`` the tables and the config
are built there.  A layer that does not run on a workload reads 0.
"""

from __future__ import annotations

import numpy as np

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("outage.estimate_outage.ns_per_trial_res", "ns", "lower"),
    ("outage.estimate_outage.calls", "count", "lower"),
    ("outage.estimate_outage.p50_us", "us", "lower"),
    ("outage.estimate_outage.p90_us", "us", "lower"),
    ("outage.crn.try_coordinate.calls", "count", "lower"),
    ("outage.crn.try_coordinate.p50_us", "us", "lower"),
    ("outage.crn.try_coordinate.p90_us", "us", "lower"),
    ("outage.crn.commit.calls", "count", "lower"),
    ("outage.crn.accept_ratio", "ratio", "higher"),
    ("outage.crn.init_ms", "ms", "lower"),
    ("table.cells_p1_frac", "ratio", "higher"),
    ("table.build_table.self_s", "s", "lower"),
    ("table.save_table.ms", "ms", "lower"),
    ("table.load_table.ms", "ms", "lower"),
    ("table.min_feasible_power.p50_us", "us", "lower"),
    ("alloc.allocate.fea.calls", "count", "lower"),
    ("alloc.allocate.fea.p50_ms", "ms", "lower"),
    ("alloc.allocate.bcd.calls", "count", "lower"),
    ("alloc.allocate.bcd.p50_ms", "ms", "lower"),
    ("alloc.evidence.p50_ms", "ms", "lower"),
    ("alloc.descend_urllc_power.sweeps_p50", "count", "lower"),
    ("waterfill.embb_power.p50_us", "us", "lower"),
    ("waterfill.embb_power.p90_us", "us", "lower"),
    ("waterfill.sic_power.p50_us", "us", "lower"),
    ("waterfill.sic_power.p90_us", "us", "lower"),
    ("waterfill.waterfill.calls", "count", "lower"),
    ("grid.select_urllc_frequencies.p50_us", "us", "lower"),
    ("grid.select_urllc_frequencies.p90_us", "us", "lower"),
    ("grid.build_resource_sets.p50_us", "us", "lower"),
    ("rng.substream.calls", "count", "lower"),
    ("rng.substream.p50_us", "us", "lower"),
    ("rng.substream.p90_us", "us", "lower"),
    ("rng.derive_seed_sequence.calls", "count", "lower"),
    ("rng.derive_seed_sequence.p50_us", "us", "lower"),
    ("rng.derive_seed_sequence.p90_us", "us", "lower"),
    ("sweep.ensure_table.hits", "count", "higher"),
    ("sweep.ensure_table.builds", "count", "lower"),
    ("sweep.run_sweep.self_s", "s", "lower"),
    ("config.load_config.ms", "ms", "lower"),
    ("rng.self_s", "s", "lower"),
    ("grid.self_s", "s", "lower"),
    ("waterfill.self_s", "s", "lower"),
    ("outage.self_s", "s", "lower"),
    ("table.self_s", "s", "lower"),
    ("alloc.self_s", "s", "lower"),
    ("sweep.self_s", "s", "lower"),
    ("config.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.top_coverage", "ratio", "higher"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}
MODULES = ("rng", "grid", "waterfill", "outage", "table", "alloc", "sweep", "config")
_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "ns": 1e9}


class _Spans:
    """Spans of one phase, selectable by name, normalized per repetition."""

    def __init__(self, tracer, ranges):
        parts = [tracer.arrays(lo, hi) for lo, hi in ranges]
        self.reps = len(ranges)
        self.names = tracer.names
        self.cols = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
        # parent indices are global; remember which span indices each part holds
        self.index = np.concatenate([np.arange(lo, hi) for lo, hi in ranges])

    def mask(self, *names: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(self.cols["name"], ids)

    def children_of(self, parent_mask: np.ndarray, *child_names: str) -> np.ndarray:
        """Which of the masked spans have a direct child with one of the names."""
        parents = self.cols["parent"][self.mask(*child_names)]
        return parent_mask & np.isin(self.index, parents)


class _Phases:
    """Round spans, falling back to set-up spans for names rounds lack."""

    def __init__(self, tracer, setup_ranges, round_ranges):
        self.rounds = _Spans(tracer, round_ranges)
        self.setup = _Spans(tracer, setup_ranges) if setup_ranges else None

    def pick(self, *names: str):
        m = self.rounds.mask(*names)
        if m.any() or self.setup is None:
            return self.rounds, m
        return self.setup, self.setup.mask(*names)

    def calls(self, *names: str) -> float:
        spans, m = self.pick(*names)
        return float(m.sum()) / spans.reps

    def pct(self, q: float, unit: str, *names: str, col: str = "dur") -> float:
        spans, m = self.pick(*names)
        if not m.any():
            return 0.0
        values = spans.cols[col][m]
        return float(np.percentile(values, q)) * (_SCALE[unit] if col == "dur" else 1.0)

    def self_time(self, *names: str) -> float:
        spans, m = self.pick(*names)
        return float(spans.cols["self"][m].sum()) / spans.reps


def compute(tracer, setup_ranges, round_ranges, overhead: float, round_walls) -> dict:
    """Every metric of :data:`PER_LAYER` from the recorded spans."""
    ph = _Phases(tracer, setup_ranges, round_ranges)
    est = ("outage.estimate_outage@table", "outage.estimate_outage@alloc")
    out = {
        "outage.estimate_outage.calls": ph.calls(*est),
        "outage.estimate_outage.p50_us": ph.pct(50, "us", *est),
        "outage.estimate_outage.p90_us": ph.pct(90, "us", *est),
        "outage.crn.try_coordinate.calls": ph.calls("outage.crn.try_coordinate"),
        "outage.crn.try_coordinate.p50_us": ph.pct(50, "us", "outage.crn.try_coordinate"),
        "outage.crn.try_coordinate.p90_us": ph.pct(90, "us", "outage.crn.try_coordinate"),
        "outage.crn.commit.calls": ph.calls("outage.crn.commit"),
        "outage.crn.init_ms": ph.pct(50, "ms", "outage.crn.init"),
        "table.build_table.self_s": ph.self_time("table.build_table"),
        "table.save_table.ms": ph.pct(50, "ms", "table.save_table"),
        "table.load_table.ms": ph.pct(50, "ms", "table.load_table"),
        "table.min_feasible_power.p50_us": ph.pct(50, "us", "table.min_feasible_power"),
        "alloc.evidence.p50_ms": ph.pct(50, "ms", "outage.estimate_outage@alloc"),
        "alloc.descend_urllc_power.sweeps_p50":
            ph.pct(50, "count", "alloc.descend_urllc_power", col="extra"),
        "waterfill.embb_power.p50_us": ph.pct(50, "us", "waterfill.embb_power"),
        "waterfill.embb_power.p90_us": ph.pct(90, "us", "waterfill.embb_power"),
        "waterfill.sic_power.p50_us": ph.pct(50, "us", "waterfill.sic_power"),
        "waterfill.sic_power.p90_us": ph.pct(90, "us", "waterfill.sic_power"),
        "waterfill.waterfill.calls": ph.calls("waterfill.waterfill"),
        "grid.select_urllc_frequencies.p50_us": ph.pct(50, "us", "grid.select_urllc_frequencies"),
        "grid.select_urllc_frequencies.p90_us": ph.pct(90, "us", "grid.select_urllc_frequencies"),
        "grid.build_resource_sets.p50_us": ph.pct(50, "us", "grid.build_resource_sets"),
        "rng.substream.calls": ph.calls("rng.substream"),
        "rng.substream.p50_us": ph.pct(50, "us", "rng.substream"),
        "rng.substream.p90_us": ph.pct(90, "us", "rng.substream"),
        "rng.derive_seed_sequence.calls": ph.calls("rng.derive_seed_sequence"),
        "rng.derive_seed_sequence.p50_us": ph.pct(50, "us", "rng.derive_seed_sequence"),
        "rng.derive_seed_sequence.p90_us": ph.pct(90, "us", "rng.derive_seed_sequence"),
        "sweep.run_sweep.self_s": ph.self_time("sweep.run_sweep"),
        "config.load_config.ms": ph.pct(50, "ms", "config.load_config"),
        "trace.overhead_frac": overhead,
    }

    # estimate_outage: time per (trial x resource) over the calls that
    # sample (those that open a random stream), and the sure-outage share
    spans, m = ph.pick(*est)
    sampled = spans.children_of(m, "rng.substream")
    work = spans.cols["extra"][sampled].sum()
    out["outage.estimate_outage.ns_per_trial_res"] = (
        float(spans.cols["dur"][sampled].sum() / work * 1e9) if work > 0 else 0.0)
    spans, m = ph.pick("outage.estimate_outage@table")
    out["table.cells_p1_frac"] = float(spans.cols["extra2"][m].mean()) if m.any() else 0.0

    tries = ph.calls("outage.crn.try_coordinate")
    out["outage.crn.accept_ratio"] = ph.calls("outage.crn.commit") / tries if tries else 0.0

    # allocate by algorithm (the extra column holds 1 for bcd)
    spans, m = ph.pick("alloc.allocate")
    is_bcd = spans.cols["extra"] == 1.0
    for algo, sel in (("fea", m & ~is_bcd), ("bcd", m & is_bcd)):
        out[f"alloc.allocate.{algo}.calls"] = float(sel.sum()) / spans.reps
        out[f"alloc.allocate.{algo}.p50_ms"] = (
            float(np.percentile(spans.cols["dur"][sel], 50)) * 1e3 if sel.any() else 0.0)

    # ensure_table: a call that builds has a build_table child
    spans, m = ph.pick("sweep.ensure_table")
    built = spans.children_of(m, "table.build_table")
    out["sweep.ensure_table.builds"] = float(built.sum()) / spans.reps
    out["sweep.ensure_table.hits"] = float((m & ~built).sum()) / spans.reps

    for module in MODULES:
        names = [n for n in tracer.names if n.startswith(module + ".")]
        out[f"{module}.self_s"] = ph.self_time(*names) if names else 0.0

    roots = ph.rounds.cols["root"]
    covered = float(ph.rounds.cols["dur"][roots].sum())
    out["trace.top_coverage"] = covered / float(sum(round_walls))
    return {name: out[name] for name, _, _ in PER_LAYER}
