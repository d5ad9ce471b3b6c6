"""Tests of the benchmark itself (run: python3 -m pytest bench/tests).

Each workload runs end to end at its tiny scale; every output check is
shown to fail on a deliberately corrupted output; the digest is shown
to be a function of the seed alone.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(REPO, "src"), BENCH]

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

NAMED = {"table-build": "cells_per_s", "sweep-warm": "allocs_per_s", "embb-drops": "drops_per_s"}


def run_bench(workload, seed=1, trace=0, seconds=0.5):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--scale", "tiny"],
        cwd=REPO, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def tiny(cls, workdir, seed=1):
    wl = cls(seed, "tiny", workdir)
    wl.setup()
    return wl


# -- end to end ---------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(NAMED))
def test_tiny_run_prints_every_end_to_end_metric(workload):
    lines, result = run_bench(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split(" = ")[0]: line.split()[-1] for line in lines if " = " in line}
    for name, unit in (("setup_s", "s"), (NAMED[workload], "1/s"),
                       ("peak_rss_mb", "MB"), ("fail_frac", "ratio")):
        assert printed[name] == unit


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_traced_run_reports_every_per_layer_metric(workload):
    _, result = run_bench(workload, trace=1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["trace.top_coverage"]["value"] >= 0.95


def test_spec_matches_the_layer_table():
    per_layer = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert per_layer == list(layers.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_runs_outside_a_source_checkout_fail_without_a_result(tmp_path):
    os.makedirs(tmp_path / "bench")
    for name in os.listdir(BENCH):
        if name.endswith(".py") or name.endswith(".json"):
            with open(os.path.join(BENCH, name), "rb") as src:
                (tmp_path / "bench" / name).write_bytes(src.read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "embb-drops", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- output checks catch corrupted outputs -------------------------------------

def test_table_checks_fail_on_corrupted_tables(workdir):
    wl = tiny(workloads.TableBuild, workdir)
    out = wl.run_round()
    assert wl.check(out) == []

    # OutageTable itself refuses such values, so stand in a bare holder
    bad = out["tables"]["noma"].values.copy()
    bad[0, 0] = 1.5
    assert checks.probabilities_in_unit_interval({"noma": SimpleNamespace(values=bad)}) == ["noma"]

    label, loaded = out["round_trip"]
    drifted = loaded.values.copy()
    drifted[-1, -1] = np.nextafter(drifted[-1, -1], 0.5)  # one ulp, staying in [0, 1]
    corrupt = dict(out, round_trip=(label, dataclasses.replace(loaded, values=drifted)))
    assert wl.check(corrupt) == ["noma"]

    (i, j), = wl.picks["oma-3"][:1]
    moved = out["tables"]["oma-3"].values.copy()
    moved[i, j] = 0.5 if moved[i, j] != 0.5 else 0.25
    tables = dict(out["tables"])
    tables["oma-3"] = dataclasses.replace(tables["oma-3"], values=moved)
    assert wl.check(dict(out, tables=tables)) == ["oma-3"]


def test_sweep_checks_fail_on_corrupted_records(workdir):
    wl = tiny(workloads.SweepWarm, workdir)
    out = wl.run_round()
    assert wl.check(out) == []
    records = out["records"]

    def corrupt(algorithm, **changes):
        return {"records": [dataclasses.replace(r, **changes) if r.algorithm == algorithm
                            and r.scheme == "noma" else r for r in records]}

    fea = next(r for r in records if r.scheme == "noma" and r.algorithm == "fea")
    worse = corrupt("bcd", mean_total_dbm=fea.mean_total_dbm + 0.01)
    assert sorted(wl.check(worse)) == ["noma/bcd@200m", "noma/fea@200m"]
    infeasible = corrupt("bcd", mean_p_hat=2.0 * wl.cfg.epsilon_u)
    assert wl.check(infeasible) == ["noma/bcd@200m"]
    assert wl.check({"records": records[:-1]}) == ["records"]


def test_embb_check_fails_on_a_corrupted_green_cell_only(workdir):
    wl = tiny(workloads.EmbbDrops, workdir)
    out = wl.run_round()
    assert wl.check(out) == []
    scaled = dict(out)
    scaled["oma-9@50dB"] = out["oma-9@50dB"] * 10 ** (1.0 / 10)  # +1 dB
    assert wl.check(scaled) == ["oma-9@50dB"]
    red = dict(out)
    red["noma@80dB"] = out["noma@80dB"] * 10.0
    assert wl.check(red) == []


def test_c6_check_tolerance_edges():
    means = {checks.c6_label(s, k): ref for s, k, ref in checks.C6_CELLS}
    assert checks.c6_green_cells(means) == []
    means[checks.c6_label(30.0, "noma")] += 0.49
    assert checks.c6_green_cells(means) == []
    means[checks.c6_label(30.0, "noma")] = math.nan
    assert checks.c6_green_cells(means) == ["noma@30dB"]


# -- digests ------------------------------------------------------------------------

@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()), ids=list(workloads.WORKLOADS))
def test_same_seed_gives_the_same_digest_twice(cls, tmp_path):
    first = tiny(cls, str(tmp_path / "a"), seed=5)
    second = tiny(cls, str(tmp_path / "b"), seed=5)
    assert first.digest(first.run_round()) == second.digest(second.run_round())
    other = tiny(cls, str(tmp_path / "c"), seed=6)
    assert other.digest(other.run_round()) != first.digest(first.run_round())
