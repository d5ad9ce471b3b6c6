import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slicepower
from slicepower.cli import main
from slicepower.config import load_config
from slicepower.grid import spectral_efficiency
from slicepower.sweep import table_build_command


def child_env():
    """Environment in which a child ``python -m slicepower.cli`` imports the
    package under test from any working directory.

    A relative ``PYTHONPATH`` entry such as ``src`` stops resolving once the
    child runs elsewhere, so the package's own parent directory goes first,
    as an absolute path.  This holds whether the package is installed or not.
    """
    env = dict(os.environ)
    package_parent = str(Path(slicepower.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        entry for entry in (package_parent, env.get("PYTHONPATH")) if entry
    )
    return env


def write_fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(
        "epsilon_u = 1e-2\n"
        "drops = 2\n"
        "table_trials = 3000\n"
        "crn_draws = 3000\n"
        "evidence_trials = 3000\n"
        "auto_build_tables = true\n"
        f"table_dir = {tmp_path / 'tables'}\n"
        "schemes = noma, oma-3\n"
        "d_u = 120\n"
        "d_e = 146.9\n"
    )
    return path


class TestTableCommands:
    def test_build_and_query(self, tmp_path, capsys):
        out = tmp_path / "t.npz"
        rc = main(["table", "build", "--gamma-u-db", "50", "--f-u", "3", "--r-u", "4",
                   "--trials", "3000", "--seed", "5", "--no-interference-only",
                   "--out", str(out)])
        assert rc == 0 and out.exists()
        capsys.readouterr()
        rc = main(["table", "query", "--table", str(out), "--pe", "none",
                   "--eps", "1e-2"])
        assert rc == 0
        value = float(capsys.readouterr().out.strip())
        assert -30.0 <= value <= 30.0

    def test_query_json_table(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        main(["table", "build", "--gamma-u-db", "50", "--f-u", "3", "--r-u", "4",
              "--trials", "2000", "--seed", "5", "--no-interference-only",
              "--out", str(out)])
        capsys.readouterr()
        assert main(["table", "query", "--table", str(out), "--pe", "none",
                     "--eps", "1e-2"]) == 0

    @pytest.mark.parametrize("gamma_db, f_u, r_u", [("30", "0", "1"), ("30", "3", "-1"),
                                                    ("nan", "3", "1")])
    def test_build_rejects_bad_sampling_setup(self, tmp_path, capsys, gamma_db, f_u, r_u):
        out = tmp_path / "t.npz"
        rc = main(["table", "build", "--gamma-u-db", gamma_db, "--f-u", f_u, "--r-u", r_u,
                   "--trials", "10", "--seed", "1", "--out", str(out)])
        assert rc == 1 and not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_query_missing_file_fails(self, tmp_path, capsys):
        rc = main(["table", "query", "--table", str(tmp_path / "nope.npz"),
                   "--pe", "none", "--eps", "1e-2"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix", [".json", ".npz"])
    def test_query_incomplete_table_fails_cleanly(self, tmp_path, capsys, suffix):
        # a JSON file with only its format and version; an archive without axis_pu_dbm
        path = tmp_path / f"t{suffix}"
        meta = {"format": "slicepower-outage-table", "version": 1}
        if suffix == ".json":
            path.write_text(json.dumps(meta))
        else:
            meta.update(gamma_u=1.0, f_count=3, r_u=1.0, m_u=1, trials=10, seed=1)
            np.savez_compressed(path, meta=json.dumps(meta), axis_pe_dbm=np.zeros(1),
                                values=np.zeros((1, 1)))
        rc = main(["table", "query", "--table", str(path), "--pe", "none", "--eps", "0.1"])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error:") and "axis_pu_dbm" in err

    @pytest.mark.parametrize("suffix", [".json", ".npz"])
    def test_query_non_mapping_file_fails_cleanly(self, tmp_path, capsys, suffix):
        # a JSON document, or an archive's meta member, that is a list
        path = tmp_path / f"list{suffix}"
        if suffix == ".json":
            path.write_text("[1, 2]")
        else:
            np.savez_compressed(path, meta=json.dumps([1, 2]), values=np.zeros((1, 1)))
        rc = main(["table", "query", "--table", str(path), "--pe", "none", "--eps", "0.1"])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error:") and "not an outage table file" in err


    @pytest.mark.parametrize("field", ["values", "axis_pe_dbm"])
    def test_query_table_holding_nan_fails_cleanly(self, tmp_path, capsys, field):
        path = tmp_path / "t.json"
        main(["table", "build", "--gamma-u-db", "50", "--f-u", "3", "--r-u", "4",
              "--trials", "100", "--seed", "5", "--no-interference-only", "--out", str(path)])
        doc = json.loads(path.read_text())
        if field == "values":
            doc["values"][0][0] = math.nan
        else:  # a second interference row, at NaN dBm
            doc["axis_pe_dbm"].append(math.nan)
            doc["values"].append(doc["values"][0])
        path.write_text(json.dumps(doc))  # NaN is written as the bare token NaN
        capsys.readouterr()
        rc = main(["table", "query", "--table", str(path), "--pe", "none", "--eps", "0.1"])
        assert rc == 1 and capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("pe", ["nan", "inf"])
    def test_query_nan_interference_is_a_bad_input(self, tmp_path, capsys, pe):
        # not a table too small for the query: extending the axis would not help
        path = tmp_path / "t.json"
        main(["table", "build", "--gamma-u-db", "50", "--f-u", "3", "--r-u", "4",
              "--trials", "100", "--seed", "5", "--no-interference-only", "--out", str(path)])
        capsys.readouterr()
        rc = main(["table", "query", "--table", str(path), "--pe", pe, "--eps", "0.1"])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error:") and "extend" not in err


class TestAllocate:
    def test_deterministic_output(self, tmp_path, capsys):
        cfg = write_fast_config(tmp_path)
        args = ["allocate", "--scheme", "noma", "--algo", "bcd", "--du", "100",
                "--de", "146.9", "--seed", "7", "--config", str(cfg),
                "--auto-table", "--table-trials", "3000",
                "--crn-draws", "3000", "--evidence-trials", "3000"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "sic_satisfied=True" in first

    def test_requires_table_source(self, tmp_path, capsys):
        cfg = write_fast_config(tmp_path)
        rc = main(["allocate", "--scheme", "noma", "--algo", "fea", "--du", "100",
                   "--de", "146.9", "--seed", "7", "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "table build" in err
        # the same command the sweep prints for a missing table
        loaded = load_config(cfg)
        r_u = spectral_efficiency(loaded.n_u, loaded.grid(), loaded.f_count, loaded.m_u)
        assert table_build_command(loaded.mean_gain(100.0), loaded.f_count, r_u,
                                   loaded.table_trials, 7, "table.npz") in err

    def test_oma_zero_powers_print_as_minus_inf(self, tmp_path, capsys):
        # OMA: no cancellation floor anywhere, and no broadband power on the URLLC set
        cfg = write_fast_config(tmp_path)
        rc = main(["allocate", "--scheme", "oma-3", "--algo", "fea", "--du", "100",
                   "--de", "146.9", "--seed", "7", "--config", str(cfg), "--auto-table"])
        assert rc == 0
        lines = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines()
                     if line.startswith(("f_u=", "p_e_dbm=", "p_sic_dbm=")))
        f_u = json.loads(lines["f_u"].partition(" f_e=")[0])
        p_e = lines["p_e_dbm"].strip("[]").split(", ")
        p_sic = lines["p_sic_dbm"].strip("[]").split(", ")
        assert len(p_sic) == len(p_e) == 12 and p_sic == ["-inf"] * 12
        assert [f for f, v in enumerate(p_e) if v == "-inf"] == f_u
        assert all(float(p_e[f]) > -math.inf for f in range(12) if f not in f_u)

    def test_config_sets_evidence_trials(self, tmp_path, capsys):
        path = write_fast_config(tmp_path)
        rc = main(["allocate", "--scheme", "oma-3", "--algo", "fea", "--du", "100",
                   "--de", "146.9", "--seed", "7", "--config", str(path), "--auto-table"])
        assert rc == 0
        trials = load_config(path).evidence_trials
        assert f" trials={trials}\n" in capsys.readouterr().out


class TestSweep:
    def test_empty_axis_succeeds(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("d_u =\n")
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "empty sweep" in capsys.readouterr().out

    def test_small_sweep_writes_csvs(self, tmp_path, capsys):
        cfg = write_fast_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out), "--drops", "2"])
        assert rc == 0
        assert (out / "records.csv").exists()


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) != 0

    def test_unknown_flag(self):
        assert main(["table", "query", "--bogus", "x"]) != 0

    def test_missing_required_flag(self):
        assert main(["allocate", "--scheme", "noma"]) != 0


class TestChildProcess:
    def test_module_runs_outside_repo(self, tmp_path, monkeypatch, capsys):
        # the child imports the package under test from any working directory
        commands = [
            ["table", "build", "--gamma-u-db", "50", "--f-u", "3", "--r-u", "4",
             "--trials", "100", "--seed", "5", "--no-interference-only", "--out", "t.json"],
            ["table", "query", "--table", "t.json", "--pe", "none", "--eps", "0.1"],
        ]
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "slicepower.cli", *argv],
                capture_output=True, text=True, cwd=tmp_path, env=child_env(), timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            assert main(argv) == 0
            assert proc.stdout == capsys.readouterr().out
