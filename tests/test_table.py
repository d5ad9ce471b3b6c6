import dataclasses
import errno
import hashlib
import importlib
import json
import logging
import math
import os
import signal
import sys
import threading
import time
import zipfile
from contextlib import nullcontext

import numpy as np
import pytest

from slicepower import TableExhaustedError, build_table, estimate_outage, load_table, min_feasible_power, save_table
from slicepower.table import OutageTable, cell_seed, default_interference_axis_dbm, default_power_axis_dbm
from slicepower.outage import _block_rows
from slicepower.units import dbm_to_mw

from oracles import one_shot_outage

table_module = importlib.import_module("slicepower.table")


def synthetic_table():
    axis_pu = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    axis_pe = np.array([-math.inf, 0.0, 10.0])
    values = np.array([
        [1.0, 0.5, 0.1, 1e-3, 0.0],
        [1.0, 0.9, 0.5, 2e-2, 1e-4],
        [1.0, 1.0, 1.0, 0.5, 0.2],
    ])
    return OutageTable(axis_pu_dbm=axis_pu, axis_pe_dbm=axis_pe, gamma_u=1.0,
                       f_count=4, r_u=0.5, m_u=1, values=values, trials=1000, seed=3)


class TestDefaults:
    def test_power_axis_span(self):
        axis = default_power_axis_dbm()
        assert axis[0] == -30.0 and axis[-1] == 30.0 and len(axis) == 61
        assert np.all(np.diff(axis) == 1.0)

    def test_interference_axis_has_sentinel(self):
        axis = default_interference_axis_dbm()
        assert np.isneginf(axis[0]) and len(axis) == 62


class TestBuild:
    def test_bit_reproducible_and_schedule_independent(self):
        # every cell, recomputed alone and last cell first, equals the built
        # one: a cell depends on its own sub-seed only, never on the order
        axis_pu, axis_pe = np.arange(-4.0, 5.0), np.array([-math.inf, 0.0])
        table = build_table(1.0, 12, 1.0, trials=4000, seed=42,
                            axis_pu_dbm=axis_pu, axis_pe_dbm=axis_pe)
        cells = [(i, j) for i in range(axis_pe.size) for j in range(axis_pu.size)]
        again = np.empty_like(table.values)
        for i, j in reversed(cells):
            seed = int(cell_seed(42, axis_pu[j], axis_pe[i]).generate_state(1)[0])
            p_u, p_e = [dbm_to_mw(axis_pu[j])] * 12, [dbm_to_mw(axis_pe[i])] * 12
            again[i, j] = estimate_outage(p_u, p_e, 1.0, 1.0, 4000, seed).p_hat
        assert np.array_equal(again, table.values)
        # the -inf row is sampled; at 0 dBm interference, P_u <= 0 dBm is a sure outage
        assert 0.0 < table.values[0].min() < 1.0
        assert np.all(table.values[1, axis_pu <= 0.0] == 1.0)

    def test_only_sampled_cells_derive_a_sub_seed(self, monkeypatch):
        # sure outages (no draw can beat F_u*r_u*ln2 while every rate stays below
        # log1p(P_u/P_e)) read 1 without a sub-seed; the table is unchanged
        axis_pu, axis_pe = np.arange(-4.5, 5.0), np.array([-math.inf, 0.0, 3.0])
        seeded = []

        def spy(base_seed, pu_dbm, pe_dbm):
            seeded.append((float(pu_dbm), float(pe_dbm)))
            return cell_seed(base_seed, pu_dbm, pe_dbm)

        monkeypatch.setattr(table_module, "cell_seed", spy)
        table = build_table(1.0, 12, 1.0, trials=2000, seed=42,
                            axis_pu_dbm=axis_pu, axis_pe_dbm=axis_pe)
        sampled = [(pu, pe) for pe in axis_pe for pu in axis_pu
                   if pe == -math.inf or math.log1p(dbm_to_mw(pu) / dbm_to_mw(pe)) > math.log(2.0)]
        # threads seed their cells in any order: the set is the property
        assert sorted(seeded) == sorted(sampled) and 0 < len(sampled) < axis_pu.size * axis_pe.size
        for i, j in np.ndindex(table.values.shape):
            seed = int(cell_seed(42, axis_pu[j], axis_pe[i]).generate_state(1)[0])
            p_u, p_e = [dbm_to_mw(axis_pu[j])] * 12, [dbm_to_mw(axis_pe[i])] * 12
            assert table.values[i, j] == estimate_outage(p_u, p_e, 1.0, 1.0, 2000, seed).p_hat

    @pytest.mark.parametrize("blocks", ["1", "block-1", "block", "block+1", "3block+5"])
    @pytest.mark.parametrize("f_count", [3, 12])
    def test_cells_equal_the_one_shot_oracle(self, f_count, blocks):
        # every cell, sure or sampled, equals one unblocked draw under its
        # sub-seed, at trial counts on both sides of the kernel's block size
        rows = _block_rows(f_count)
        trials = {"1": 1, "block-1": rows - 1, "block": rows, "block+1": rows + 1,
                  "3block+5": 3 * rows + 5}[blocks]
        axis_pu, axis_pe = np.array([-10.0, 0.0, 6.0, 12.0]), np.array([-math.inf, 0.0, 10.0])
        table = build_table(0.5, f_count, 1.0, trials=trials, seed=23,
                            axis_pu_dbm=axis_pu, axis_pe_dbm=axis_pe)
        for i, j in np.ndindex(table.values.shape):
            seed = int(cell_seed(23, axis_pu[j], axis_pe[i]).generate_state(1)[0])
            p_u, p_e = [dbm_to_mw(axis_pu[j])] * f_count, [dbm_to_mw(axis_pe[i])] * f_count
            oracle = one_shot_outage(p_u, p_e, 0.5, 1.0, trials, seed).p_hat
            assert table.values[i, j].tobytes() == np.float64(oracle).tobytes()
        assert np.all(table.values[1:, axis_pu <= 0.0] == 1.0)  # sure outages
        if trials > 1:
            assert np.any((0.0 < table.values) & (table.values < 1.0))

    def test_cell_equals_fresh_estimate(self):
        table = build_table(1.0, 12, 1.0, trials=3000, seed=17,
                            axis_pu_dbm=np.array([4.0, 8.0]),
                            axis_pe_dbm=np.array([-math.inf, 0.0]))
        seed = int(cell_seed(17, 8.0, 0.0).generate_state(1)[0])
        est = estimate_outage([10 ** 0.8] * 12, [1.0] * 12, 1.0, 1.0, 3000, seed)
        assert table.values[1, 1] == est.p_hat

    def test_monotone_along_power_axis(self):
        table = build_table(1.0, 12, 1.0, trials=20_000, seed=5,
                            axis_pu_dbm=np.arange(-5.0, 16.0),
                            axis_pe_dbm=np.array([0.0]))
        row = table.values[0]
        noise = 3.0 * np.sqrt(row * (1.0 - row) / table.trials)
        assert np.all(row[1:] <= row[:-1] + noise[:-1] + noise[1:])


class TestThreads:
    """``build_table`` shares its cells among one thread per available CPU;
    the thread count is patched here so the tests read the same on any host."""

    AXIS_PU, AXIS_PE = np.arange(-4.0, 5.0), np.array([-math.inf, 0.0, 3.0])
    TRIALS, SEED = 1500, 11

    def build(self, monkeypatch, threads, f_count):
        monkeypatch.setattr(table_module, "_available_cpus", lambda: threads)
        return build_table(1.0, f_count, 1.0, trials=self.TRIALS, seed=self.SEED,
                           axis_pu_dbm=self.AXIS_PU, axis_pe_dbm=self.AXIS_PE)

    def fresh(self, f_count, i, j):
        seed = int(cell_seed(self.SEED, self.AXIS_PU[j], self.AXIS_PE[i]).generate_state(1)[0])
        p_u = [dbm_to_mw(self.AXIS_PU[j])] * f_count
        p_e = [dbm_to_mw(self.AXIS_PE[i])] * f_count
        return estimate_outage(p_u, p_e, 1.0, 1.0, self.TRIALS, seed).p_hat

    @pytest.mark.parametrize("f_count", [3, 12])
    def test_same_bits_for_one_and_three_threads(self, monkeypatch, f_count):
        one, three = (self.build(monkeypatch, n, f_count) for n in (1, 3))
        assert one.values.tobytes() == three.values.tobytes()
        assert np.any(three.values == 1.0) and np.any(three.values < 1.0)  # sure and sampled
        for i, j in np.ndindex(three.values.shape):
            assert three.values[i, j] == self.fresh(f_count, i, j)

    def test_more_threads_than_cpus_under_fast_switching(self, monkeypatch):
        # each thread writes only its own cells and its own counter, so no
        # write is lost however often the interpreter switches threads
        one = self.build(monkeypatch, 1, 12)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = self.build(monkeypatch, 8, 12)
        finally:
            sys.setswitchinterval(interval)
        assert many.values.tobytes() == one.values.tobytes()

    def test_more_cpus_than_cells(self, monkeypatch):
        one = self.build(monkeypatch, 1, 3)
        monkeypatch.setattr(table_module, "_available_cpus", lambda: 64)
        small = build_table(1.0, 3, 1.0, trials=self.TRIALS, seed=self.SEED,
                            axis_pu_dbm=self.AXIS_PU[:2], axis_pe_dbm=self.AXIS_PE[:1])
        assert small.values.tobytes() == one.values[:1, :2].tobytes()
        with pytest.raises(ValueError, match="non-empty"):  # no cells, one idle thread
            build_table(1.0, 3, 1.0, trials=self.TRIALS, seed=self.SEED, axis_pu_dbm=[])

    @pytest.mark.parametrize("f_count", [3, 12])
    def test_a_failing_cell_stops_every_thread(self, monkeypatch, f_count):
        # after the failure each other thread finishes at most the cell it had
        # already started, and build_table raises the cell's own error
        real, calls, lock = table_module.estimate_outage, [], threading.Lock()
        bad = (dbm_to_mw(self.AXIS_PU[0]), 0.0)  # the first cell: a sampled one

        def failing(p_u, p_e, *args):
            with lock:
                calls.append(threading.get_ident())
                if (p_u[0], p_e[0]) == bad:
                    calls.append("failed")
                    raise RuntimeError("cell failed")
            return real(p_u, p_e, *args)

        monkeypatch.setattr(table_module, "estimate_outage", failing)
        with pytest.raises(RuntimeError, match="cell failed"):
            self.build(monkeypatch, 3, f_count)
        failed = calls.index("failed")
        after = calls[failed + 1:]
        assert calls[failed - 1] not in after  # the failing thread starts nothing more
        assert all(after.count(ident) <= 1 for ident in after)

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
    def test_an_interrupt_stops_every_thread(self, monkeypatch):
        # Ctrl-C reaches the caller's thread, which stops the other threads
        # at their next cell; without the stop they would finish their shares
        if threading.current_thread() is not threading.main_thread():
            pytest.skip("signals reach only the main thread")
        real, calls = table_module.estimate_outage, []

        def slow(*args):
            calls.append(threading.get_ident())
            if len(calls) == 1:
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            time.sleep(0.05)
            return real(*args)

        monkeypatch.setattr(table_module, "estimate_outage", slow)
        with pytest.raises(KeyboardInterrupt):
            self.build(monkeypatch, 3, 12)
        assert len(calls) <= 2 * 3

    @pytest.mark.parametrize("threads", [1, 3])
    def test_logs_one_line_with_the_counts(self, monkeypatch, caplog, threads):
        seeded = []

        def spy(base_seed, pu_dbm, pe_dbm):
            seeded.append((pu_dbm, pe_dbm))
            return cell_seed(base_seed, pu_dbm, pe_dbm)

        monkeypatch.setattr(table_module, "cell_seed", spy)
        with caplog.at_level(logging.INFO, logger="slicepower.table"):
            self.build(monkeypatch, threads, 12)
        [record] = [r for r in caplog.records if r.name == "slicepower.table"]
        cells, sure, sampled, used, seconds = record.args
        assert cells == self.AXIS_PU.size * self.AXIS_PE.size
        assert (sampled, sure) == (len(seeded), cells - len(seeded)) and 0 < sure < cells
        assert used == threads and seconds > 0.0
        assert record.levelno == logging.INFO


class TestQuery:
    def test_no_interference_row(self):
        assert min_feasible_power(synthetic_table(), 0.0, 1e-3) == 1.0

    def test_interference_rounded_up(self):
        # 0.5 mW is between the no-interference row and the 0 dBm row
        assert min_feasible_power(synthetic_table(), 0.5, 2e-2) == 1.0

    def test_on_grid_interference_not_bumped(self):
        assert min_feasible_power(synthetic_table(), 1.0, 2e-2) == 1.0
        assert min_feasible_power(synthetic_table(), 1.0, 1e-4) == 2.0

    def test_above_grid_interference(self):
        assert min_feasible_power(synthetic_table(), 2.0, 0.5) == 1.0

    def test_loose_target_gives_lowest_grid_point(self):
        assert min_feasible_power(synthetic_table(), 0.0, 1.0) == -2.0

    def test_interference_beyond_axis(self):
        with pytest.raises(TableExhaustedError):
            min_feasible_power(synthetic_table(), 20.0, 0.5)

    def test_no_feasible_power(self):
        with pytest.raises(TableExhaustedError):
            min_feasible_power(synthetic_table(), 10.0, 0.1)

    @pytest.mark.parametrize("p_e", [math.nan, math.inf])
    def test_non_finite_interference_is_a_bad_input(self, p_e):
        # a ValueError, not TableExhaustedError: no axis covers it
        with pytest.raises(ValueError, match="non-negative and finite"):
            min_feasible_power(synthetic_table(), p_e, 0.5)

    def test_missing_sentinel_row(self):
        table = synthetic_table()
        trimmed = OutageTable(
            axis_pu_dbm=table.axis_pu_dbm, axis_pe_dbm=table.axis_pe_dbm[1:],
            gamma_u=table.gamma_u, f_count=table.f_count, r_u=table.r_u,
            m_u=table.m_u, values=table.values[1:], trials=table.trials, seed=table.seed,
        )
        with pytest.raises(TableExhaustedError):
            min_feasible_power(trimmed, 0.0, 0.5)

    def test_metadata_match(self):
        table = synthetic_table()
        assert table.matches(1.0, 4, 0.5)
        assert not table.matches(2.0, 4, 0.5)
        assert not table.matches(1.0, 5, 0.5)
        assert not table.matches(1.0, 4, 0.25)


class TestPersistence:
    @pytest.mark.parametrize("suffix", [".json", ".npz"])
    def test_round_trip_bit_exact(self, tmp_path, suffix):
        table = synthetic_table()
        path = tmp_path / f"table{suffix}"
        save_table(table, path)
        assert os.listdir(tmp_path) == [path.name]
        loaded = load_table(path)
        assert np.array_equal(loaded.axis_pu_dbm, table.axis_pu_dbm)
        assert np.array_equal(loaded.axis_pe_dbm, table.axis_pe_dbm)
        assert np.array_equal(loaded.values, table.values)
        for name in ("gamma_u", "f_count", "r_u", "m_u", "trials", "seed", "version"):
            assert getattr(loaded, name) == getattr(table, name)

    def test_version_is_the_format_version(self):
        # a table that claims another version would save a file load_table refuses
        assert synthetic_table().version == table_module._FORMAT_VERSION
        with pytest.raises(ValueError, match="version"):
            dataclasses.replace(synthetic_table(), version=2)

    def test_failed_save_leaves_previous_table(self, tmp_path, monkeypatch):
        path = tmp_path / "table.npz"
        save_table(synthetic_table(), path)

        def full_disk(file, **arrays):
            """np.savez_compressed (path or open file) that runs out of space."""
            with open(file, "wb") if isinstance(file, str) else nullcontext(file) as fh:
                fh.write(b"PK\x03\x04")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(np, "savez_compressed", full_disk)
        with pytest.raises(OSError):
            save_table(build_table(1.0, 4, 0.5, trials=10, seed=9), path)
        assert os.listdir(tmp_path) == ["table.npz"]
        assert np.array_equal(load_table(path).values, synthetic_table().values)

    def test_save_creates_the_missing_directory(self, tmp_path):
        path = tmp_path / "a" / "b" / "table.npz"
        save_table(synthetic_table(), path)
        assert os.listdir(path.parent) == ["table.npz"]

    def test_unknown_suffix_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_table(synthetic_table(), tmp_path / "new" / "table.csv")
        assert os.listdir(tmp_path) == []

    def test_non_table_file_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_table(path)

    @pytest.mark.parametrize("document", [[1, 2], "text", 3, None], ids=repr)
    @pytest.mark.parametrize("suffix", [".json", ".npz"])
    def test_non_mapping_document_rejected(self, tmp_path, suffix, document):
        # the JSON document, or the archive's meta member, is not an object
        path = tmp_path / f"other{suffix}"
        if suffix == ".json":
            path.write_text(json.dumps(document))
        else:
            arrays = {name: getattr(synthetic_table(), name) for name in table_module._ARRAYS}
            np.savez_compressed(path, meta=json.dumps(document), **arrays)
        with pytest.raises(ValueError, match="is not an outage table file"):
            load_table(path)

    @pytest.mark.parametrize("suffix", [".json", ".npz"])
    @pytest.mark.parametrize("missing", [
        ("axis_pu_dbm",),
        ("seed", "values"),
        ("gamma_u", "f_count", "r_u", "m_u", "trials", "seed",
         "axis_pu_dbm", "axis_pe_dbm", "values"),
    ], ids=["one-array", "meta-and-array", "every-field"])
    def test_missing_fields_named(self, tmp_path, suffix, missing):
        path = write_partial_table(tmp_path / f"t{suffix}", missing)
        with pytest.raises(ValueError) as info:
            load_table(path)
        message = str(info.value)
        assert str(path) in message
        assert message.endswith(", ".join(missing))


def write_partial_table(path, missing):
    """A saved :func:`synthetic_table` with the ``missing`` fields taken out
    of the file; returns ``path``."""
    save_table(synthetic_table(), path)
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({k: v for k, v in doc.items() if k not in missing}))
    else:
        with np.load(path) as data:
            members = {name: data[name] for name in data.files if name not in missing}
        meta = json.loads(str(members["meta"]))
        members["meta"] = json.dumps({k: v for k, v in meta.items() if k not in missing})
        np.savez_compressed(path, **members)
    return path


def pinned_table():
    """3x4 table with a no-interference row, sure outages and sampled cells."""
    return build_table(0.5, 3, 1.0, trials=200, seed=11, m_u=2,
                       axis_pu_dbm=np.array([-3.0, 0.0, 3.0, 6.0]),
                       axis_pe_dbm=np.array([-math.inf, 0.0, 4.0]))


class TestFileBytes:
    """The bytes of a saved table are the file format: any change to them
    (field order, key names, float encoding) breaks every cached table."""

    def test_fixture_has_sure_and_sampled_cells(self):
        values = pinned_table().values
        assert np.any(values == 1.0) and np.any((0.0 < values) & (values < 1.0))

    def test_json_file_bytes(self, tmp_path):
        path = tmp_path / "t.json"
        save_table(pinned_table(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "95c5c8f2fc37a7f50fe72421bffb5647f3dc5375b1583b01cc9c51ccf07bbe7c"
        )

    def test_npz_member_bytes(self, tmp_path):
        # the members, not the archive: its compressed bytes depend on zlib
        path = tmp_path / "t.npz"
        save_table(pinned_table(), path)
        with zipfile.ZipFile(path) as archive:
            members = [(name, hashlib.sha256(archive.read(name)).hexdigest())
                       for name in archive.namelist()]
        assert members == [
            ("meta.npy", "8b6589925a22dfc84546dacbefec71cf53464c75d3c8636f8a314d8ae13db2b9"),
            ("axis_pu_dbm.npy", "68ba31ffede28505b79e7110b2491b8872222e4965f90ecd007fcacc5d31c580"),
            ("axis_pe_dbm.npy", "72b774c2977c79c8420fd9d874db710f6bfb2009f0b401255b15824e39a47bf6"),
            ("values.npy", "c6fd519548b2d64509c080e7f3df576ed15bfdc7b40a42e0e0eaaa9d39ace59b"),
        ]


class TestValidation:
    def test_axes_must_increase(self):
        table = synthetic_table()
        with pytest.raises(ValueError):
            OutageTable(axis_pu_dbm=table.axis_pu_dbm[::-1], axis_pe_dbm=table.axis_pe_dbm,
                        gamma_u=1.0, f_count=4, r_u=0.5, m_u=1, values=table.values,
                        trials=10, seed=0)

    def test_power_axis_must_be_finite(self):
        with pytest.raises(ValueError):
            OutageTable(axis_pu_dbm=np.array([-math.inf, 0.0]), axis_pe_dbm=np.array([0.0]),
                        gamma_u=1.0, f_count=4, r_u=0.5, m_u=1,
                        values=np.full((1, 2), 0.5), trials=10, seed=0)

    def test_values_shape_checked(self):
        with pytest.raises(ValueError):
            OutageTable(axis_pu_dbm=np.array([0.0, 1.0]), axis_pe_dbm=np.array([0.0]),
                        gamma_u=1.0, f_count=4, r_u=0.5, m_u=1,
                        values=np.full((2, 2), 0.5), trials=10, seed=0)

    def test_probabilities_in_unit_interval(self):
        with pytest.raises(ValueError):
            OutageTable(axis_pu_dbm=np.array([0.0, 1.0]), axis_pe_dbm=np.array([0.0]),
                        gamma_u=1.0, f_count=4, r_u=0.5, m_u=1,
                        values=np.array([[0.5, 1.5]]), trials=10, seed=0)

    @pytest.mark.parametrize("axis_pe, values", [
        ([0.0], [[math.nan, 0.5]]),
        ([math.nan], [[0.5, 0.5]]),
        ([-math.inf, math.nan, 10.0], np.full((3, 2), 0.5)),
    ])
    def test_nan_rejected(self, axis_pe, values):
        with pytest.raises(ValueError):
            OutageTable(axis_pu_dbm=np.array([0.0, 1.0]), axis_pe_dbm=np.array(axis_pe),
                        gamma_u=1.0, f_count=4, r_u=0.5, m_u=1,
                        values=np.array(values), trials=10, seed=0)


@pytest.mark.parametrize("field", ["values", "axis_pe_dbm"])
def test_json_file_with_nan_is_rejected(tmp_path, field):
    path = tmp_path / "t.json"
    save_table(synthetic_table(), str(path))
    doc = json.loads(path.read_text(encoding="utf-8"))
    if field == "values":
        doc["values"][1][2] = math.nan
    else:
        doc["axis_pe_dbm"][1] = math.nan
    path.write_text(json.dumps(doc), encoding="utf-8")  # NaN is written as the bare token NaN
    with pytest.raises(ValueError):
        load_table(str(path))
