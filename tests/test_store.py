"""Tests for the sharded crash-safe result store (repro.store)."""

import json
import os
import time

import pytest

from repro.store import (
    FileLock,
    RealFS,
    ResultStore,
    payload_checksum,
    shard_of,
)
from repro.store.core import _HELD_LOCKS

KEY = "ab" + "cd" * 31
KEY2 = "ef" + "01" * 31


class RecordingFS(RealFS):
    """RealFS that logs every operation, for protocol-order asserts."""

    def __init__(self):
        self.ops = []

    def write_bytes(self, path, data, fsync=True):
        self.ops.append(("write_bytes", str(path), fsync))
        super().write_bytes(path, data, fsync=fsync)

    def rename(self, src, dst):
        self.ops.append(("rename", str(src), str(dst)))
        super().rename(src, dst)

    def fsync_dir(self, path):
        self.ops.append(("fsync_dir", str(path)))
        super().fsync_dir(path)


class TestLayout:
    def test_entries_are_sharded_by_key_prefix(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.put(KEY, {"a": 1})
        path = store.entry_path(KEY)
        assert path.parent == tmp_path / "ab"
        assert path.name == f"{KEY}.json"
        assert path.is_file()
        assert shard_of(KEY) == "ab"

    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        payload = {"output": "text", "nested": {"n": [1, 2, 3]}}
        assert store.get(KEY) is None
        assert store.put(KEY, payload)
        assert store.get(KEY) == payload

    def test_keys_enumerates_all_shards(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"a": 1})
        store.put(KEY2, {"b": 2})
        assert store.keys() == sorted([KEY, KEY2])

    def test_rejects_non_content_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        for bad in ("", "ab", "../escape", "ABCDEF00"):
            with pytest.raises(ValueError):
                store.entry_path(bad)

    def test_no_temp_or_lock_debris_after_put(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"a": 1})
        leftovers = [
            p for p in tmp_path.rglob("*") if p.is_file()
            and not p.name.endswith(".json")
        ]
        assert leftovers == []


class TestCommitProtocol:
    def test_temp_is_fsynced_before_rename_then_dir_fsynced(self, tmp_path):
        fs = RecordingFS()
        ResultStore(tmp_path, fs=fs).put(KEY, {"a": 1})
        ops = [op for op in fs.ops if op[0] in ("write_bytes", "rename", "fsync_dir")]
        assert [op[0] for op in ops] == ["write_bytes", "rename", "fsync_dir"]
        assert ops[0][2] is True  # the temp write is fsynced
        assert ops[0][1] == ops[1][1]  # ...and is what gets renamed
        assert ops[1][2] == str(ResultStore(tmp_path).entry_path(KEY))

    def test_temp_names_are_unique_per_writer(self, tmp_path):
        fs = RecordingFS()
        store = ResultStore(tmp_path, fs=fs)
        store.put(KEY, {"a": 1})
        store.put(KEY, {"a": 2})
        temps = [op[1] for op in fs.ops if op[0] == "write_bytes"]
        assert len(set(temps)) == 2
        assert all(str(os.getpid()) in t for t in temps)

    def test_real_io_failure_cleans_up_and_raises(self, tmp_path):
        class FailingFS(RealFS):
            def rename(self, src, dst):
                raise OSError("disk went away")

        store = ResultStore(tmp_path, fs=FailingFS())
        with pytest.raises(OSError, match="disk went away"):
            store.put(KEY, {"a": 1})
        # our debris was cleaned: no temp, no lock left behind
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


class TestVerifiedReads:
    def test_checksum_mismatch_quarantines_and_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"output": "good"})
        path = store.entry_path(KEY)
        path.write_text(path.read_text().replace("good", "evil"))
        with pytest.warns(UserWarning, match="checksum-mismatch"):
            assert store.get(KEY) is None
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert len(quarantined) == 1
        assert not path.exists()
        # a fresh put re-establishes the entry
        assert store.put(KEY, {"output": "good"})
        assert store.get(KEY) == {"output": "good"}

    def test_unparseable_entry_quarantines_and_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"a": 1})
        store.entry_path(KEY).write_text("{torn")
        with pytest.warns(UserWarning, match="unparseable"):
            assert store.get(KEY) is None
        assert (tmp_path / "quarantine").is_dir()

    def test_embedded_key_mismatch_quarantines(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY2, {"a": 1})
        # file an entry under the wrong name
        (tmp_path / "ab").mkdir(exist_ok=True)
        os.rename(store.entry_path(KEY2), store.entry_path(KEY))
        with pytest.warns(UserWarning, match="key-mismatch"):
            assert store.get(KEY) is None

    def test_missing_entry_is_a_silent_miss(self, tmp_path):
        import warnings

        store = ResultStore(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.get(KEY) is None

    def test_checksum_is_over_canonical_payload(self):
        assert payload_checksum({"b": 1, "a": 2}) == payload_checksum(
            {"a": 2, "b": 1}
        )


class TestFileLock:
    def test_acquire_release_round_trip(self, tmp_path):
        lock = FileLock(RealFS(), tmp_path / "x.lock")
        assert lock.acquire()
        assert (tmp_path / "x.lock").exists()
        lock.release()
        assert not (tmp_path / "x.lock").exists()

    def test_contended_acquire_times_out(self, tmp_path):
        fs = RealFS()
        holder = FileLock(fs, tmp_path / "x.lock")
        assert holder.acquire()
        waiter = FileLock(fs, tmp_path / "x.lock", timeout_s=0.05)
        assert not waiter.acquire()
        holder.release()

    def test_dead_pid_lock_is_broken(self, tmp_path):
        path = tmp_path / "x.lock"
        # a pid that cannot exist holds the lock
        path.write_text(json.dumps({"pid": 2**22 + 12345, "t": time.time()}))
        lock = FileLock(RealFS(), path, timeout_s=0.5)
        assert lock.acquire()
        lock.release()

    def test_own_orphan_lock_is_broken(self, tmp_path):
        # our pid, but not tracked as held: a crashed earlier commit
        path = tmp_path / "x.lock"
        path.write_text(json.dumps({"pid": os.getpid(), "t": time.time()}))
        assert str(path) not in _HELD_LOCKS
        lock = FileLock(RealFS(), path, timeout_s=0.5)
        assert lock.acquire()
        lock.release()

    def test_over_age_lock_is_broken(self, tmp_path):
        path = tmp_path / "x.lock"
        now = [1000.0]
        fs = RealFS()
        other = FileLock(fs, path, clock=lambda: now[0])
        assert other.acquire()
        _HELD_LOCKS.discard(str(path))  # pretend another process holds it
        path.write_text(json.dumps({"pid": 2**22 + 54321, "t": now[0]}))
        now[0] += 31.0  # default stale_s is 30
        lock = FileLock(fs, path, timeout_s=0.5, clock=lambda: now[0])
        assert lock.acquire()
        lock.release()

    def test_torn_lock_content_is_stale(self, tmp_path):
        path = tmp_path / "x.lock"
        path.write_text('{"pid"')
        assert FileLock(RealFS(), path).is_stale()

    def test_contended_put_skips_redundant_write(self, tmp_path):
        store = ResultStore(tmp_path, lock_timeout_s=0.05)
        holder = FileLock(RealFS(), store.lock_path(KEY))
        store.fs.mkdir(store.lock_path(KEY).parent)
        assert holder.acquire()
        with pytest.warns(UserWarning, match="lock contended"):
            assert store.put(KEY, {"a": 1}) is False
        holder.release()
        assert store.put(KEY, {"a": 1}) is True


class TestVerifyRepair:
    def test_clean_store_verifies_consistent(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"a": 1})
        store.put(KEY2, {"b": 2})
        report = store.verify()
        assert report.entries == 2 and report.ok == 2
        assert report.issues == [] and report.consistent

    def test_verify_reports_without_touching(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"a": 1})
        store.entry_path(KEY).write_text("{torn")
        report = store.verify(repair=False)
        assert not report.consistent
        assert [i.kind for i in report.issues] == ["unparseable"]
        assert store.entry_path(KEY).exists()  # nothing moved

    def test_repair_quarantines_corrupt_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"a": 1})
        path = store.entry_path(KEY)
        path.write_text(path.read_text().replace('"a"', '"z"'))
        with pytest.warns(UserWarning, match="quarantined"):
            report = store.verify(repair=True)
        assert report.consistent
        assert not path.exists()
        assert len(list((tmp_path / "quarantine").iterdir())) == 1

    def test_repair_removes_aged_orphan_temps(self, tmp_path):
        store = ResultStore(tmp_path, tmp_grace_s=0.0)
        store.put(KEY, {"a": 1})
        orphan = tmp_path / "ab" / f"{KEY}.99999.0.tmp"
        orphan.write_text("half-written")
        report = store.verify(repair=True)
        assert ("orphan-temp", "removed") in [
            (i.kind, i.action) for i in report.issues
        ]
        assert not orphan.exists()

    def test_fresh_temps_are_presumed_in_flight(self, tmp_path):
        store = ResultStore(tmp_path, tmp_grace_s=60.0)
        (tmp_path / "ab").mkdir()
        (tmp_path / "ab" / f"{KEY}.99999.0.tmp").write_text("in flight")
        report = store.verify(repair=True)
        assert report.issues == [] and report.consistent

    def test_live_locks_are_honored_stale_broken(self, tmp_path):
        store = ResultStore(tmp_path)
        (tmp_path / "ab").mkdir()
        live = FileLock(RealFS(), store.lock_path(KEY))
        assert live.acquire()
        stale = store.lock_path(KEY2)
        (tmp_path / "ef").mkdir()
        stale.write_text(json.dumps({"pid": 2**22 + 999, "t": time.time()}))
        report = store.verify(repair=True)
        found = {(i.kind, i.path) for i in report.issues}
        assert ("stale-lock", str(stale)) in found
        assert all(str(live.path) != path for _, path in found)
        assert not stale.exists()
        live.release()

    def test_verify_is_idempotent_after_repair(self, tmp_path):
        store = ResultStore(tmp_path, tmp_grace_s=0.0)
        store.put(KEY, {"a": 1})
        store.entry_path(KEY).write_text("{torn")
        with pytest.warns(UserWarning):
            store.verify(repair=True)
        again = store.verify(repair=True)
        assert again.issues == [] and again.consistent


class TestForeignFiles:
    def test_root_level_json_is_reported_and_left_alone(self, tmp_path):
        flat = tmp_path / f"x.{KEY[:16]}.json"
        flat.write_text(json.dumps({"key": KEY, "output": "old text"}))
        store = ResultStore(tmp_path)
        report = store.verify(repair=True)
        assert [(i.kind, i.action) for i in report.issues] == [
            ("foreign-file", "")
        ]
        assert not report.consistent
        assert flat.exists() and store.get(KEY) is None


class TestGCAndStats:
    def test_gc_evicts_oldest_until_under_budget(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = [f"{i:02x}" + "00" * 31 for i in range(4)]
        for i, key in enumerate(keys):
            store.put(key, {"n": i, "pad": "x" * 50})
            os.utime(store.entry_path(key), (1000 + i, 1000 + i))
        sizes = [store.entry_path(k).stat().st_size for k in keys]
        budget = sum(sizes) - 1  # force at least one eviction
        report = store.gc(budget)
        assert report.removed >= 1 and report.bytes_kept <= budget
        # oldest went first
        assert store.get(keys[0]) is None
        assert store.get(keys[-1]) is not None

    def test_gc_under_budget_is_a_noop(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"a": 1})
        report = store.gc(10**9)
        assert report.removed == 0 and report.kept == 1

    def test_stats_counts_every_category(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(KEY, {"a": 1})
        store.put(KEY2, {"b": 2})
        (tmp_path / "ab" / "x.tmp").write_text("t")
        (tmp_path / "ab" / "y.lock").write_text("{}")
        store.entry_path(KEY2).write_text("{torn")
        with pytest.warns(UserWarning):
            store.get(KEY2)  # quarantines
        stats = store.stats()
        assert stats.entries == 1
        assert stats.quarantined == 1
        assert stats.temps == 1 and stats.locks == 1
        assert stats.shards == 1  # ab still populated; ef emptied by quarantine
        assert stats.total_bytes > 0
