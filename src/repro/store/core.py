"""The sharded, content-addressed, crash-safe result store.

This is the durable layer the experiment cache (and, ahead, the
experiment service and sweep engine) sit on.  Entries live two levels
deep, sharded by key prefix::

    store/
      ab/
        abcdef0123....json        one entry per key
        abcdef0123....lock        advisory per-entry write lock
        abcdef0123....<pid>.<n>.tmp   in-flight commit (unique per writer)
      quarantine/                 corrupt entries moved aside, never served

Guarantees
----------

* **Durable commits.**  ``put`` writes a unique per-writer temp file,
  fsyncs it, atomically renames it over the entry, then fsyncs the
  shard directory — a crash at any point leaves either the old entry,
  the new entry, or debris that ``verify --repair`` removes; never a
  torn entry served to a reader.
* **Verified reads.**  Every entry carries a sha256 over its canonical
  payload JSON, recomputed on every ``get``.  A mismatch (torn write
  the rename race let through, bit rot, a hand-edited file) quarantines
  the entry and reports a miss — corruption always recomputes, never
  crashes and never serves wrong bytes.
* **Many writers, one store.**  Unique temp names mean concurrent
  writers can never interleave bytes; an advisory lock file
  (O_CREAT|O_EXCL with pid + timestamp, stale-broken when the holder
  is dead, orphaned, or over-age) makes same-key commits take turns.
  Because the store is content-addressed — one key, one logical value —
  a writer that loses the lock race simply skips its redundant write.
* **Self-healing.**  ``verify`` fscks the whole tree (checksums,
  misplaced entries, orphan temps, stale locks, foreign files) and
  with ``repair=True`` restores consistency: corrupt entries are
  quarantined (moved aside for post-mortem, never deleted, never
  served) and debris removed.  Foreign files are only reported.

All I/O goes through the :mod:`repro.store.fs` seam so
:class:`~repro.store.chaos.ChaosFS` can prove each guarantee by
injecting crashes and errnos at every commit point.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.store.fs import RealFS

#: on-disk entry document version; bump on breaking format changes.
STORE_VERSION = 1

#: hex characters of key prefix that name the shard directory.
SHARD_CHARS = 2

_HEX = set("0123456789abcdef")

#: unique-per-process temp suffix counter (pid makes it unique across
#: processes, the counter within one).
_TMP_COUNTER = itertools.count()

#: lock files this process currently holds, by absolute path.  A lock
#: file on disk bearing our pid but absent here was left by an earlier
#: crashed commit in this process — stale by definition.
_HELD_LOCKS: Set[str] = set()


def shard_of(key: str) -> str:
    return key[:SHARD_CHARS]


def payload_checksum(payload: Dict) -> str:
    """sha256 over the canonical (sorted, compact) payload JSON —
    independent of how the wrapper document happens to be formatted."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        pass  # exists but not ours, or unknowable: assume alive
    return True


class FileLock:
    """Advisory per-entry write lock: an O_CREAT|O_EXCL file carrying
    ``{"pid", "t"}``.

    A lock is *stale* — and silently broken — when its holder is a dead
    pid, when it bears this process's pid without being tracked as held
    (a crashed earlier commit in this very process), when its content
    is unreadable (torn lock write), or when it is older than
    ``stale_s``.  Live locks are honored until ``timeout_s``, after
    which :meth:`acquire` returns ``False`` and the caller decides.
    """

    def __init__(
        self,
        fs,
        path: Path,
        timeout_s: float = 5.0,
        stale_s: float = 30.0,
        poll_s: float = 0.01,
        clock=time.time,
    ) -> None:
        self.fs = fs
        self.path = Path(path)
        self.timeout_s = timeout_s
        self.stale_s = stale_s
        self.poll_s = poll_s
        self.clock = clock
        self.held = False

    def acquire(self) -> bool:
        deadline = self.clock() + self.timeout_s
        while True:
            try:
                self.fs.create_excl(
                    self.path,
                    json.dumps(
                        {"pid": os.getpid(), "t": self.clock()}
                    ).encode("utf-8"),
                )
            except FileExistsError:
                if self.is_stale():
                    try:
                        self.fs.unlink(self.path)
                    except OSError:
                        pass
                    continue
                if self.clock() >= deadline:
                    return False
                time.sleep(self.poll_s)
                continue
            _HELD_LOCKS.add(str(self.path))
            self.held = True
            return True

    def is_stale(self) -> bool:
        try:
            info = json.loads(self.fs.read_bytes(self.path))
        except (OSError, ValueError):
            return True  # vanished or torn lock content
        if not isinstance(info, dict):
            return True
        pid, t = info.get("pid"), info.get("t")
        if pid == os.getpid() and str(self.path) not in _HELD_LOCKS:
            return True  # our own orphan from a crashed commit
        if isinstance(pid, int) and not _pid_alive(pid):
            return True
        if not isinstance(t, (int, float)):
            return True
        return self.clock() - t > self.stale_s

    def release(self) -> None:
        if not self.held:
            return
        self.held = False
        _HELD_LOCKS.discard(str(self.path))
        try:
            self.fs.unlink(self.path)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class VerifyIssue:
    """One inconsistency ``verify`` found.  ``action`` says what
    ``repair`` did about it ("" when only reporting)."""

    kind: str  # checksum-mismatch | unparseable | key-mismatch |
    #          # misplaced | orphan-temp | stale-lock | foreign-file
    path: str
    action: str = ""  # quarantined | removed | unlocked | ""


@dataclass
class VerifyReport:
    entries: int = 0
    ok: int = 0
    issues: List[VerifyIssue] = field(default_factory=list)
    repaired: bool = False

    @property
    def consistent(self) -> bool:
        """No issue left standing: every finding was acted on (or
        there were none)."""
        return all(issue.action for issue in self.issues)


@dataclass(frozen=True)
class GCReport:
    kept: int
    removed: int
    bytes_kept: int
    bytes_removed: int


@dataclass(frozen=True)
class StoreStats:
    entries: int
    total_bytes: int
    shards: int
    quarantined: int
    temps: int
    locks: int


# ---------------------------------------------------------------------------
# the store


class ResultStore:
    """See the module docstring for the on-disk layout and guarantees.

    ``fs`` defaults to the durable :class:`~repro.store.fs.RealFS`;
    tests pass a :class:`~repro.store.chaos.ChaosFS`.  ``clock`` feeds
    lock staleness and temp-file aging, injectable for determinism.
    """

    QUARANTINE_DIR = "quarantine"

    def __init__(
        self,
        root: Path,
        fs=None,
        lock_timeout_s: float = 5.0,
        stale_lock_s: float = 30.0,
        tmp_grace_s: float = 60.0,
        clock=time.time,
    ) -> None:
        self.root = Path(root)
        self.fs = fs if fs is not None else RealFS()
        self.lock_timeout_s = lock_timeout_s
        self.stale_lock_s = stale_lock_s
        self.tmp_grace_s = tmp_grace_s
        self.clock = clock

    # -- paths -------------------------------------------------------------

    @staticmethod
    def _check_key(key: str) -> None:
        if len(key) < SHARD_CHARS + 2 or not set(key) <= _HEX:
            raise ValueError(f"not a content key: {key!r}")

    def entry_path(self, key: str) -> Path:
        self._check_key(key)
        return self.root / shard_of(key) / f"{key}.json"

    def lock_path(self, key: str) -> Path:
        self._check_key(key)
        return self.root / shard_of(key) / f"{key}.lock"

    def _lock(self, key: str) -> FileLock:
        return FileLock(
            self.fs,
            self.lock_path(key),
            timeout_s=self.lock_timeout_s,
            stale_s=self.stale_lock_s,
            clock=self.clock,
        )

    # -- read path ---------------------------------------------------------

    def get(self, key: str) -> Optional[Dict]:
        """The verified payload for ``key``, or ``None`` on a miss.

        Any corruption — unparseable wrapper, wrong embedded key,
        checksum mismatch — quarantines the entry with a warning and
        reports a miss, so the caller recomputes.  Never raises for a
        bad entry.
        """
        path = self.entry_path(key)
        try:
            data = self.fs.read_bytes(path)
        except FileNotFoundError:
            return None
        except OSError as exc:
            warnings.warn(f"unreadable store entry {path}: {exc}; recomputing")
            return None
        payload, reason = self._validate(data, key)
        if reason is not None:
            self.quarantine(path, reason)
            return None
        return payload

    @staticmethod
    def _validate(data: bytes, key: str):
        """``(payload, None)`` for a sound entry document, else
        ``(None, reason)``."""
        try:
            doc = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None, "unparseable"
        if not isinstance(doc, dict) or not isinstance(doc.get("payload"), dict):
            return None, "unparseable"
        if doc.get("key") != key:
            return None, "key-mismatch"
        if doc.get("sha256") != payload_checksum(doc["payload"]):
            return None, "checksum-mismatch"
        return doc["payload"], None

    def quarantine(self, path: Path, reason: str) -> Optional[Path]:
        """Move a corrupt file aside — preserved for post-mortem, never
        served again.  Best-effort: an unmovable file is a warning,
        never a crash."""
        qdir = self.root / self.QUARANTINE_DIR
        dest = qdir / f"{Path(path).name}.{reason}.{os.getpid()}-{next(_TMP_COUNTER)}"
        try:
            self.fs.mkdir(qdir)
            self.fs.rename(path, dest)
        except OSError as exc:
            warnings.warn(
                f"corrupt store entry {path}: {reason}; quarantine failed "
                f"({exc}); recomputing"
            )
            return None
        warnings.warn(
            f"corrupt store entry {path}: {reason}; quarantined to "
            f"{dest}; recomputing"
        )
        return dest

    # -- write path --------------------------------------------------------

    def put(self, key: str, payload: Dict) -> bool:
        """Durably commit ``payload`` under ``key``.

        Commit protocol: take the entry's advisory lock, write a
        unique per-writer temp file, fsync it, atomically rename it
        over the entry, fsync the shard directory, release the lock.
        Returns ``False`` when the lock stayed contended past the
        timeout — the store is content-addressed, so a concurrent
        writer is committing the same logical value and this write is
        redundant.

        Real I/O failures (``OSError``) clean up this writer's debris
        and re-raise; a :class:`~repro.store.chaos.SimulatedCrash`
        (BaseException) skips cleanup the way a real process death
        would.
        """
        path = self.entry_path(key)
        shard_dir = path.parent
        doc = {
            "v": STORE_VERSION,
            "key": key,
            "sha256": payload_checksum(payload),
            "payload": payload,
        }
        data = json.dumps(doc, sort_keys=True).encode("utf-8")
        self.fs.mkdir(shard_dir)
        lock = self._lock(key)
        if not lock.acquire():
            warnings.warn(
                f"store entry {key[:16]} lock contended past "
                f"{self.lock_timeout_s:g}s; skipping redundant write"
            )
            return False
        tmp = shard_dir / f"{key}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
        try:
            self.fs.write_bytes(tmp, data, fsync=True)
            self.fs.rename(tmp, path)
            self.fs.fsync_dir(shard_dir)
        except Exception:
            try:
                self.fs.unlink(tmp)
            except OSError:
                pass
            lock.release()
            raise
        lock.release()
        return True

    # -- enumeration -------------------------------------------------------

    def _shard_dirs(self) -> List[Path]:
        dirs = []
        for name in self.fs.listdir(self.root):
            if len(name) == SHARD_CHARS and set(name) <= _HEX:
                dirs.append(self.root / name)
        return dirs

    def keys(self) -> List[str]:
        """Every committed key, in sorted order (consistency not
        checked — that is :meth:`get`'s and :meth:`verify`'s job)."""
        found = []
        for shard_dir in self._shard_dirs():
            for name in self.fs.listdir(shard_dir):
                if name.endswith(".json"):
                    found.append(name[: -len(".json")])
        return sorted(found)

    # -- fsck --------------------------------------------------------------

    def verify(self, repair: bool = False) -> VerifyReport:
        """fsck the whole tree; with ``repair`` restore consistency.

        Checks every shard entry's wrapper + checksum, flags misplaced
        and foreign files, over-age orphan temp files (younger than
        ``tmp_grace_s`` are presumed in-flight), stale locks (live
        writers' locks are honored), and ``*.json`` files in the root
        (foreign: reported, never touched).  Repair quarantines the
        corrupt, removes the debris and breaks the stale.
        """
        report = VerifyReport(repaired=repair)
        now = self.clock()

        def note(kind: str, path: Path, action: str) -> None:
            report.issues.append(
                VerifyIssue(kind, str(path), action if repair else "")
            )

        for shard_dir in self._shard_dirs():
            shard = shard_dir.name
            for name in self.fs.listdir(shard_dir):
                path = shard_dir / name
                if name.endswith(".tmp"):
                    try:
                        age = now - self.fs.stat(path).st_mtime
                    except OSError:
                        continue  # already gone (concurrent commit finished)
                    if age >= self.tmp_grace_s:
                        if repair:
                            self.fs.unlink(path)
                        note("orphan-temp", path, "removed")
                    continue
                if name.endswith(".lock"):
                    lock = FileLock(
                        self.fs, path, stale_s=self.stale_lock_s, clock=self.clock
                    )
                    if lock.is_stale():
                        if repair:
                            self.fs.unlink(path)
                        note("stale-lock", path, "unlocked")
                    continue
                if not name.endswith(".json"):
                    note("foreign-file", path, "")
                    continue
                report.entries += 1
                key = name[: -len(".json")]
                if not key.startswith(shard) or not set(key) <= _HEX:
                    if repair:
                        self.quarantine(path, "misplaced")
                    note("misplaced", path, "quarantined")
                    continue
                try:
                    data = self.fs.read_bytes(path)
                except OSError:
                    note("unreadable", path, "")
                    continue
                _, reason = self._validate(data, key)
                if reason is not None:
                    if repair:
                        self.quarantine(path, reason)
                    note(reason, path, "quarantined")
                    continue
                report.ok += 1

        for name in self.fs.listdir(self.root):
            path = self.root / name
            if name.endswith(".json"):
                note("foreign-file", path, "")
        return report

    # -- retention ---------------------------------------------------------

    def gc(self, max_bytes: int) -> GCReport:
        """Evict oldest-modified entries until the store fits in
        ``max_bytes`` (quarantine, locks, and temps are not counted and
        not touched)."""
        entries = []
        for shard_dir in self._shard_dirs():
            for name in self.fs.listdir(shard_dir):
                if not name.endswith(".json"):
                    continue
                path = shard_dir / name
                try:
                    st = self.fs.stat(path)
                except OSError:
                    continue
                entries.append((st.st_mtime, st.st_size, path))
        entries.sort(key=lambda item: (item[0], str(item[2])))
        total = sum(size for _, size, _ in entries)
        removed = bytes_removed = 0
        for mtime, size, path in entries:
            if total <= max_bytes:
                break
            try:
                self.fs.unlink(path)
            except OSError:
                continue
            total -= size
            removed += 1
            bytes_removed += size
        return GCReport(
            kept=len(entries) - removed,
            removed=removed,
            bytes_kept=total,
            bytes_removed=bytes_removed,
        )

    # -- accounting --------------------------------------------------------

    def stats(self) -> StoreStats:
        entries = total_bytes = temps = locks = 0
        shards = 0
        for shard_dir in self._shard_dirs():
            names = self.fs.listdir(shard_dir)
            if names:
                shards += 1
            for name in names:
                path = shard_dir / name
                if name.endswith(".json"):
                    entries += 1
                    try:
                        total_bytes += self.fs.stat(path).st_size
                    except OSError:
                        pass
                elif name.endswith(".tmp"):
                    temps += 1
                elif name.endswith(".lock"):
                    locks += 1
        quarantined = len(
            self.fs.listdir(self.root / self.QUARANTINE_DIR)
        )
        return StoreStats(
            entries=entries,
            total_bytes=total_bytes,
            shards=shards,
            quarantined=quarantined,
            temps=temps,
            locks=locks,
        )
