"""Per-layer host time for one traced rep, measured from outside ``src/``.

Two instruments, both installed only for the traced rep:

* :class:`Sampler` — a daemon thread that reads the main thread's
  innermost Python frame every millisecond through
  ``sys._current_frames()`` and charges the sample to the layer of that
  frame's module (:func:`layer_of`).  Time inside a C function lands on
  the Python frame that called it, so ``heapq`` pushes count for the
  engine and the C JSON encoder for its stdlib caller.
* :class:`Spans` — coarse spans around a few public entry points,
  wrapped at class level: machine build and run, engine drains, report
  building and serialization, and result-store reads and writes.  Each
  span records name, start, end and parent; a span's self time is its
  duration minus that of its children.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: module prefix -> layer; the longest matching prefix wins.  Layer
#: names follow the simulator's package names.
LAYER_PREFIXES: Dict[str, str] = {
    "repro.core": "core",
    "repro.core.engine": "engine",
    "repro.perf.batch": "engine",
    "repro.network": "network",
    "repro.gmemory": "gmemory",
    "repro.cluster": "cluster",
    "repro.kernels": "cluster",
    "repro.prefetch": "prefetch",
    "repro.vm": "prefetch",
    "repro.monitor": "monitor",
    "repro.faults": "faults",
    "repro.store": "store",
    "repro.restructurer": "analytic",
    "repro.perfect": "analytic",
    "repro.metrics": "analytic",
    "repro.fortran": "analytic",
    "repro.perf": "analytic",
    "repro.machines": "analytic",
    "repro.xylem": "analytic",
    "repro.experiments": "experiments",
    "repro.util": "experiments",
    "repro.__main__": "experiments",
}

#: every layer a sample can land in; ``other`` is code outside the
#: simulator (the standard library and the benchmark's own glue).
LAYERS: Tuple[str, ...] = (
    "engine",
    "network",
    "gmemory",
    "cluster",
    "prefetch",
    "monitor",
    "core",
    "faults",
    "store",
    "analytic",
    "experiments",
    "other",
)

#: seconds between samples.
SAMPLE_INTERVAL_S = 0.001

#: a ``repro`` module no prefix covers — counted, so a new package
#: shows up as unattributed instead of silently joining ``other``.
UNMAPPED = "unmapped"


def module_of(filename: str) -> Optional[str]:
    """Dotted module name of a file under a ``repro`` package, else None."""
    parts = Path(filename).with_suffix("").parts
    if "repro" not in parts:
        return None
    at = len(parts) - 1 - parts[::-1].index("repro")
    names = list(parts[at:])
    if names[-1] == "__init__":
        names.pop()
    return ".".join(names)


def layer_of(filename: str) -> str:
    module = module_of(filename)
    if module is None:
        return "other"
    if module == "repro":
        return "core"
    prefix = module
    while prefix:
        if prefix in LAYER_PREFIXES:
            return LAYER_PREFIXES[prefix]
        prefix = prefix.rpartition(".")[0]
    return UNMAPPED


class Sampler:
    """Sample the calling thread's innermost frame from a daemon thread."""

    def __init__(self) -> None:
        self._by_file: Counter = Counter()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._target = 0
        self._switch = 0.0

    def start(self) -> None:
        """Start, or after :meth:`stop` resume, sampling the calling thread."""
        self._target = threading.get_ident()
        self._stop.clear()
        # the sampler needs the interpreter lock to read frames; hand it
        # over at the sampling rate instead of the default 5 ms
        self._switch = sys.getswitchinterval()
        sys.setswitchinterval(SAMPLE_INTERVAL_S)
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        frames = sys._current_frames
        target = self._target
        counts = self._by_file
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            frame = frames().get(target)
            if frame is not None:
                counts[frame.f_code.co_filename] += 1

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        if self._thread.is_alive():
            raise RuntimeError("sampler thread did not stop")
        sys.setswitchinterval(self._switch)

    def layer_samples(self) -> Dict[str, int]:
        """Samples per layer (every layer present, unmapped included)."""
        out = dict.fromkeys(LAYERS + (UNMAPPED,), 0)
        for filename, n in self._by_file.items():
            out[layer_of(filename)] += n
        return out


def _wrapped_methods():
    """``(span name, class, method name)`` for every wrapped entry point."""
    from repro.core.engine import BatchedEngine, Engine
    from repro.core.machine import CedarMachine
    from repro.monitor.report import ReportCollector, RunReport
    from repro.store.core import ResultStore

    sites = [
        ("core.build", CedarMachine, "__init__"),
        ("core.run", CedarMachine, "run_programs"),
        ("monitor.report", ReportCollector, "machine_dicts"),
        ("monitor.report", RunReport, "to_dict"),
        ("store.put", ResultStore, "put"),
        ("store.get", ResultStore, "get"),
    ]
    # soak drives the engine directly, so the drains are spans too;
    # BatchedEngine overrides them, so wrap what each class defines
    for cls in (Engine, BatchedEngine):
        for method in ("run", "run_until_idle"):
            if method in vars(cls):
                sites.append(("engine.run", cls, method))
    return sites


class Spans:
    """Coarse wall-clock spans around public entry points, timed on
    ``clock`` (wall seconds)."""

    def __init__(self, clock) -> None:
        self.clock = clock
        #: completed spans: (name, start, end, parent index or -1)
        self.records: List[Tuple[str, float, float, int]] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[type, str, object]] = []

    def install(self) -> None:
        for name, cls, method in _wrapped_methods():
            original = vars(cls)[method]
            self._saved.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        records = self.records
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(records)
            records.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                parent = records[index][3]
                records[index] = (name, start, clock(), parent)

        return span

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, each span's children subtracted."""
        child_time: Dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.records:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.records):
            out[name] += end - start - child_time[index]
        return dict(out)
