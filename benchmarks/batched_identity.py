"""Batched-engine identity harness: every registered experiment, both
drains, byte-for-byte.

The batched engine (:class:`repro.core.engine.BatchedEngine`) promises
*bit-identical simulation*: same cycles, same event counts, same final
state, same rendered artifacts as the scalar reference drain.  This
harness is the promise's enforcement: it runs the **full experiment
registry** under ``CEDAR_BATCHED=0`` then ``=1`` in two passes, and
fails on any divergence (CI's ``batched-identity`` job calls this on
every push):

* **rendered text, observation off** — each experiment's rendered
  report, diffed byte-for-byte.  Wall-clock-derived content
  (events/sec lines, elapsed-seconds fields) is normalized out first;
  normalization is deliberately narrow and every substitution is
  logged, so a normalization that starts matching simulation output
  would be visible in the job log.
* **observed machines** — the same run under run-all's default
  observation (:class:`repro.monitor.report.ReportCollector`: standard
  monitors plus buffered spans), comparing every machine record of
  ``machine_dicts()`` — metrics snapshot, latency summary, cycles,
  engine counts — after dropping the engine's ``run_wall_s`` and
  ``events_per_sec`` and its queue-layout depths (a bounded run leaves
  its pending events in a different structure on each engine).  This
  pass covers the group handler's inlined
  accounting for monitored and traced links, which the first pass
  never arms.

Every run starts from cleared in-process memos, so each drain really
simulates.

Usage: ``python benchmarks/batched_identity.py [--full] [names...]``
(default: every registered experiment at ``--fast`` smoke sizes; exit
0 = all identical).
"""

from __future__ import annotations

import difflib
import json
import os
import re
import sys

#: wall-clock normalizations: (label, pattern) applied to both renders.
#: Patterns replace only the numeric payload, keeping the surrounding
#: text, so a diff in normalized output still reads naturally.
_WALL_CLOCK = [
    ("events/sec", re.compile(r"[\d,.]+\s*(events?/s(?:ec)?)")),
    ("elapsed seconds", re.compile(r"[\d.]+\s*(?:wall[- ])?s(?:ec(?:onds)?)?\b")),
    ("wall ms", re.compile(r"[\d.]+\s*ms\b")),
]

#: fields of each machine record's ``engine`` section that describe the
#: host, not the simulation: wall time, and where each engine class
#: keeps its pending events (``pending`` counts them on both drains).
_ENGINE_HOST_FIELDS = (
    "run_wall_s", "events_per_sec", "queue_depth_tail", "queue_depth_heap",
)


def _normalize(text: str, notes: set) -> str:
    for label, pattern in _WALL_CLOCK:
        text, n = pattern.subn("<wall-clock>", text)
        if n:
            notes.add(f"normalized {n}x {label}")
    return text


def _run(name: str, fast: bool, gate: str) -> str:
    from repro.experiments.runner import clear_memoized_runs, experiment

    os.environ["CEDAR_BATCHED"] = gate
    clear_memoized_runs()
    exp = experiment(name)
    return exp.runner(**exp.arguments(fast=fast))


def _machines(name: str, fast: bool, gate: str) -> str:
    """``name``'s observed machine records as canonical JSON text."""
    from repro.monitor.report import ReportCollector

    with ReportCollector() as collector:
        _run(name, fast, gate)
    machines = collector.machine_dicts()
    for machine in machines:
        for field in _ENGINE_HOST_FIELDS:
            machine["engine"].pop(field, None)
    return json.dumps(machines, indent=1, sort_keys=True) + "\n"


def _diff(name: str, what: str, scalar: str, batched: str) -> list:
    if scalar == batched:
        return []
    return list(
        difflib.unified_diff(
            scalar.splitlines(keepends=True),
            batched.splitlines(keepends=True),
            fromfile=f"{name} {what} CEDAR_BATCHED=0",
            tofile=f"{name} {what} CEDAR_BATCHED=1",
        )
    )


def check(name: str, fast: bool = True) -> list:
    """Run ``name`` under both drains, observation off; return diff
    lines of the rendered text (empty = identical)."""
    notes: set = set()
    scalar = _normalize(_run(name, fast, "0"), notes)
    batched = _normalize(_run(name, fast, "1"), notes)
    for note in sorted(notes):
        print(f"  {name}: {note}")
    return _diff(name, "render", scalar, batched)


def check_observed(name: str, fast: bool = True) -> list:
    """Run ``name`` under both drains with run-all's default
    observation; return diff lines of the machine records (empty =
    identical)."""
    return _diff(
        name,
        "machine_dicts",
        _machines(name, fast, "0"),
        _machines(name, fast, "1"),
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    fast = "--full" not in argv
    names = [a for a in argv if not a.startswith("--")]
    previous_gate = os.environ.get("CEDAR_BATCHED")
    from repro.experiments.runner import experiment_names

    if not names:
        names = experiment_names()
    failures = []
    try:
        for name in names:
            for what, checker in (("render", check), ("observed", check_observed)):
                diff = checker(name, fast=fast)
                if diff:
                    failures.append(f"{name} ({what})")
                    print(f"batched-identity: DIVERGED: {name} ({what})")
                    sys.stdout.writelines(diff)
                else:
                    print(f"batched-identity: identical: {name} ({what})")
    finally:
        if previous_gate is None:
            os.environ.pop("CEDAR_BATCHED", None)
        else:
            os.environ["CEDAR_BATCHED"] = previous_gate
    if failures:
        print(
            f"batched-identity: FAIL: {len(failures)} of {2 * len(names)} "
            f"checks diverged: {', '.join(failures)}"
        )
        return 1
    print(
        f"batched-identity: OK: {len(names)} experiments byte-identical "
        f"across CEDAR_BATCHED=0/1, rendered and observed"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
