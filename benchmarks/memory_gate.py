"""CI memory gate: streaming observability must stay flat in requests.

Runs the registered soak flood twice under :mod:`tracemalloc` — once at
the small request count, once at 10x–∞ that — with the streaming span
store attached **and a metric timeline sampling at the default
interval**, and fails if the large run's peak allocation exceeds
``RATIO`` times the small run's.  A buffered collector retains one span
per request, so its peak scales linearly and trips the gate immediately;
the streaming store folds each request into sketch state of constant
size, and the timeline coalesces intervals by powers of two, so both
peaks are dominated by the machine itself and the ratio stays near 1.
The timeline rides inside the measured window on purpose: a regression
that made interval storage grow with run length would trip this gate,
not just slow the chart down.

A short untraced warmup run is taken first so one-time allocations
(imports, the packet pool, code caches) are paid before either
measurement starts — otherwise they inflate whichever run goes first.

``--reports`` gates the buffered report path instead: it runs
``python -m repro run-all table1 --fast --jobs 1`` in a child process
twice, bare (``--no-reports``) and with run reports written to a
temporary directory, reads each child's peak RSS (``ru_maxrss``,
through :func:`os.wait4`), and fails if the observed peak exceeds
``REPORTS_RATIO`` times the bare one.  The report collector folds each
machine's span buffer when its engine goes idle, so one raw buffer is
alive at a time; a collector that kept every machine's buffer to the
end would trip it.

Usage::

    python benchmarks/memory_gate.py              # 100k vs 1M requests
    python benchmarks/memory_gate.py --fast       # 10k vs 100k (smoke)
    python benchmarks/memory_gate.py --reports    # observed vs bare table1

Exit status 0 iff the gate holds and every run completed (un-aborted).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import tracemalloc

#: the large run's tracemalloc peak may be at most this multiple of the
#: small run's (the acceptance bound for the streaming path).
RATIO = 1.2

#: ``--reports``: observed ``run-all table1 --fast`` may peak at most
#: this multiple of the bare run's ``ru_maxrss``.
REPORTS_RATIO = 6.0
REPORTS_ARGV = ("run-all", "table1", "--fast", "--jobs", "1")

SMALL = 100_000
LARGE = 1_000_000
WARMUP = 2_000


def measured_soak(requests: int, seed: int = 7):
    """One streaming soak flood under tracemalloc; returns the
    :class:`~repro.experiments.soak.SoakResult`, the peak traced
    allocation in bytes, and the timeline document sampled during the
    run (its interval count must stay bounded at any run length)."""
    from repro.experiments.runner import observe
    from repro.experiments.soak import run_soak
    from repro.monitor.timeline import TimelineRecorder

    tracemalloc.start()
    try:
        recorder = TimelineRecorder()
        with observe(recorder):
            result = run_soak(requests=requests, seed=seed, stream=True)
        (timeline,) = recorder.documents()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, timeline


def child_peak_mb(argv) -> float:
    """Run ``python -m repro *argv`` in a child process (output
    discarded) and return its peak RSS in MB: ``ru_maxrss``, which
    Linux reports in KB, read through :func:`os.wait4`."""
    child = subprocess.Popen([sys.executable, "-m", "repro", *argv],
                             stdout=subprocess.DEVNULL)
    _pid, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise SystemExit(f"memory-gate: FAIL: {' '.join(argv)} exited "
                         f"{child.returncode}")
    return usage.ru_maxrss / 1024


def reports_gate(ratio: float) -> int:
    """Observed against bare peak RSS of ``run-all table1 --fast``."""
    bare = child_peak_mb([*REPORTS_ARGV, "--no-reports"])
    with tempfile.TemporaryDirectory() as report_dir:
        observed = child_peak_mb([*REPORTS_ARGV, "--report-dir", report_dir])
    print(f"memory-gate: {' '.join(REPORTS_ARGV)}: bare {bare:.1f} MB, "
          f"with reports {observed:.1f} MB ({observed / bare:.2f}x, "
          f"bound {ratio}x)")
    if observed > ratio * bare:
        print("memory-gate: FAIL: run reports retain more than the bound "
              "allows: span buffers are not folded as machines go idle")
        return 1
    print("memory-gate: OK (buffered reports fold each idle machine)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--small", type=int, default=SMALL)
    parser.add_argument("--large", type=int, default=LARGE)
    parser.add_argument("--ratio", type=float, default=None,
                        help=f"the bound (default {RATIO}, or "
                             f"{REPORTS_RATIO} with --reports)")
    parser.add_argument(
        "--fast", action="store_true",
        help="10k vs 100k requests (a smoke run, same invariant)",
    )
    parser.add_argument(
        "--reports", action="store_true",
        help="gate run-all table1's observed peak RSS against bare instead",
    )
    args = parser.parse_args(argv)
    if args.reports:
        return reports_gate(REPORTS_RATIO if args.ratio is None else args.ratio)
    if args.ratio is None:
        args.ratio = RATIO
    small_n, large_n = args.small, args.large
    if args.fast:
        small_n, large_n = 10_000, 100_000

    from repro.experiments.soak import run_soak

    run_soak(requests=WARMUP, stream=True)  # pay one-time allocations

    from repro.monitor.timeline import MAX_INTERVALS, validate_timeline

    failures = []
    peaks = {}
    for label, requests in (("small", small_n), ("large", large_n)):
        result, peak, timeline = measured_soak(requests)
        peaks[label] = peak
        print(
            f"memory-gate: {label} run {requests:,} requests -> "
            f"{result.traced:,} traced, peak {peak / 1e6:.1f} MB, "
            f"{result.footprint_items:,} resident traced items, "
            f"{timeline['intervals']} timeline intervals x "
            f"{timeline['interval_cycles']:g} cycles "
            f"({timeline['coalesces']} coalesces)"
        )
        if result.aborted:
            failures.append(f"{label} run aborted (watchdog)")
        if result.traced < requests * 0.99:
            failures.append(
                f"{label} run traced only {result.traced:,} of "
                f"{requests:,} requests"
            )
        validate_timeline(timeline)
        if not 0 < timeline["intervals"] <= MAX_INTERVALS:
            failures.append(
                f"{label} run timeline holds {timeline['intervals']} "
                f"intervals (bound {MAX_INTERVALS}): coalescing is not "
                f"keeping interval storage flat"
            )

    ratio = peaks["large"] / peaks["small"]
    print(
        f"memory-gate: peak ratio {ratio:.3f} at {large_n // small_n}x the "
        f"requests (bound {args.ratio}x)"
    )
    if ratio > args.ratio:
        failures.append(
            f"peak allocation grew {ratio:.3f}x from {small_n:,} to "
            f"{large_n:,} requests (bound {args.ratio}x): the tracing "
            f"path is not flat in request count"
        )
    for failure in failures:
        print(f"memory-gate: FAIL: {failure}")
    if not failures:
        print(
            "memory-gate: OK (streaming observability and timeline "
            "sampling are flat in requests)"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
