"""Acceptance check: streaming quantiles agree with the exact buffered
quantiles on every registered experiment.

Each experiment is re-run once with **both** observability backends
attached to every machine it builds — the buffered
:class:`~repro.monitor.spans.SpanCollector` (the exact population) and
the :class:`~repro.monitor.streamstore.StreamingSpanStore` — so the two
observe identical traffic.  For every experiment that traces requests,
the streaming p50/p90/p95/p99 must fall within the sketch's declared
relative-error bound of the exact sorted-population quantile (the
shared rank convention ``sorted[ceil(q*n) - 1]``).  Simulated cycles
are unaffected by either backend (the zero-cost contract), so this is
purely a statistics check.

Usage: ``python benchmarks/stream_agreement.py [--full] [NAMES...]``
(default: every registered experiment at fast size; exit 0 = all
within bound).
"""

from __future__ import annotations

import math
import sys

#: the sketch's declared relative-error bound (matches the
#: StreamingSpanStore default).
RELATIVE_ERROR = 0.01

QUANTILES = (0.5, 0.9, 0.95, 0.99)


def exact_quantile(ordered, q):
    rank = max(math.ceil(q * len(ordered)), 1)
    return ordered[min(rank, len(ordered)) - 1]


def dual_observed_run(name: str, fast: bool = True):
    """Run one experiment with both backends on every machine; returns
    (sorted exact latencies, the stores' merged LatencyAnalysis) or
    (None, None) when the experiment traces nothing."""
    from repro.experiments.runner import experiment, observe
    from repro.monitor.spans import SpanCollector
    from repro.monitor.streamstore import StreamingSpanStore

    exp = experiment(name)
    pairs = []

    def attach(ctx):
        buffered = SpanCollector().attach(ctx.bus)
        store = StreamingSpanStore(relative_error=RELATIVE_ERROR).attach(ctx.bus)
        pairs.append((buffered, store))

        def detach():
            buffered.detach()
            store.detach()

        return detach

    with observe(attach):
        exp.runner(**exp.arguments(fast))
    latencies = sorted(
        span.latency
        for buffered, _store in pairs
        for span in buffered.complete_spans()
        if span.phases() is not None
    )
    if not latencies:
        return None, None
    analysis = StreamingSpanStore.analyze([store for _buffered, store in pairs])
    return latencies, analysis


def check_experiment(name: str, fast: bool = True):
    """Returns a list of failure messages (empty = agreement holds)."""
    latencies, analysis = dual_observed_run(name, fast=fast)
    if latencies is None:
        print(f"stream-agreement: {name}: no traced requests, skipped")
        return []
    if analysis.requests != len(latencies):
        return [
            f"{name}: streaming folded {analysis.requests} requests, "
            f"buffered retained {len(latencies)}"
        ]
    failures = []
    worst = 0.0
    estimates = analysis.quantile_curve(QUANTILES)
    for q, estimate in zip(QUANTILES, estimates):
        exact = exact_quantile(latencies, q)
        rel = abs(estimate - exact) / exact if exact else abs(estimate)
        worst = max(worst, rel)
        if rel > RELATIVE_ERROR * (1.0 + 1e-9) + 1e-12:
            failures.append(
                f"{name}: p{int(q * 100)} streamed {estimate:.3f} vs exact "
                f"{exact:.3f} ({rel:.4%} > {RELATIVE_ERROR:.0%} bound)"
            )
    if not failures:
        print(
            f"stream-agreement: {name}: {len(latencies)} requests, "
            f"worst quantile error {worst:.4%} (bound {RELATIVE_ERROR:.0%})"
        )
    return failures


def main(argv=None) -> int:
    from repro.experiments.runner import experiment_names

    argv = sys.argv[1:] if argv is None else argv
    fast = "--full" not in argv
    names = [a for a in argv if not a.startswith("--")] or experiment_names()
    failures = []
    for name in names:
        failures.extend(check_experiment(name, fast=fast))
    for failure in failures:
        print(f"stream-agreement: FAIL: {failure}")
    if not failures:
        print(f"stream-agreement: OK ({len(names)} experiments)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
