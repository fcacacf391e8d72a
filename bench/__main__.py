"""Command line of the benchmark; run from the repository root.

    python -m bench [--runs 3] [--seed 7] [--seconds S] [--workloads W ...] [--out FILE]
        timed runs of every workload, interleaved round-robin, run i at
        seed 7 + i, then one traced run each at seed 7; prints
        ``workload metric median unit (q1 q3 n)`` for every metric and
        writes the results document to FILE.

    python -m bench --workload W --seed N --seconds S --trace 0|1
        one timed run of one workload; the last line of standard output
        is one JSON object with ``correct``, ``attempted``, ``failed`` and
        ``metrics`` (the end-to-end metrics of BENCHMARK.json, or with
        ``--trace 1`` its per-layer ones).

    python -m bench agree A.json B.json
        for every workload and end-to-end metric of two results
        documents: agree, differs or unresolved; exits 1 on differs.

A timed run repeats the workload, one fresh process per rep, until S
seconds (default ``run_seconds`` of BENCHMARK.json) have passed, and
reports the median of each metric over its reps.  Exit status is 1 when
any output is wrong, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from bench import DEFAULT_SEED, harness


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _report_problems(problems) -> None:
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)


def _one_run(args, declared: dict, pins: dict) -> int:
    run = harness.timed_run(args.workload, args.seed, args.seconds, bool(args.trace), pins)
    _report_problems(run["problems"])
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    measured = run["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in measured
    }
    print(
        json.dumps(
            {
                "correct": not run["problems"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 1 if run["problems"] or len(metrics) != len(wanted) else 0


def _set(args, declared: dict, pins: dict) -> int:
    names = [w["name"] for w in declared["workloads"]]
    workloads = args.workloads or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        return _fail(f"unknown workloads {unknown}; have {names}")
    if args.runs < 1:
        return _fail("--runs must be at least 1")
    doc = harness.run_set(
        workloads,
        args.seed,
        args.runs,
        args.seconds,
        pins,
        log=lambda line: print(line, file=sys.stderr, flush=True),
    )
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for workload, result in doc["workloads"].items():
        for name, s in {**result["end_to_end"], **result["per_layer"]}.items():
            print(
                f"{workload} {name} {s['median']:.6g} {units[name]} "
                f"({s['q1']:.6g} {s['q3']:.6g} {s['n']})"
            )
        _report_problems(result["problems"])
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if any(r["problems"] for r in doc["workloads"].values()) else 0


def _agree(argv, declared: dict) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench agree")
    parser.add_argument("first")
    parser.add_argument("second")
    args = parser.parse_args(argv)
    docs = [json.loads(Path(p).read_text()) for p in (args.first, args.second)]
    rows = harness.agree(docs[0], docs[1], declared["end_to_end"])
    for workload, metric, verdict, change in rows:
        print(f"{workload} {metric} {verdict} ({change:+.2%})")
    return 1 if any(row[2] == "differs" for row in rows) else 0


def main(argv) -> int:
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no simulator sources under {harness.SRC}")
    declared = harness.declaration()
    if argv[:1] == ["agree"]:
        return _agree(argv[1:], declared)
    parser = argparse.ArgumentParser(prog="python -m bench")
    parser.add_argument("--workload", help="one timed run of this workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    pins = json.loads(harness.PINS.read_text())
    if args.workload is None:
        return _set(args, declared, pins)
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    return _one_run(args, declared, pins)


if __name__ == "__main__":
    # a terminated run still kills and reaps the rep it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main(sys.argv[1:]))
