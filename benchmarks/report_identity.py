"""Report-identity check: regenerated run reports against the tracked ones.

``python -m repro run-all`` writes one JSON run report per experiment to
``.repro-reports/``.  Reports carry every metric, latency, cycle and
event count the monitors collected, so a regenerated report that
differs from the committed one means observed behaviour changed.  This
script compares each regenerated ``<dir>/*.json`` with the committed
``git show <ref>:.repro-reports/<name>.json`` and exits 1 on any
difference.

Key order is ignored, and so are the wall-clock fields, which differ on
every run: the top-level ``elapsed_s`` and ``cached``, and each
machine's ``engine.events_per_sec`` and ``engine.run_wall_s``.

Usage::

    python -m repro run-all --fast
    python benchmarks/report_identity.py [--dir .repro-reports] [--ref HEAD]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Iterator, List, Optional

#: tracked report location, relative to the repository root.
TRACKED_DIR = ".repro-reports"

#: wall-clock fields: top level, and per machine under ``engine``.
_RUN_FIELDS = ("elapsed_s", "cached")
_ENGINE_FIELDS = ("events_per_sec", "run_wall_s")

#: differences printed per report before the rest are only counted.
_SHOW = 10


def normalize(report: dict) -> dict:
    """``report`` without its wall-clock fields."""
    out = {k: v for k, v in report.items() if k not in _RUN_FIELDS}
    machines = []
    for machine in report.get("machines", []):
        machine = dict(machine)
        if isinstance(machine.get("engine"), dict):
            machine["engine"] = {
                k: v for k, v in machine["engine"].items() if k not in _ENGINE_FIELDS
            }
        machines.append(machine)
    if "machines" in report:
        out["machines"] = machines
    return out


def differences(a, b, path: str = "") -> Iterator[str]:
    """Paths at which ``a`` and ``b`` differ (dict key order ignored)."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            where = f"{path}.{key}" if path else str(key)
            if key not in a:
                yield f"{where}: only in the regenerated report"
            elif key not in b:
                yield f"{where}: only in the tracked report"
            else:
                yield from differences(a[key], b[key], where)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{path}: {len(b)} items tracked, {len(a)} regenerated"
        for i, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, f"{path}[{i}]")
    elif a != b:
        yield f"{path}: tracked {b!r}, regenerated {a!r}"


def tracked_report(name: str, ref: str) -> dict:
    text = subprocess.run(
        ["git", "show", f"{ref}:{TRACKED_DIR}/{name}"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return json.loads(text)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dir", default=TRACKED_DIR,
                        help="directory of regenerated reports")
    parser.add_argument("--ref", default="HEAD",
                        help="git revision holding the tracked reports")
    args = parser.parse_args(argv)
    paths = sorted(Path(args.dir).glob("*.json"))
    if not paths:
        print(f"report-identity: no reports in {args.dir}")
        return 1
    failed = []
    for path in paths:
        try:
            tracked = tracked_report(path.name, args.ref)
        except subprocess.CalledProcessError:
            failed.append(path.name)
            print(f"report-identity: {path.name}: not tracked at {args.ref}")
            continue
        regenerated = json.loads(path.read_text())
        diffs = list(differences(normalize(regenerated), normalize(tracked)))
        if not diffs:
            print(f"report-identity: identical: {path.name}")
            continue
        failed.append(path.name)
        print(f"report-identity: DIFFERS: {path.name} ({len(diffs)} values)")
        for line in diffs[:_SHOW]:
            print(f"  {line}")
        if len(diffs) > _SHOW:
            print(f"  ... and {len(diffs) - _SHOW} more")
    if failed:
        print(f"report-identity: FAIL: {len(failed)}/{len(paths)} reports differ")
        return 1
    print(f"report-identity: OK: {len(paths)} reports identical to {args.ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
