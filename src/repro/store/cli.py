"""The ``python -m repro store`` maintenance subcommands.

``verify`` is the fsck pass (``--repair`` to act on findings; exits 1
while the store is inconsistent), ``repair`` is shorthand for
``verify --repair``, ``gc --max-bytes N`` evicts oldest entries down
to a byte budget, and ``stats`` summarizes the tree.  All operate on
``--dir`` (default: the runner's cache directory).
"""

from __future__ import annotations

from pathlib import Path
from typing import List


def add_store_parser(sub) -> None:
    """Register the ``store`` subcommand tree on the repro CLI."""
    store = sub.add_parser(
        "store", help="inspect and maintain the sharded result store"
    )
    ssub = store.add_subparsers(dest="store_command", required=True)

    def _common(parser) -> None:
        parser.add_argument(
            "--dir", default=None, metavar="DIR",
            help="store root (default .repro-cache)",
        )

    verify = ssub.add_parser(
        "verify", help="fsck every entry (exit 1 on inconsistency)"
    )
    verify.add_argument(
        "--repair", action="store_true",
        help="quarantine corrupt entries, remove debris, break stale "
             "locks",
    )
    _common(verify)

    repair = ssub.add_parser("repair", help="shorthand for verify --repair")
    _common(repair)

    gc = ssub.add_parser("gc", help="evict oldest entries to a byte budget")
    gc.add_argument(
        "--max-bytes", type=int, required=True, metavar="N",
        help="target total entry bytes",
    )
    _common(gc)

    stats = ssub.add_parser("stats", help="summarize the store tree")
    _common(stats)


def _store(args):
    from repro.experiments.runner import DEFAULT_CACHE_DIR
    from repro.store.core import ResultStore

    root = Path(args.dir or DEFAULT_CACHE_DIR)
    if not root.is_dir():
        raise RuntimeError(
            f"no result store at {root}/; populate one with "
            f"`python -m repro run-all --cached`"
        )
    return ResultStore(root)


def handle_store(args):
    """Dispatch one ``store`` subcommand; returns the rendered text or
    ``(text, exit_code)``."""
    store = _store(args)
    command = args.store_command
    if command in ("verify", "repair"):
        repair = command == "repair" or args.repair
        report = store.verify(repair=repair)
        return _render_verify(store, report)
    if command == "gc":
        report = store.gc(args.max_bytes)
        return (
            f"[store] gc to {args.max_bytes} bytes: kept {report.kept} "
            f"entries ({report.bytes_kept} bytes), evicted "
            f"{report.removed} ({report.bytes_removed} bytes)"
        )
    report = store.stats()
    lines = [
        f"[store] {store.root}/",
        f"  entries      {report.entries} ({report.total_bytes} bytes "
        f"across {report.shards} shards)",
        f"  quarantined  {report.quarantined}",
        f"  temps/locks  {report.temps}/{report.locks}",
    ]
    return "\n".join(lines)


def _render_verify(store, report):
    mode = "verify --repair" if report.repaired else "verify"
    acted = sum(1 for issue in report.issues if issue.action)
    lines: List[str] = [
        f"[store] {mode} {store.root}/: {report.entries} entries, "
        f"{report.ok} ok, {len(report.issues)} issue(s), {acted} repaired"
    ]
    for issue in report.issues:
        action = f" -> {issue.action}" if issue.action else ""
        lines.append(f"  {issue.kind:<18} {issue.path}{action}")
    text = "\n".join(lines)
    return text if report.consistent else (text, 1)
