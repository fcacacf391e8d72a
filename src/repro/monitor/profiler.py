"""Host-time hotspot attribution: where the *wall-clock* goes.

Everything else in the monitor package measures simulated time; this
module measures the simulator itself.  ``python -m bench`` says how
fast the simulator is end to end; any rework of the hot path also needs
to know *which frames* hold the time before anything is worth
rewriting.

:func:`profile_call` runs a callable under :mod:`cProfile` and folds
the flat ``pstats`` rows two ways:

* **per-subsystem attribution** — each frame's file path is matched to
  a Cedar subsystem (``engine``, ``network``, ``gmemory``, ``cluster``,
  ``prefetch``, ``monitor``, ``kernels``, ``faults``, ``other``) and
  self-time is summed per bucket, so the report answers "is the time in
  the event loop, the fabric model, or the instrumentation?";
* **top frames** — the hottest individual functions by self-time, each
  tagged with its subsystem.

The result is a plain JSON-serializable document (:class:`HostProfile`
``.to_dict()``), rendered for humans by :func:`render_profile` and
exposed as ``python -m repro profile EXP``.  cProfile inflates absolute
wall-clock (tracing overhead is real), so the document reports
*shares*, not absolute events/sec — the shape survives the overhead
even though the magnitudes don't.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

#: profile document format version.
PROFILE_VERSION = 1

#: subsystem attribution by file-path fragment, first match wins.
#: Ordered most-specific first: ``monitor`` before ``core`` so an
#: instrumented run shows its observability cost as ``monitor``, not as
#: the subsystem that happened to call it.
SUBSYSTEM_PATTERNS: Tuple[Tuple[str, str], ...] = (
    ("monitor", "repro/monitor"),
    ("engine", "repro/core/engine"),
    ("core", "repro/core"),
    ("network", "repro/network"),
    ("gmemory", "repro/gmemory"),
    ("cluster", "repro/cluster"),
    ("prefetch", "repro/prefetch"),
    ("kernels", "repro/kernels"),
    ("faults", "repro/faults"),
    ("experiments", "repro/experiments"),
)


def frame_subsystem(filename: str) -> str:
    """Attribute one frame's file path to a subsystem bucket.

    Paths outside the package (stdlib heapq, json, the harness itself)
    fall into ``other``; built-ins (``~``) land there too.
    """
    normalized = filename.replace("\\", "/")
    for subsystem, fragment in SUBSYSTEM_PATTERNS:
        if fragment in normalized:
            return subsystem
    return "other"


@dataclass(frozen=True)
class HostProfile:
    """One profiled run: subsystem shares plus the hottest frames."""

    experiment: str
    wall_seconds: float
    total_calls: int
    #: subsystem -> cumulative self-time seconds.
    subsystems: Dict[str, float]
    #: hottest frames by self-time: dicts with function / file / line /
    #: subsystem / self_seconds / calls.
    frames: List[dict] = field(default_factory=list)

    def subsystem_shares(self) -> Dict[str, float]:
        """Subsystem -> fraction of attributed self-time (sums to 1.0
        when any time was recorded)."""
        total = sum(self.subsystems.values())
        if total <= 0:
            return {name: 0.0 for name in self.subsystems}
        return {name: t / total for name, t in self.subsystems.items()}

    def to_dict(self) -> dict:
        return {
            "version": PROFILE_VERSION,
            "experiment": self.experiment,
            "wall_seconds": round(self.wall_seconds, 6),
            "total_calls": self.total_calls,
            "subsystems": {
                name: round(seconds, 6)
                for name, seconds in sorted(self.subsystems.items())
            },
            "subsystem_shares": {
                name: round(share, 4)
                for name, share in sorted(self.subsystem_shares().items())
            },
            "frames": self.frames,
        }


def profile_call(
    fn: Callable[[], object],
    experiment: str = "",
    top: int = 15,
) -> Tuple[HostProfile, object]:
    """Run ``fn()`` under cProfile; returns ``(profile, fn's result)``.

    Self-time (``tottime``) is what gets attributed — cumulative time
    would double-count every caller/callee pair and pin everything on
    ``run_programs``.
    """
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    stats = pstats.Stats(profiler)
    subsystems: Dict[str, float] = {}
    rows = []
    total_calls = 0
    for (filename, line, function), (
        calls, _primitive, tottime, _cumtime, _callers,
    ) in stats.stats.items():
        subsystem = frame_subsystem(filename)
        subsystems[subsystem] = subsystems.get(subsystem, 0.0) + tottime
        total_calls += calls
        rows.append({
            "function": function,
            "file": filename,
            "line": line,
            "subsystem": subsystem,
            "self_seconds": round(tottime, 6),
            "calls": calls,
        })
    rows.sort(key=lambda r: -r["self_seconds"])
    return HostProfile(
        experiment=experiment,
        wall_seconds=stats.total_tt,
        total_calls=total_calls,
        subsystems=subsystems,
        frames=rows[:top],
    ), result


def _shorten(path: str, limit: int = 44) -> str:
    normalized = path.replace("\\", "/")
    marker = "repro/"
    idx = normalized.rfind(marker)
    short = normalized[idx:] if idx >= 0 else normalized.rsplit("/", 1)[-1]
    return short if len(short) <= limit else "…" + short[-(limit - 1):]


def render_profile(profile: HostProfile) -> str:
    """Human-readable report: subsystem share bars, then top frames."""
    lines = [
        f"host profile: {profile.experiment or '(anonymous)'}",
        f"  wall time  {profile.wall_seconds:.3f}s under cProfile "
        "(tracing inflates absolute time; read shares, not magnitudes)",
        f"  calls      {profile.total_calls:,}",
        "",
        "subsystem self-time shares",
    ]
    shares = profile.subsystem_shares()
    width = 32
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        bar = "#" * max(1 if share > 0 else 0, round(share * width))
        lines.append(
            f"  {name:<12} {share * 100:5.1f}%  "
            f"{profile.subsystems[name]:7.3f}s  {bar}"
        )
    lines.append("")
    lines.append("hottest frames (self time)")
    for row in profile.frames:
        location = f"{_shorten(row['file'])}:{row['line']}"
        lines.append(
            f"  {row['self_seconds']:7.3f}s  {row['subsystem']:<11} "
            f"{row['function']:<28} {location}  x{row['calls']:,}"
        )
    return "\n".join(lines)
