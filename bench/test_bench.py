"""Self-tests of the benchmark: ``python -m pytest bench -q`` from the
repository root.  The workloads run in-process at reduced size."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from bench import harness, tracing, worker, workloads  # noqa: E402

DECLARED = harness.declaration()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def reps():
    """One untraced and one traced rep of every workload, shrunk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "SOAK_REQUESTS", 2_000)
        mp.setattr(workloads, "runall_names", lambda: ["topology", "table3", "permutations"])
        return {
            name: [worker.run(name, 11, trace) for trace in (False, True)]
            for name in workloads.WORKLOADS
        }


def test_declaration_within_limits():
    names = [w["name"] for w in DECLARED["workloads"]]
    e2e = DECLARED["end_to_end"]
    layers = DECLARED["per_layer"]
    assert 2 <= len(names) <= 8
    assert 1 <= len(e2e) <= 16
    assert len(layers) * len(names) <= 128
    all_names = names + [m["name"] for m in e2e + layers]
    assert all(NAME.fullmatch(n) for n in all_names)
    assert len(set(all_names)) == len(all_names)
    bounds = {m["name"]: m["bound"] for m in e2e}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(bounds.values())


def test_declared_workloads_exist_and_are_pinned():
    names = {w["name"] for w in DECLARED["workloads"]}
    assert names == set(workloads.WORKLOADS)
    assert names == set(json.loads(harness.PINS.read_text()))


def test_every_declared_metric_is_emitted(reps):
    for name, (plain, traced) in reps.items():
        e2e, layers = harness.reduce_reps([plain, traced])
        assert [m["name"] for m in DECLARED["end_to_end"]] == list(e2e), name
        assert {m["name"] for m in DECLARED["per_layer"]} == set(layers), name


def test_traced_and_untraced_outputs_are_identical(reps):
    for name, (plain, traced) in reps.items():
        assert harness._identity(plain) == harness._identity(traced), name
        assert plain["failed"] == 0 and plain["attempted"] > 0, name


def test_sampler_attributes_samples_to_named_layers(reps):
    for name, (_plain, traced) in reps.items():
        samples = traced["samples"]
        total = sum(samples.values())
        assert total > 0, name
        assert samples[tracing.UNMAPPED] <= 0.05 * total, name


def test_every_simulator_package_has_a_layer():
    for package in (ROOT / "src" / "repro").iterdir():
        if (package / "__init__.py").is_file():
            assert tracing.layer_of(str(package / "__init__.py")) != tracing.UNMAPPED, package
    assert tracing.layer_of(str(ROOT / "src/repro/core/engine.py")) == "engine"
    assert tracing.layer_of("/usr/lib/python3/json/encoder.py") == "other"


def test_phase_clock_cuts_calibrations_out_of_the_body():
    clock = worker.PhaseClock()
    assert not clock.due()
    before = clock.body_clock()
    clock.checkpoint()
    assert len(clock.phases) == 1 and len(clock.calib_s) == 2
    assert clock.body_clock() - before < clock.calib_s[-1] / 2


def test_reference_times_undo_a_slow_host():
    # every calibration twice its reference time: the host ran at half speed
    slow = 2 * harness.REFERENCE_CALIB_S
    rep = {"setup_s": 0.6, "phases": [(2.0, 2.2), (4.0, 4.0)], "calib_s": [slow] * 3}
    assert harness.reference_times(rep) == pytest.approx((0.3, 3.0, 3.1))


def test_span_self_time_subtracts_children():
    spans = tracing.Spans(clock=None)
    spans.records += [("a", 0.0, 10.0, -1), ("b", 2.0, 5.0, 0), ("b", 6.0, 7.0, 0)]
    assert spans.self_times() == {"a": 6.0, "b": 4.0}


def test_agree_verdicts():
    def doc(median, spread):
        s = {"median": median, "q1": median - spread, "q3": median + spread, "n": 10}
        return {"workloads": {"w": {"end_to_end": {"cpu_s": s}}}}

    metric = [{"name": "cpu_s", "bound": 0.1}]
    verdicts = lambda a, b: [row[2] for row in harness.agree(a, b, metric)]  # noqa: E731
    assert verdicts(doc(1.0, 0.01), doc(1.05, 0.01)) == ["agree"]
    assert verdicts(doc(1.0, 0.01), doc(1.3, 0.01)) == ["differs"]
    assert verdicts(doc(1.0, 0.01), doc(0.8, 0.01)) == ["differs"]
    assert verdicts(doc(1.0, 0.2), doc(1.3, 0.01)) == ["unresolved"]


def test_fails_without_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "rk-bare", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
