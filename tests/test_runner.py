"""Tests for the experiment registry, cache, and parallel driver."""

import pytest

from repro.core.config import CedarConfig
from repro.experiments import runner as runner_mod
from repro.experiments.runner import (
    REGISTRY,
    Experiment,
    cache_key,
    cache_lookup,
    cache_store,
    experiment_names,
    render_all,
    run_all,
    run_experiment,
)


class TestRegistry:
    def test_every_artifact_is_registered(self):
        expected = {
            "topology",
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "fig3",
            "ppt4",
            "overheads",
            "characterization",
            "scaling",
            "permutations",
            "multiprogramming",
            "ablation-network",
            "ablation-memory",
            "degradation",
            "soak",
        }
        assert set(experiment_names()) == expected
        assert len(expected) == 18

    def test_registry_preserves_insertion_order(self):
        names = experiment_names()
        assert names[0] == "topology"
        assert names[1:7] == [f"table{i}" for i in range(1, 7)]

    def test_fast_kwargs_override(self):
        table2 = REGISTRY["table2"]
        assert table2.arguments(fast=False) == {"strips": 10}
        assert table2.arguments(fast=True) == {"strips": 6}

    def test_experiments_without_fast_mode_keep_kwargs(self):
        table3 = REGISTRY["table3"]
        assert table3.arguments(fast=True) == table3.arguments(fast=False)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            runner_mod.register(
                Experiment("topology", "again", lambda: "")
            )

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="no experiment"):
            runner_mod.experiment("nope")
        with pytest.raises(KeyError):
            run_all(names=["nope"])


class TestCacheKey:
    def test_key_is_deterministic(self):
        assert cache_key("table1", {"a_strips": 2}) == cache_key(
            "table1", {"a_strips": 2}
        )

    def test_key_varies_with_kwargs_and_config(self):
        base = cache_key("table1", {"a_strips": 2})
        assert base != cache_key("table1", {"a_strips": 1})
        assert base != cache_key("table2", {"a_strips": 2})
        assert base != cache_key(
            "table1", {"a_strips": 2}, config=CedarConfig(clusters=2)
        )

    def test_stored_keys_stay_addressable(self):
        """Keys are pinned: a change to the key material orphans every
        stored entry unless ``CACHE_VERSION`` moves with it."""
        assert cache_key("topology", {}) == (
            "43e1300a64fc63d21b2e9c9270e67be0660d3c9cce1afb71110a8e9995e6272a"
        )
        assert cache_key("table1", {"fast": True}) == (
            "ea4eaf48d376dcd151567559e0ba623bcadc599ed09fc357c09bdaa8762f27df"
        )


class TestCacheStore:
    def test_round_trip(self, tmp_path):
        key = cache_key("topology", {})
        assert cache_lookup(tmp_path, "topology", key) is None
        cache_store(tmp_path, "topology", key, "rendered text")
        hit = cache_lookup(tmp_path, "topology", key)
        assert hit.entry["output"] == "rendered text"

    def test_entries_live_in_the_sharded_store(self, tmp_path):
        from repro.store import ResultStore

        key = cache_key("topology", {})
        cache_store(tmp_path, "topology", key, "text")
        path = ResultStore(tmp_path).entry_path(key)
        assert path.is_file() and path.parent.name == key[:2]

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        from repro.store import ResultStore

        key = cache_key("topology", {})
        cache_store(tmp_path, "topology", key, "text")
        ResultStore(tmp_path).entry_path(key).write_text("{not json")
        with pytest.warns(UserWarning, match="corrupt store entry"):
            assert cache_lookup(tmp_path, "topology", key) is None


class TestDriver:
    def test_run_experiment_returns_rendered_output(self):
        result = run_experiment("topology")
        assert result.name == "topology"
        assert not result.cached
        assert "Cedar" in result.output

    def test_cached_rerun_replays_identical_output(self, tmp_path):
        cold = run_experiment("overheads", cache_dir=tmp_path)
        warm = run_experiment("overheads", cache_dir=tmp_path)
        assert not cold.cached and warm.cached
        assert warm.output == cold.output

    def test_cache_distinguishes_fast_mode(self, tmp_path):
        # fast kwargs differ for table2, so a fast run must not reuse
        # (or poison) the full-size entry.
        key_full = cache_key("table2", REGISTRY["table2"].arguments(False))
        key_fast = cache_key("table2", REGISTRY["table2"].arguments(True))
        assert key_full != key_fast

    def test_run_all_matches_individual_runs(self, tmp_path):
        names = ["topology", "overheads"]
        batch = run_all(names=names, cache_dir=tmp_path)
        assert [r.name for r in batch] == names
        assert batch[0].output == run_experiment("topology").output
        rendered = render_all(batch)
        assert rendered == batch[0].output + "\n\n" + batch[1].output

    def test_run_all_parallel_matches_serial(self, tmp_path):
        names = ["topology", "overheads", "multiprogramming"]
        serial = run_all(names=names)
        parallel = run_all(names=names, jobs=2)
        assert [r.output for r in parallel] == [r.output for r in serial]

    def test_run_all_mixes_hits_and_misses(self, tmp_path):
        run_experiment("topology", cache_dir=tmp_path)
        results = run_all(names=["topology", "overheads"], cache_dir=tmp_path)
        assert results[0].cached and not results[1].cached
