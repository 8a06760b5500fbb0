"""Tests for the per-worker scenario cache (copy-on-write for mutating runners)."""

from __future__ import annotations

import copy

import pytest

from repro.session.config import SessionConfig
from repro.sweep import ResultStore, SweepSpec, run_sweep
from repro.sweep.cache import (
    ENV_FLAG,
    clear_scenario_cache,
    runner_mutates_scenario,
    scenario_cache_enabled,
    scenario_cache_info,
    scenario_data_for,
)
from repro.sweep.runners import resolve_runner

from tests.conftest import process_pool

TINY_SCENARIO = {
    "num_peers": 12,
    "num_categories": 3,
    "documents_per_peer": 4,
    "terms_per_document": 3,
    "category_vocabulary_size": 15,
    "queries_per_peer": 3,
}


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_scenario_cache()
    yield
    clear_scenario_cache()


def tiny_config(**overrides) -> SessionConfig:
    values = {"scale": "quick", "scenario_overrides": dict(TINY_SCENARIO)}
    values.update(overrides)
    return SessionConfig(**values)


def scenario_snapshot(data) -> dict:
    """Everything a fork's mutation could leak into: per-peer versions,
    document ids, index postings, result counts and workload counts, plus the
    generator's random state and document counter."""
    queries = data.network.global_workload().distinct()
    peers = {}
    for peer in data.network.peers():
        peers[peer.peer_id] = (
            peer.version,
            [document.doc_id for document in peer.documents],
            peer.index.posting_sizes(),
            [peer.result_count(query) for query in queries],
            dict(peer.workload.items()),
        )
    return {
        "peers": peers,
        "rng": data.generator.rng.getstate(),
        "doc_counter": data.generator._doc_counter,
    }


class TestMemoisation:
    def test_same_key_hits_the_cache(self):
        first = scenario_data_for(tiny_config(), mutates=False)
        second = scenario_data_for(tiny_config(), mutates=False)
        assert second is first
        info = scenario_cache_info()
        assert info == {"size": 1, "hits": 1, "misses": 1, "copies": 0, "store_hits": 0}

    def test_scenario_aliases_share_an_entry(self):
        first = scenario_data_for(tiny_config(scenario="same-category"), mutates=False)
        second = scenario_data_for(tiny_config(scenario="same_category"), mutates=False)
        assert second is first

    def test_different_seeds_are_different_entries(self):
        overrides = dict(TINY_SCENARIO)
        overrides["seed"] = 99
        first = scenario_data_for(tiny_config(), mutates=False)
        second = scenario_data_for(
            tiny_config(scenario_overrides=overrides), mutates=False
        )
        assert second is not first
        assert scenario_cache_info()["size"] == 2

    def test_cached_build_equals_fresh_build(self):
        from repro.datasets.scenarios import build_scenario

        cached = scenario_data_for(tiny_config(), mutates=False)
        fresh = build_scenario(
            "same-category", tiny_config().experiment_config().scenario
        )
        assert cached.peer_ids() == fresh.peer_ids()
        for peer_id in cached.peer_ids():
            cached_peer = cached.network.peer(peer_id)
            fresh_peer = fresh.network.peer(peer_id)
            assert dict(cached_peer.workload.items()) == dict(fresh_peer.workload.items())


class TestCopyOnWrite:
    def test_mutating_access_returns_a_private_copy(self):
        shared = scenario_data_for(tiny_config(), mutates=False)
        private = scenario_data_for(tiny_config(), mutates=True)
        assert private is not shared
        assert private.network is not shared.network
        assert scenario_cache_info()["copies"] == 1

    def test_copy_does_not_carry_derived_model_caches(self):
        shared = scenario_data_for(tiny_config(), mutates=False)
        shared.network.recall_matrix()  # populate the shared caches
        private = scenario_data_for(tiny_config(), mutates=True)
        assert private.network._matrix is None
        assert private.network._recall_model is None

    def test_mutating_the_copy_leaves_the_pristine_entry_intact(self):
        private = scenario_data_for(tiny_config(), mutates=True)
        peer_id = private.peer_ids()[0]
        private.network.remove_peer(peer_id)
        shared = scenario_data_for(tiny_config(), mutates=False)
        assert peer_id in shared.network

    def test_every_peer_mutator_acts_only_on_the_fork(self):
        shared = scenario_data_for(tiny_config(), mutates=False)
        before = scenario_snapshot(shared)
        fork = scenario_data_for(tiny_config(), mutates=True)
        generator = fork.generator
        category = generator.categories[0]
        peers = fork.network.peers()
        peers[0].add_document(generator.generate_document(category))
        peers[1].replace_documents(generator.generate_documents(category, 2))
        peers[2].replace_document_fraction(0.5, generator.generate_documents(category, 2))
        peers[3].issue_query(generator.generate_query(category), 3)
        peers[4].replace_workload(generator.generate_workload(category, 2))
        peers[5].replace_workload_fraction(0.5, generator.generate_workload(category, 2))
        after = scenario_snapshot(fork)
        assert after["doc_counter"] > before["doc_counter"]
        for peer in peers[:6]:
            assert after["peers"][peer.peer_id] != before["peers"][peer.peer_id]
        assert scenario_snapshot(shared) == before

    def test_forks_share_value_objects_but_not_containers(self):
        shared = scenario_data_for(tiny_config(), mutates=False)
        fork = scenario_data_for(tiny_config(), mutates=True)
        peer_id = shared.peer_ids()[0]
        original, forked = shared.network.peer(peer_id), fork.network.peer(peer_id)
        assert forked is not original
        assert forked.documents is not original.documents
        assert forked.index is not original.index
        assert forked.workload is not original.workload
        assert forked.documents[0] is original.documents[0]
        assert forked.workload.distinct()[0] is original.workload.distinct()[0]
        query = original.workload.distinct()[0]
        document = original.documents[0]
        assert copy.deepcopy(query) is query
        assert copy.deepcopy(document) is document
        assert copy.deepcopy(document.attributes) is document.attributes
        assert copy.copy(query) is query

    def test_runner_mutation_flags(self):
        assert runner_mutates_scenario(resolve_runner("maintain"))
        assert runner_mutates_scenario(resolve_runner("maintenance-point"))
        assert runner_mutates_scenario(resolve_runner("figure4-point"))
        assert not runner_mutates_scenario(resolve_runner("discover"))
        assert runner_mutates_scenario(object())  # undeclared runners are mutating


class TestEnvironmentSwitch:
    def test_flag_disables_the_cache(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "0")
        assert not scenario_cache_enabled()
        monkeypatch.setenv(ENV_FLAG, "off")
        assert not scenario_cache_enabled()
        monkeypatch.setenv(ENV_FLAG, "1")
        assert scenario_cache_enabled()
        monkeypatch.delenv(ENV_FLAG)
        assert scenario_cache_enabled()


class TestSweepParity:
    """Worker-count / cache-state independence of sweep results."""

    def maintenance_spec(self) -> SweepSpec:
        task = {
            "config": {
                "scale": "quick",
                "initial": "category",
                "scenario_overrides": dict(TINY_SCENARIO),
            },
            "runner": "maintenance-point",
            "options": {
                "update_target": "workload",
                "update_kind": "updated-peers",
                "fraction": 0.5,
            },
        }
        return SweepSpec(tasks=(task, task, task))

    def test_mutating_runner_parity_across_workers_with_cache(self):
        spec = self.maintenance_spec()
        serial = run_sweep(spec, executor="serial")
        pooled = run_sweep(spec, executor=process_pool(3))
        assert [r.to_dict() for r in serial.results] == [
            r.to_dict() for r in pooled.results
        ]
        # In the serial run the three identical tasks shared one cache entry.
        info = scenario_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 2
        assert info["copies"] == 3

    def test_cache_on_equals_cache_off(self):
        spec = SweepSpec(
            strategies=("selfish", "altruistic"),
            scale="quick",
            overrides={"scenario_overrides": dict(TINY_SCENARIO)},
            seeds=(7, 11),
        )
        with_cache = run_sweep(spec, executor="serial")
        clear_scenario_cache()
        without_cache = run_sweep(spec, executor="serial", scenario_cache=False)
        assert [r.to_dict() for r in with_cache.results] == [
            r.to_dict() for r in without_cache.results
        ]
        assert scenario_cache_info()["misses"] == 0  # cache really was off

    def drift_spec(self) -> SweepSpec:
        """Every cluster drift model x both strategies as maintenance-point tasks."""
        drifts = (
            {"model": "workload-full", "options": {"peer_fraction": 0.5}},
            {"model": "workload-fraction", "options": {"fraction": 0.5}},
            {"model": "content-full", "options": {"peer_fraction": 0.5}},
            {"model": "content-fraction", "options": {"fraction": 0.5}},
        )
        tasks = tuple(
            {
                "config": {
                    "scale": "quick",
                    "strategy": strategy,
                    "initial": "category",
                    "scenario_overrides": dict(TINY_SCENARIO),
                },
                "runner": "maintenance-point",
                "options": {"dynamics": drift},
            }
            for drift in drifts
            for strategy in ("selfish", "altruistic")
        )
        return SweepSpec(tasks=tasks)

    def test_maintenance_drifts_cache_on_equals_cache_off(self, tmp_path):
        spec = self.drift_spec()
        with_cache = [r.to_dict() for r in run_sweep(spec, executor="serial").results]
        info = scenario_cache_info()
        assert (info["misses"], info["copies"]) == (1, 8)
        assert all(result["extras"]["drift"] for result in with_cache)
        clear_scenario_cache()
        without_cache = run_sweep(spec, executor="serial", scenario_cache=False)
        assert with_cache == [r.to_dict() for r in without_cache.results]

        store = ResultStore(tmp_path / "store")
        run_sweep(spec, executor="serial", store=store)  # fills the scenario tier
        clear_scenario_cache()
        from_store = run_sweep(spec, executor="serial", store=store, resume=False)
        assert scenario_cache_info()["store_hits"] == 1
        assert with_cache == [r.to_dict() for r in from_store.results]


class TestSharingSemantics:
    def test_grid_siblings_share_but_replications_do_not(self):
        """Same-seed grid combinations hit one entry; replication seeds are distinct keys."""
        spec = SweepSpec(
            strategies=("selfish", "altruistic"),
            scale="quick",
            overrides={"scenario_overrides": dict(TINY_SCENARIO)},
            replications=2,
        )
        run_sweep(spec, executor="serial")
        info = scenario_cache_info()
        # 2 strategies x 2 replication seeds = 4 tasks over 2 distinct worlds.
        assert info["misses"] == 2
        assert info["hits"] == 2
