"""How a sweep task gets its recall matrix, under every executor.

A task builds its matrix one way, wherever it runs: the scenario comes from
:func:`~repro.sweep.cache.scenario_data_for` in the process that executes the
task, and the matrix from :meth:`~repro.peers.network.PeerNetwork.recall_matrix`,
which picks the representation by population.  The coordinator of a pool
sweep builds neither, so at or above the labels threshold no process builds
a dense ``|P| x |P|`` array for a runner that reads none, and results stay
byte-identical to a serial run.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import recall_matrix
from repro.core.recall_matrix import WeightedRecallMatrix
from repro.datasets.scenarios import build_scenario
from repro.registry import scenario_registry
from repro.session.config import SessionConfig
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.cache import clear_scenario_cache, scenario_cache_info, scenario_data_for
from repro.sweep.executors import ChunkedStreamingExecutor
from tests.conftest import process_pool

TINY_SCENARIO = {
    "num_peers": 12,
    "num_categories": 3,
    "documents_per_peer": 4,
    "terms_per_document": 3,
    "category_vocabulary_size": 15,
    "queries_per_peer": 3,
}

#: 40 peers: "large" once the labels threshold is lowered to 16.
LARGE_SCENARIO = {**TINY_SCENARIO, "num_peers": 40}

VIEWS = ("local_view", "global_view", "service_matrix")


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_scenario_cache()
    yield
    clear_scenario_cache()


@pytest.fixture
def low_threshold(monkeypatch):
    monkeypatch.setattr(recall_matrix, "LABELS_THRESHOLD", 16)


def config(scenario=TINY_SCENARIO, **overrides) -> SessionConfig:
    values = {"scale": "quick", "scenario_overrides": dict(scenario)}
    values.update(overrides)
    return SessionConfig(**values)


def spec(scenario=TINY_SCENARIO, strategies=("selfish", "altruistic")) -> SweepSpec:
    return SweepSpec(
        strategies=strategies,
        scale="quick",
        overrides={"scenario_overrides": dict(scenario)},
        seeds=(7, 11),
    )


def payload(sweep_result) -> list:
    return [json.dumps(result.to_dict(), sort_keys=True) for result in sweep_result.results]


def fresh_network(session_config: SessionConfig):
    name = scenario_registry.canonical_name(session_config.scenario)
    return build_scenario(name, session_config.experiment_config().scenario).network


class TestTaskMatrix:
    def test_cached_scenario_builds_the_same_dense_matrix_as_a_fresh_build(self):
        cached = scenario_data_for(config(), mutates=False).network.recall_matrix()
        fresh = fresh_network(config()).recall_matrix()
        assert cached.mode == fresh.mode == "dense"
        for view in VIEWS:
            assert np.array_equal(getattr(cached, view)(), getattr(fresh, view)()), view

    def test_above_the_threshold_the_task_matrix_stays_factored(
        self, low_threshold, dense_builds
    ):
        network = scenario_data_for(config(LARGE_SCENARIO), mutates=False).network
        matrix = network.recall_matrix()
        assert matrix.mode == "factored" and not matrix.has_dense
        assert dense_builds == []
        dense = WeightedRecallMatrix(
            network.recall_model(), network.workloads(), network.peer_ids(), mode="dense"
        )
        for view in VIEWS:
            assert np.array_equal(getattr(matrix, view)(), getattr(dense, view)()), view

    def test_grid_siblings_share_one_matrix(self):
        first = scenario_data_for(config(strategy="selfish"), mutates=False)
        second = scenario_data_for(config(strategy="altruistic"), mutates=False)
        assert second.network is first.network
        assert second.network.recall_matrix() is first.network.recall_matrix()

    def test_a_mutating_task_builds_its_own_equal_matrix(self):
        shared = scenario_data_for(config(), mutates=False).network.recall_matrix()
        private = scenario_data_for(config(), mutates=True).network.recall_matrix()
        assert private is not shared
        for view in VIEWS:
            assert np.array_equal(getattr(private, view)(), getattr(shared, view)()), view


class TestSweepsAboveTheThreshold:
    @pytest.mark.parametrize(
        "executor",
        ["serial", ChunkedStreamingExecutor(max_workers=2, window=2), process_pool(1)],
        ids=["serial", "chunked-streaming", "process-pool-1"],
    )
    def test_sweep_builds_no_dense_matrix_here_and_matches_serial(
        self, executor, low_threshold, dense_builds
    ):
        # The selfish runner reads no dense array (the altruistic contribution
        # measure does), and a single worker runs its tasks in this process,
        # so the spy sees the task side of the sweep too.
        large = spec(LARGE_SCENARIO, strategies=("selfish",))
        result = run_sweep(large, executor=executor)
        assert dense_builds == []
        clear_scenario_cache()
        reference = run_sweep(large, executor="serial")
        assert len(result) == 2
        assert payload(result) == payload(reference)

    def test_pool_coordinator_builds_no_scenario(self):
        result = run_sweep(spec(), executor=process_pool(2))
        assert not result.failures and len(result) == 4
        info = scenario_cache_info()
        assert info["size"] == info["misses"] == info["hits"] == 0


class TestRemovedSweepOptions:
    @pytest.mark.parametrize("keyword", ["shm", "workers"])
    def test_run_sweep_rejects_the_keyword(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            run_sweep(spec(), **{keyword: 2})
