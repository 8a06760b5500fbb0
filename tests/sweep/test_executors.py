"""Tests for the pluggable sweep executors: resolution, registry, event
ordering contract, cross-executor parity and the deprecation shims."""

from __future__ import annotations

import json
import warnings

import pytest

from repro.core import recall_matrix
from repro.errors import ConfigurationError, UnknownComponentError
from repro.events import EventHooks
from repro.registry import executor_registry, register_executor
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.executors import (
    ChunkedStreamingExecutor,
    ExecutorContext,
    ProcessPoolSweepExecutor,
    SerialExecutor,
    SweepExecutor,
    TaskOutcome,
    execute_task,
    executor_from_any,
    resolve_executor,
)
from tests.conftest import process_pool

TINY_SCENARIO = {
    "num_peers": 12,
    "num_categories": 3,
    "documents_per_peer": 4,
    "terms_per_document": 3,
    "category_vocabulary_size": 15,
    "queries_per_peer": 3,
}


def tiny_spec(**overrides) -> SweepSpec:
    values = {
        "strategies": ("selfish", "altruistic"),
        "scale": "quick",
        "overrides": {"scenario_overrides": dict(TINY_SCENARIO)},
        "seeds": (7, 11),
    }
    values.update(overrides)
    return SweepSpec(**values)


ALL_EXECUTORS = (
    SerialExecutor(),
    ProcessPoolSweepExecutor(max_workers=2),
    ChunkedStreamingExecutor(max_workers=2, window=2),
)


class TestRegistry:
    def test_builtin_executors_are_registered(self):
        names = executor_registry.names()
        for name in ("serial", "process-pool", "chunked-streaming"):
            assert name in names

    def test_aliases_resolve_to_the_same_component(self):
        assert executor_registry.canonical_name("inline") == "serial"
        assert executor_registry.canonical_name("pool") == "process-pool"
        assert executor_registry.canonical_name("chunked") == "chunked-streaming"

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownComponentError):
            executor_registry.get("quantum")

    def test_custom_executor_is_selectable_by_name(self):
        @register_executor("test-noop-executor", replace=True)
        class NoopExecutor(SerialExecutor):
            name = "test-noop-executor"

        try:
            resolved = resolve_executor("test-noop-executor")
            assert isinstance(resolved, NoopExecutor)
            result = run_sweep(tiny_spec(seeds=(7,)), executor="test-noop-executor")
            assert len(result) == 2
        finally:
            executor_registry.unregister("test-noop-executor")


class TestResolution:
    def test_default_is_serial(self):
        assert isinstance(resolve_executor(), SerialExecutor)
        assert isinstance(resolve_executor(workers=1), SerialExecutor)

    def test_workers_map_to_a_process_pool(self):
        executor = resolve_executor(workers=3)
        assert isinstance(executor, ProcessPoolSweepExecutor)
        assert executor.workers == 3

    def test_name_and_spec_forms(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        executor = resolve_executor(
            {"name": "chunked-streaming", "options": {"max_workers": 2, "window": 5}}
        )
        assert isinstance(executor, ChunkedStreamingExecutor)
        assert executor.window_size(2) == 5

    def test_instance_passes_through(self):
        executor = SerialExecutor()
        assert resolve_executor(executor) is executor

    def test_executor_and_workers_are_mutually_exclusive(self):
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            resolve_executor("serial", workers=2)

    def test_bad_spec_keys_raise(self):
        with pytest.raises(ConfigurationError, match="unknown executor spec keys"):
            resolve_executor({"name": "serial", "max_workers": 2})
        with pytest.raises(ConfigurationError, match="'name'"):
            resolve_executor({"options": {}})

    def test_bad_worker_counts_raise(self):
        with pytest.raises(ConfigurationError, match="workers"):
            resolve_executor(workers=0)
        with pytest.raises(ConfigurationError, match="max_workers"):
            ProcessPoolSweepExecutor(max_workers=0)
        with pytest.raises(ConfigurationError, match="window"):
            ChunkedStreamingExecutor(window=0)

    def test_executor_from_any_gives_executor_precedence(self):
        executor = executor_from_any("serial", 8)
        assert isinstance(executor, SerialExecutor)
        pool = executor_from_any(None, 4)
        assert isinstance(pool, ProcessPoolSweepExecutor)
        assert pool.workers == 4

    def test_describe_strings(self):
        assert SerialExecutor().describe() == "serial"
        assert ProcessPoolSweepExecutor(max_workers=3).describe() == "process-pool(3)"
        assert (
            ChunkedStreamingExecutor(max_workers=2, window=6).describe()
            == "chunked-streaming(2, window=6)"
        )

    def test_chunked_window_never_drops_below_workers(self):
        executor = ChunkedStreamingExecutor(max_workers=4, window=2)
        assert executor.window_size(4) == 4
        assert ChunkedStreamingExecutor(max_workers=4).window_size(4) == 8


class TestEventOrderingContract:
    """The five rules documented in repro.sweep.executors."""

    @staticmethod
    def _record(executor: SweepExecutor):
        spec = tiny_spec()
        events = []
        hooks = EventHooks()
        hooks.on_task_started(lambda event: events.append(("start", event.index)))
        hooks.on_task_finished(lambda event: events.append(("finish", event.index)))
        result = run_sweep(spec, executor=executor, hooks=hooks)
        return events, len(result)

    @pytest.mark.parametrize(
        "executor", ALL_EXECUTORS, ids=lambda executor: executor.name
    )
    def test_exactly_one_start_and_finish_per_task_and_start_precedes_finish(
        self, executor
    ):
        events, total = self._record(executor)
        starts = [index for kind, index in events if kind == "start"]
        finishes = [index for kind, index in events if kind == "finish"]
        assert sorted(starts) == list(range(total))
        assert sorted(finishes) == list(range(total))
        for index in range(total):
            assert events.index(("start", index)) < events.index(("finish", index))

    @pytest.mark.parametrize(
        "executor", ALL_EXECUTORS, ids=lambda executor: executor.name
    )
    def test_starts_are_in_task_index_order(self, executor):
        events, total = self._record(executor)
        starts = [index for kind, index in events if kind == "start"]
        assert starts == list(range(total))

    def test_serial_window_is_one(self):
        events, total = self._record(SerialExecutor())
        expected = []
        for index in range(total):
            expected.extend([("start", index), ("finish", index)])
        assert events == expected

    def test_chunked_in_flight_never_exceeds_the_window(self):
        window = 2
        events, _ = self._record(ChunkedStreamingExecutor(max_workers=2, window=window))
        in_flight = 0
        for kind, _index in events:
            in_flight += 1 if kind == "start" else -1
            assert 0 <= in_flight <= window

    def test_durations_are_worker_side_for_every_executor(self):
        for executor in ALL_EXECUTORS:
            result = run_sweep(tiny_spec(seeds=(7,)), executor=executor)
            assert len(result.task_durations) == len(result)
            assert all(duration > 0 for duration in result.task_durations)


class TestEventOrderingUnderFaults:
    """The amended contract: one start per *attempt*, exactly one terminal
    finish-or-quarantine per task, first-attempt starts in index order."""

    @staticmethod
    def _record(executor: SweepExecutor, *, retries: int, faults) -> dict:
        events = []
        hooks = EventHooks()
        hooks.on_task_started(
            lambda event: events.append(("start", event.index, event.attempt))
        )
        hooks.on_task_finished(
            lambda event: events.append(("finish", event.index, event.attempt))
        )
        hooks.on_task_failed(
            lambda event: events.append(("failed", event.index, event.attempt))
        )
        hooks.on_task_retried(
            lambda event: events.append(("retried", event.index, event.attempt))
        )
        hooks.on_task_quarantined(
            lambda event: events.append(("quarantined", event.index, None))
        )
        result = run_sweep(
            tiny_spec(), executor=executor, hooks=hooks, retries=retries, faults=faults
        )
        return {"events": events, "total": len(result.tasks)}

    @staticmethod
    def _assert_contract(recorded: dict) -> None:
        events, total = recorded["events"], recorded["total"]
        for index in range(total):
            starts = [e for e in events if e[0] == "start" and e[1] == index]
            retried = [e for e in events if e[0] == "retried" and e[1] == index]
            terminals = [
                e for e in events if e[0] in ("finish", "quarantined") and e[1] == index
            ]
            # One start per attempt: the first attempt plus one per re-enqueue.
            assert len(starts) == 1 + len(retried)
            assert [attempt for _kind, _index, attempt in starts] == list(
                range(1, len(starts) + 1)
            )
            # Exactly one terminal event, after the first start.
            assert len(terminals) == 1
            assert events.index(starts[0]) < events.index(terminals[0])
        first_starts = [e[1] for e in events if e[0] == "start" and e[2] == 1]
        assert first_starts == list(range(total))

    @pytest.mark.parametrize(
        "executor", ALL_EXECUTORS, ids=lambda executor: executor.name
    )
    def test_contract_holds_with_a_retried_task(self, executor):
        from repro.sweep import FaultPlan, FaultRule

        plan = FaultPlan(rules=(FaultRule(fault="task-exception", index=0, attempts=(1,)),))
        recorded = self._record(executor, retries=1, faults=plan)
        self._assert_contract(recorded)
        events = recorded["events"]
        assert ("retried", 0, 2) in events
        assert ("finish", 0, 2) in events

    @pytest.mark.parametrize(
        "executor", ALL_EXECUTORS, ids=lambda executor: executor.name
    )
    def test_contract_holds_with_a_quarantined_task(self, executor):
        from repro.sweep import FaultPlan, FaultRule

        plan = FaultPlan(rules=(FaultRule(fault="task-exception", index=2, attempts=()),))
        recorded = self._record(executor, retries=1, faults=plan)
        self._assert_contract(recorded)
        events = recorded["events"]
        assert ("quarantined", 2, None) in events
        assert ("finish", 2, 1) not in events
        assert len([e for e in events if e[0] == "failed" and e[1] == 2]) == 2

    @pytest.mark.parametrize(
        "executor", ALL_EXECUTORS, ids=lambda executor: executor.name
    )
    def test_fatal_misconfiguration_aborts_instead_of_quarantining(self, executor):
        # A ConfigurationError is a deterministic user error, not a task
        # fault: no retry budget is spent and the sweep raises.
        spec = tiny_spec(
            workloads=("uniform",),
            runner="traffic",
            runner_options={"after": "tea-break", "num_events": 50},
        )
        with pytest.raises(ConfigurationError, match="phase"):
            run_sweep(spec, executor=executor, retries=3)

    @pytest.mark.parametrize(
        "executor", ALL_EXECUTORS[1:], ids=lambda executor: executor.name
    )
    def test_contract_holds_through_a_pool_crash(self, executor):
        from repro.sweep import FaultPlan, FaultRule

        plan = FaultPlan(rules=(FaultRule(fault="worker-kill", index=1, attempts=(1,)),))
        recorded = self._record(executor, retries=0, faults=plan)
        self._assert_contract(recorded)
        crash_failed = [
            e for e in recorded["events"] if e[0] == "failed"
        ]
        assert crash_failed  # at least the killed task reported a failure


class TestParity:
    def test_all_executors_produce_byte_identical_results(self):
        spec = tiny_spec()
        reference = run_sweep(spec, executor="serial")
        for executor in ALL_EXECUTORS[1:]:
            other = run_sweep(spec, executor=executor)
            assert [r.to_dict() for r in other.results] == [
                r.to_dict() for r in reference.results
            ]

    def test_result_carries_executor_metadata(self):
        result = run_sweep(tiny_spec(seeds=(7,)), executor="serial")
        assert result.executor == "serial"
        assert result.executed == len(result)
        assert result.loaded == 0


class TestPoolAboveTheLabelsThreshold:
    """A pool sweep of large scenarios builds no dense recall matrix in the coordinator."""

    def test_process_pool_builds_no_dense_matrix_and_matches_serial(
        self, monkeypatch, dense_builds
    ):
        from repro.sweep.cache import clear_scenario_cache

        # 40 peers count as "large" once the one threshold is lowered to 16.
        monkeypatch.setattr(recall_matrix, "LABELS_THRESHOLD", 16)
        spec = tiny_spec(
            overrides={"scenario_overrides": {**TINY_SCENARIO, "num_peers": 40}}
        )
        clear_scenario_cache()
        try:
            pooled = run_sweep(spec, executor=process_pool(2))
            assert dense_builds == []
            serial = run_sweep(spec, executor="serial")
        finally:
            clear_scenario_cache()
        assert len(pooled) == len(serial) == 4
        for pooled_run, serial_run in zip(pooled.results, serial.results):
            assert json.dumps(pooled_run.to_dict(), sort_keys=True) == json.dumps(
                serial_run.to_dict(), sort_keys=True
            )


class TestDeprecations:
    def test_package_level_execute_task_removed(self):
        import repro.sweep

        with pytest.raises(AttributeError):
            repro.sweep.execute_task

    def test_engine_and_executors_modules_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.sweep.engine import execute_task as from_engine
            from repro.sweep.executors import execute_task as from_executors
        assert from_engine is from_executors

    def test_unknown_package_attribute_still_raises(self):
        import repro.sweep

        with pytest.raises(AttributeError):
            repro.sweep.does_not_exist


class TestExecuteTaskDirectly:
    def test_execute_task_runs_one_task(self):
        task = tiny_spec(seeds=(7,)).validate()[0]
        result, duration = execute_task(task)
        assert result.converged in (True, False)
        assert result.protocol_result is None
        assert duration > 0

    def test_outcome_tuple_shape(self):
        task = tiny_spec(seeds=(7,)).validate()[0]
        outcomes = list(SerialExecutor().run([task], ExecutorContext()))
        assert len(outcomes) == 1
        outcome = outcomes[0]
        assert isinstance(outcome, TaskOutcome)
        assert outcome.task is task
        assert outcome.duration > 0
