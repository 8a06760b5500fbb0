"""Sweeping drift grids: the dynamics axis through the parallel engine.

The ISSUE's acceptance criterion: ``repro sweep --runner maintain`` with a
JSON dynamics spec sweeps a drift grid (scenario-(a) peers-updated axis x
seeds) in parallel, byte-identical for ``workers=1`` vs ``workers=4``.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError, UnknownComponentError
from repro.sweep.engine import run_sweep
from repro.sweep.spec import SweepSpec

from tests.conftest import process_pool

#: The scenario-(a) peers-updated axis of Figure 2, as a dynamics grid.
PEERS_UPDATED_AXIS = tuple(
    {"model": "workload-full", "options": {"peer_fraction": fraction}, "start": 1}
    for fraction in (0.0, 0.5, 1.0)
)


def drift_grid_spec(**overrides):
    values = dict(
        scale="quick",
        overrides={"initial": "category", "scenario": "same-category"},
        runner="maintain",
        runner_options={"periods": 2},
        dynamics=PEERS_UPDATED_AXIS,
        seeds=(7, 11),
    )
    values.update(overrides)
    return SweepSpec(**values)


class TestDynamicsAxis:
    def test_expansion_crosses_dynamics_with_seeds(self):
        tasks = drift_grid_spec().expand()
        assert len(tasks) == len(PEERS_UPDATED_AXIS) * 2
        seen = [
            (task.config["dynamics"]["options"]["peer_fraction"], task.seed)
            for task in tasks
        ]
        assert seen == [(f, s) for f in (0.0, 0.5, 1.0) for s in (7, 11)]

    def test_spec_round_trips_through_json(self):
        spec = drift_grid_spec()
        restored = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored.dynamics == spec.dynamics
        assert [t.to_dict() for t in restored.expand()] == [
            t.to_dict() for t in spec.expand()
        ]

    def test_validate_rejects_unknown_drift_models(self):
        spec = drift_grid_spec(dynamics=({"model": "quantum-drift"},))
        with pytest.raises(UnknownComponentError, match="drift model"):
            spec.validate()

    def test_validate_rejects_bad_drift_options(self):
        spec = drift_grid_spec(
            dynamics=({"model": "workload-full", "options": {"warp": 1}},)
        )
        with pytest.raises(ConfigurationError, match="invalid options"):
            spec.validate()

    def test_validate_checks_runner_option_dynamics_too(self):
        spec = drift_grid_spec(
            dynamics=(), runner_options={"periods": 1, "dynamics": {"model": "quantum"}}
        )
        with pytest.raises(UnknownComponentError, match="drift model"):
            spec.validate()


class TestParallelDriftGrid:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_sweep(drift_grid_spec(), executor="serial")

    def test_drift_grid_is_byte_identical_across_worker_counts(self, serial):
        pooled = run_sweep(drift_grid_spec(), executor=process_pool(4))
        serial_payloads = [result.to_dict() for result in serial.results]
        pooled_payloads = [result.to_dict() for result in pooled.results]
        assert serial_payloads == pooled_payloads

    def test_drift_actually_perturbs_the_swept_sessions(self, serial):
        by_fraction = {}
        for task, result in zip(serial.tasks, serial.results):
            fraction = task.config["dynamics"]["options"]["peer_fraction"]
            by_fraction.setdefault(fraction, []).append(result)
        for result in by_fraction[0.0]:
            assert result.extras["drift"] == []  # peer_fraction 0 is a no-op
        for result in by_fraction[1.0]:
            reports = result.extras["drift"]
            assert [entry["period"] for entry in reports] == [1]
            assert reports[0]["model"] == "workload-full"
        # a fully drifted cluster costs more than an undisturbed one
        undisturbed = min(r.final_social_cost for r in by_fraction[0.0])
        drifted = max(r.final_social_cost for r in by_fraction[1.0])
        assert drifted > undisturbed

    def test_results_differ_across_seeds_for_partial_drift(self, serial):
        # At peer_fraction 0.5 the outcome depends on which replacement
        # queries the seed stream samples (a full switch collapses to the
        # category structure, so 1.0 can coincide across seeds).
        drifted = [
            result
            for task, result in zip(serial.tasks, serial.results)
            if task.config["dynamics"]["options"]["peer_fraction"] == 0.5
        ]
        traces = {tuple(result.social_cost_trace) for result in drifted}
        assert len(traces) == 2  # one distinct outcome per seed


class TestMaintenancePointRunner:
    """The figure runner accepts declarative-dynamics-only invocations."""

    def _run(self, task):
        spec = SweepSpec(tasks=(task,))
        return run_sweep(spec, executor="serial").results[0]

    def test_dynamics_only_options_work_without_legacy_keys(self):
        result = self._run(
            {
                "config": {"scale": "quick", "initial": "category"},
                "runner": "maintenance-point",
                "options": {
                    "dynamics": {
                        "model": "workload-full",
                        "options": {"peer_fraction": 0.5},
                    }
                },
            }
        )
        assert result.extras["drift"][0]["model"] == "workload-full"
        assert "update_target" not in result.extras
        assert result.extras["social_cost_before"] > 0.0

    def test_schedule_shaped_config_dynamics_are_accepted(self):
        # the exact shape SessionConfig documents (schedule keys included)
        result = self._run(
            {
                "config": {
                    "scale": "quick",
                    "initial": "category",
                    "dynamics": {
                        "model": "workload-full",
                        "options": {"peer_fraction": 0.5},
                        "start": 1,
                    },
                },
                "runner": "maintenance-point",
                "options": {},
            }
        )
        assert result.extras["drift"][0]["model"] == "workload-full"

    def test_multi_rule_specs_apply_every_rule_once(self):
        result = self._run(
            {
                "config": {"scale": "quick", "initial": "category"},
                "runner": "maintenance-point",
                "options": {
                    "dynamics": {
                        "rules": [
                            {"model": "workload-fraction", "options": {"fraction": 0.5}},
                            {"model": "churn", "options": {"departures": 1}},
                        ]
                    }
                },
            }
        )
        assert [entry["model"] for entry in result.extras["drift"]] == [
            "workload-fraction",
            "churn",
        ]

    def test_missing_drift_reports_cleanly(self):
        from repro.sweep.engine import execute_task
        from repro.sweep.spec import SweepTask

        task = SweepTask(
            index=0,
            config={"scale": "quick", "initial": "category"},
            runner="maintenance-point",
            options={},
        )
        with pytest.raises(ConfigurationError, match="maintenance-point needs"):
            execute_task(task)


class TestMaintainRunnerOptions:
    def test_runner_option_dynamics_override_the_config(self):
        spec = drift_grid_spec(
            dynamics=(),
            seeds=(7,),
            runner_options={
                "periods": 1,
                "dynamics": {"model": "churn", "options": {"departures": 2}},
            },
        )
        result = run_sweep(spec, executor="serial").results[0]
        assert result.extras["drift"][0]["model"] == "churn"
        assert len(result.extras["drift"][0]["peer_ids"]) == 2
