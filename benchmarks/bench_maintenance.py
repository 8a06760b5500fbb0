"""Benchmark — a 200-peer, 10-period maintenance run under scheduled drift.

Times the full declarative dynamics path end to end: a
:class:`~repro.session.simulation.Simulation` with a
``SessionConfig(dynamics=...)`` drift schedule (two alternating
``workload-full`` rules flipping a quarter of the perturbed cluster between
two target categories, so *every* period's drift genuinely moves the cost)
driving ten periods of the periodic maintenance loop — per-period drift
application, cost-model rebuild, protocol run and the kernel-vectorized
social/workload cost traces.

It also times the scenario fork every Figure 2/3 point pays: a
``maintenance-point`` task mutates its scenario, so the sweep cache hands it
a structural copy of the cached build (new per-peer containers, shared
immutable documents and queries).  A return to full deep copies shows up
here as a slowdown of more than 20x.

Run with ``--benchmark-json BENCH_maintenance.json`` (CI does) to produce
the artifact the trend job compares across runs.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_block
from repro.analysis.reporting import format_table
from repro.datasets.scenarios import SCENARIO_SAME_CATEGORY, ScenarioConfig
from repro.experiments.config import ExperimentConfig
from repro.session import SessionConfig, Simulation
from repro.sweep.cache import clear_scenario_cache, scenario_data_for

#: The paper's Section 4.2 setting: 200 peers, uniform workload, 10 periods.
NUM_PEERS = 200
PERIODS = 10

#: From period 1 on, a quarter of the perturbed cluster's peers switch their
#: whole workload — to ``cat02`` on odd periods, back towards ``cat03`` on
#: even ones, so the drift never saturates into a no-op.
DRIFT = {
    "rules": [
        {
            "model": "workload-full",
            "options": {"peer_fraction": 0.25, "category": "cat02"},
            "start": 1,
            "every": 2,
        },
        {
            "model": "workload-full",
            "options": {"peer_fraction": 0.25, "category": "cat03"},
            "start": 2,
            "every": 2,
        },
    ]
}


def drift_session() -> SessionConfig:
    config = ExperimentConfig(
        scenario=ScenarioConfig(
            num_peers=NUM_PEERS,
            num_categories=10,
            documents_per_peer=8,
            queries_per_peer=5,
            uniform_workload=True,
        ),
        max_rounds=150,
    )
    return SessionConfig.from_experiment_config(
        config,
        scenario=SCENARIO_SAME_CATEGORY,
        strategy="selfish",
        initial="category",
        dynamics=DRIFT,
    )


def figure_session() -> SessionConfig:
    """The scenario of every paper-scale Figure 2/3 point."""
    return SessionConfig.from_experiment_config(
        ExperimentConfig.paper(),
        scenario=SCENARIO_SAME_CATEGORY,
        initial="category",
        scenario_overrides={"uniform_workload": True},
    )


def run_drift_periods():
    simulation = Simulation.from_config(drift_session())
    return simulation.run_maintenance(PERIODS)


@pytest.fixture(scope="module")
def drift_result():
    """One untimed reference run shared by the shape assertions."""
    return run_drift_periods()


def test_maintenance_drift_run(benchmark):
    """The trend-tracked measurement: 10 drifting periods at 200 peers."""
    result = benchmark.pedantic(run_drift_periods, iterations=1, rounds=3)
    assert result.num_periods == PERIODS
    # the schedule fired every period after the first
    assert len(result.extras["drift"]) == PERIODS - 1


def test_scenario_fork(benchmark):
    """The trend-tracked copy path: one scenario fork of the Figure 2/3 world."""
    session = figure_session()
    clear_scenario_cache()
    try:
        cached = scenario_data_for(session, mutates=False)  # untimed build
        fork = benchmark.pedantic(
            scenario_data_for,
            args=(session,),
            kwargs={"mutates": True},
            rounds=10,
            warmup_rounds=1,
        )
    finally:
        clear_scenario_cache()
    assert fork is not cached
    assert fork.peer_ids() == cached.peer_ids()


def test_maintenance_drift_shape(drift_result):
    """Sanity: drift perturbs the cost and maintenance reacts."""
    records = drift_result.periods
    assert records[0].moves == 0  # the ground-truth start is stable
    perturbed = [record for record in records[1:] if record.social_cost_before > 0.101]
    assert perturbed, "the scheduled drift never moved the social cost"
    assert any(record.moves > 0 for record in records[1:])
    print_block(
        "Maintenance under scheduled drift (200 peers, 10 periods)",
        format_table(
            ("period", "SCost before", "SCost after", "moves", "rounds"),
            [
                (
                    record.period,
                    f"{record.social_cost_before:.3f}",
                    f"{record.social_cost_after:.3f}",
                    record.moves,
                    record.rounds,
                )
                for record in records
            ],
        ),
    )
