"""One timed pass of a benchmark workload, run in a fresh interpreter.

Usage (from the root of a checkout)::

    python3 perfbench/workloads.py <workload> <seed> <trace 0|1>

The pass imports ``repro`` from the checkout's ``src/``, builds its inputs
from *seed*, runs, and prints one JSON line with its wall clock, set-up
time, peak memory, work units, output digests, and — with tracing on — the
per-layer metrics.  ``run.py`` starts one such process per pass, so every
pass pays the same warm-up and its peak memory is its own.

Each workload splits into ``setup`` (scenario builds, recall matrices,
routers and generated event streams: everything before the first protocol
round or replay batch) and ``run``.  Digests cover outputs only, never a
wall-clock field.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import resource
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Events per traffic replay.
TRAFFIC_EVENTS = 1_000_000
#: Peers of the large-population run: above the kernel's labels threshold
#: (2048), small enough that 22 runs per check stay affordable.
LARGE_PEERS = 2500
LARGE_ROUNDS = 20
EXACT_PERIODS = 40
OBSERVED_PERIODS = 5

#: The drift schedule of the maintenance loop: from period 1 on, a quarter
#: of the perturbed cluster switches its whole workload, alternating between
#: two categories so the drift never saturates into a no-op.
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


def canonical(value: Any) -> Any:
    """*value* with floats at 10 significant digits, for stable digests."""
    if isinstance(value, float):
        return format(value, ".10g")
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in sorted(value.items(), key=str)}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):  # numpy scalar
        return canonical(value.item())
    return value


def digest(value: Any) -> str:
    """md5 of a text, or of the canonical JSON form of anything else."""
    text = value if isinstance(value, str) else json.dumps(canonical(value), sort_keys=True)
    return hashlib.md5(text.encode("utf-8")).hexdigest()


class SweepEvents:
    """Counts sweep-engine task events; attached in timed and traced passes alike."""

    def __init__(self) -> None:
        from repro.events import EventHooks

        self.hooks = EventHooks()
        self.tasks = 0
        self.task_seconds = 0.0
        self.failed = 0
        self.rounds = 0
        self.messages: collections.Counter = collections.Counter()
        self.hooks.on_task_finished(self._finished)
        self.hooks.on_task_failed(self._failed)
        self.hooks.on_task_quarantined(self._failed)

    def _finished(self, event: Any) -> None:
        self.tasks += 1
        self.task_seconds += event.duration
        self.rounds += event.result.rounds
        self.messages.update(event.result.message_counts)

    def _failed(self, event: Any) -> None:
        self.failed += 1

    def counters(self) -> Dict[str, float]:
        return {"sweep.tasks": self.tasks, "sweep.task_s": self.task_seconds, "sweep.failed": self.failed}


#: Message class name -> per-layer metric.
MESSAGE_METRICS = {
    "GainReportMessage": "overlay.msg.gain_report",
    "RelocationRequestMessage": "overlay.msg.relocation_request",
    "GrantMessage": "overlay.msg.grant",
    "QueryMessage": "overlay.msg.query",
    "ResultMessage": "overlay.msg.result",
}


def message_metrics(messages: Dict[str, int]) -> Dict[str, int]:
    return {metric: messages.get(kind, 0) for kind, metric in MESSAGE_METRICS.items()}


def paper_config(seed: int):
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig(seed=seed).with_scenario(seed=seed)


def warm_scenario(session: Any) -> None:
    """Build a sweep task's scenario and recall matrix ahead of the sweep.

    The sweep's per-process scenario cache then answers every task, so the
    build is timed as set-up instead of inside the first task.
    """
    from repro.sweep.cache import scenario_data_for

    scenario_data_for(session, mutates=False).network.recall_matrix()


# -- discovery: Table 1 and Figure 1 at paper scale ------------------------------


def discovery_setup(seed: int) -> Dict[str, Any]:
    from repro.experiments.table1 import DEFAULT_SCENARIOS
    from repro.session import SessionConfig

    config = paper_config(seed)
    for scenario in DEFAULT_SCENARIOS:
        warm_scenario(SessionConfig.from_experiment_config(config, scenario=scenario))
    return {"config": config, "events": SweepEvents()}


def discovery_run(context: Dict[str, Any]) -> Tuple[float, Dict[str, str], Dict[str, float]]:
    from repro.experiments.figure1 import run_figure1
    from repro.experiments.table1 import run_table1

    events = context["events"]
    started = time.perf_counter()
    table = run_table1(context["config"], hooks=events.hooks)
    figure = run_figure1(context["config"], hooks=events.hooks)
    seconds = time.perf_counter() - started
    outputs = {"table1": digest(table.to_text()), "figure1": digest(figure.to_text())}
    counters = {**events.counters(), **message_metrics(events.messages)}
    return events.rounds / seconds, outputs, counters


# -- maintenance: Figures 2 and 3, then the scheduled-drift loop -----------------


def drift_session(seed: int, mode: str):
    from repro.datasets.scenarios import SCENARIO_SAME_CATEGORY, ScenarioConfig
    from repro.experiments.config import ExperimentConfig
    from repro.session import SessionConfig

    config = ExperimentConfig(
        scenario=ScenarioConfig(
            num_peers=200,
            num_categories=10,
            documents_per_peer=8,
            queries_per_peer=5,
            uniform_workload=True,
            seed=seed,
        ),
        max_rounds=150,
        seed=seed,
    )
    return SessionConfig.from_experiment_config(
        config,
        scenario=SCENARIO_SAME_CATEGORY,
        strategy="selfish",
        initial="category",
        dynamics=DRIFT,
        strategy_mode=mode,
    )


def maintenance_setup(seed: int) -> Dict[str, Any]:
    from repro.datasets.scenarios import SCENARIO_SAME_CATEGORY
    from repro.session import SessionConfig, Simulation

    config = paper_config(seed)
    # The scenario every Figure 2/3 task starts from (one cached build).
    warm_scenario(
        SessionConfig.from_experiment_config(
            config, scenario=SCENARIO_SAME_CATEGORY, scenario_overrides={"uniform_workload": True}
        )
    )
    loops = {}
    for mode in ("exact", "observed"):
        loops[mode] = Simulation.from_config(drift_session(seed, mode))
        loops[mode].configuration  # builds the scenario and its initial clustering
    return {"config": config, "events": SweepEvents(), "loops": loops}


def maintenance_run(context: Dict[str, Any]) -> Tuple[float, Dict[str, str], Dict[str, float]]:
    from repro.experiments.maintenance import run_maintenance_experiment

    events = context["events"]
    started = time.perf_counter()
    figure2 = run_maintenance_experiment("workload", context["config"], hooks=events.hooks)
    figure3 = run_maintenance_experiment("content", context["config"], hooks=events.hooks)
    outputs = {"figure2": digest(figure2.to_text()), "figure3": digest(figure3.to_text())}
    messages = collections.Counter(events.messages)
    rounds = events.rounds
    for mode, periods in (("exact", EXACT_PERIODS), ("observed", OBSERVED_PERIODS)):
        result = context["loops"][mode].run_maintenance(periods)
        if len(result.periods) != periods:
            raise RuntimeError(f"{mode} loop ran {len(result.periods)} of {periods} periods")
        rounds += result.rounds
        messages.update(result.message_counts)
        outputs[f"periods.{mode}"] = digest([vars(record) for record in result.periods])
    seconds = time.perf_counter() - started
    counters = {**events.counters(), **message_metrics(messages)}
    return rounds / seconds, outputs, counters


# -- traffic: two 1M-event replays on the 200-peer category clustering -----------


def traffic_setup(seed: int) -> Dict[str, Any]:
    from repro.datasets import scenarios
    from repro.overlay.routing import ProbeKRouter
    from repro.traffic.workloads import WorkloadContext, build_workload

    data = scenarios.build_scenario(
        scenarios.SCENARIO_SAME_CATEGORY,
        scenarios.ScenarioConfig(
            num_peers=200,
            num_categories=10,
            documents_per_peer=8,
            queries_per_peer=5,
            uniform_workload=True,
            seed=seed,
        ),
    )
    network = data.network
    replays = []
    for offset, (workload, router) in enumerate(
        (("zipf", None), ("flash-crowd", ProbeKRouter(network, k=3)))
    ):
        generator = build_workload(workload)
        stream_context = WorkloadContext.from_network(
            network, num_events=TRAFFIC_EVENTS, seed=seed + offset
        )
        replays.append((workload, router, generator.streams(stream_context), stream_context))
    configuration = scenarios.initial_configuration(data, "category")
    return {"network": network, "configuration": configuration, "replays": replays}


def traffic_run(context: Dict[str, Any]) -> Tuple[float, Dict[str, str], Dict[str, float]]:
    from repro.traffic.simulator import TrafficSimulator

    outputs = {}
    events = 0
    seconds = 0.0
    for workload, router, streams, stream_context in context["replays"]:
        simulator = TrafficSimulator(
            context["network"], context["configuration"], router=router, keep_log=False
        )
        started = time.perf_counter()
        report = simulator.run_streams(streams, stream_context, workload_label=workload)
        seconds += time.perf_counter() - started
        if report.events != TRAFFIC_EVENTS:
            raise RuntimeError(f"{workload} replay routed {report.events} of {TRAFFIC_EVENTS} events")
        events += report.events
        outputs[workload] = digest(report.to_dict())  # to_dict omits wall_seconds
    return events / seconds, outputs, {}


# -- large-population: the default session path at 2,500 peers -------------------


def large_setup(seed: int) -> Dict[str, Any]:
    from repro.datasets.scenarios import SCENARIO_SAME_CATEGORY
    from repro.experiments.config import ExperimentConfig
    from repro.session import SessionConfig, Simulation

    config = ExperimentConfig(seed=seed, max_rounds=LARGE_ROUNDS).with_scenario(
        num_peers=LARGE_PEERS, seed=seed
    )
    # The default SessionConfig: no kernel_backend and no matrix mode, so
    # the recall representation is whatever the default path chooses.
    simulation = Simulation.from_config(
        SessionConfig.from_experiment_config(
            config, scenario=SCENARIO_SAME_CATEGORY, strategy="selfish", initial="random"
        )
    )
    simulation.configuration
    simulation.cost_model
    return {"simulation": simulation}


def large_run(context: Dict[str, Any]) -> Tuple[float, Dict[str, str], Dict[str, float]]:
    started = time.perf_counter()
    result = context["simulation"].run()
    seconds = time.perf_counter() - started
    outputs = {
        "run": digest(
            {
                "rounds": result.rounds,
                "moves": result.moves,
                "converged": result.converged,
                "clusters": result.cluster_count,
                "social_cost": result.final_social_cost,
                "workload_cost": result.final_workload_cost,
                "social_cost_trace": result.social_cost_trace,
                "messages": result.message_counts,
            }
        )
    }
    return result.rounds / seconds, outputs, message_metrics(result.message_counts)


Setup = Callable[[int], Dict[str, Any]]
Run = Callable[[Dict[str, Any]], Tuple[float, Dict[str, str], Dict[str, float]]]

#: name -> (setup, run, work units attempted per pass).  A unit is a sweep
#: task, a maintenance period, a traffic replay or a protocol run.
WORKLOADS: Dict[str, Tuple[Setup, Run, int]] = {
    "discovery": (discovery_setup, discovery_run, 24 + 2),
    "maintenance": (maintenance_setup, maintenance_run, 48 + EXACT_PERIODS + OBSERVED_PERIODS),
    "traffic": (traffic_setup, traffic_run, 2),
    "large-population": (large_setup, large_run, 1),
}


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise ImportError(f"repro was imported from {repro.__file__}, not from {SRC}")


def run_pass(workload: str, seed: int, trace: bool) -> Dict[str, Any]:
    """Set up and run one pass of *workload*; the result is JSON-ready."""
    import tracer as layer_tracer

    setup, run, _ = WORKLOADS[workload]
    tracer = layer_tracer.Tracer() if trace else None
    missing: List[str] = []
    if tracer is not None:
        missing = layer_tracer.install_layers(tracer)
    try:
        started = time.perf_counter()
        context = setup(seed)
        setup_seconds = time.perf_counter() - started
        units_per_s, outputs, counters = run(context)
        wall = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.restore()
    from repro.sweep.cache import scenario_cache_info

    cache = scenario_cache_info()
    counters.update(
        {
            "sweep.cache.hits": cache["hits"],
            "sweep.cache.misses": cache["misses"],
            "sweep.cache.copies": cache["copies"],
        }
    )
    result: Dict[str, Any] = {
        "wall_s": wall,
        "setup_s": setup_seconds,
        "units_per_s": units_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs": outputs,
        "failed_units": int(counters.get("sweep.failed", 0)),
    }
    if tracer is not None:
        layers = layer_tracer.layer_metrics(tracer, counters)
        result["layers"] = layers
        result["spans"] = tracer.summary()
        result["top_level_s"] = layer_tracer.top_level_seconds(tracer)
        result["missing"] = missing
    return result


def main(argv: List[str]) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
    import_repro()
    print(json.dumps(run_pass(workload, seed, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
