"""Outside-in layer tracing for the benchmark.

The tracer records spans around the public entry points of the ``repro``
modules by replacing them with thin wrappers from the outside; the program
itself is not instrumented.  Every span keeps its parent, so a layer's self
time is its span duration minus the time covered by its child spans.
:func:`install_layers` wraps every layer the benchmark reports on, and
:meth:`Tracer.restore` puts every original back.

``MessageBus.publish`` is deliberately not wrapped: a paper-scale Table 1
run publishes about a million messages, so message counts come from the
``message_counts`` the program already returns.
"""

from __future__ import annotations

import collections
import functools
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

#: ``count(counters, args, kwargs, result, outermost)`` runs after a wrapped
#: call returns; *outermost* is false when a span of the same name encloses it.
CountHook = Callable[[collections.Counter, tuple, dict, Any, bool], None]
SpanName = Union[str, Callable[[tuple, dict], str]]


class Tracer:
    """In-memory spans and counters, filled by wrappers it installs and removes."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: One ``[name, start, end, parent_index]`` list per span, in open order.
        self.spans: List[list] = []
        self.counters: collections.Counter = collections.Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def active(self, name: str) -> bool:
        """Whether a span called *name* is open."""
        return any(self.spans[index][0] == name for index in self._stack)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: SpanName, count: Optional[CountHook] = None) -> bool:
        """Replace ``owner.attr`` with a span-recording wrapper.

        On a class only an attribute the class defines itself is wrapped, so
        an inherited method is traced once, on the class that defines it.
        Returns ``False`` (and changes nothing) when the attribute is absent.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return False
        descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if descriptor is not None else raw
        tracer = self

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = name if isinstance(name, str) else name(args, kwargs)
            outermost = not tracer.active(span)
            index = tracer.open(span)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(index)
            if count is not None:
                count(tracer.counters, args, kwargs, result, outermost)
            return result

        setattr(owner, attr, descriptor(wrapper) if descriptor is not None else wrapper)
        self._patches.append((owner, attr, raw))
        return True

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- results -------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total`` and ``self`` seconds, and ``top`` —
        the seconds of spans with no parent."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "top": 0.0})
            duration = end - start
            row["calls"] += 1
            row["total"] += duration
            row["self"] += duration - child_time[index]
            if parent is None:
                row["top"] += duration
        return table

    def durations(self, name: str) -> List[float]:
        """Durations of every span called *name*."""
        return [end - start for span_name, start, end, _ in self.spans if span_name == name]


# -- the repro layers ---------------------------------------------------------


def _count_recall(counters, args, kwargs, result, outermost) -> None:
    matrix = args[0]
    counters["recall.builds"] += 1
    if matrix.mode == "dense":
        population = len(matrix.peer_index)
        counters["recall.dense_builds"] += 1
        # Computed, not measured: local, global and service |P| x |P| float64.
        counters["recall.dense_mb"] += 3 * population * population * 8 / 2**20


def _count_kernel_build(counters, args, kwargs, result, outermost) -> None:
    kernel = args[0]
    counters["kernel.builds"] += 1
    if kernel.backend == "labels":
        counters["kernel.labels_builds"] += 1


def _count_scored(counters, args, kwargs, result, outermost) -> None:
    kernel = args[0]
    candidates = kwargs.get("candidate_clusters")
    columns = (
        len(candidates) if candidates is not None else kernel.configuration.num_nonempty_clusters()
    )
    columns += 1 if kwargs.get("include_new_cluster") else 0
    counters["kernel.score_calls"] += 1
    counters["kernel.cells_scored"] += len(kernel.peer_order) * columns


def _count_proposals(counters, args, kwargs, result, outermost) -> None:
    if not outermost:
        return
    counters["strategy.proposals"] += len(result)
    counters["strategy.moves_proposed"] += sum(
        1 for proposal in result.values() if proposal.target_cluster != proposal.source_cluster
    )


def _count_round(counters, args, kwargs, result, outermost) -> None:
    counters["protocol.rounds"] += 1
    counters["protocol.requests"] += result.num_requests
    counters["protocol.grants"] += result.num_granted


def _count_drift(counters, args, kwargs, result, outermost) -> None:
    if outermost and result is not None:
        counters["dynamics.drifted_peers"] += result.num_peers


def _count_observed(counters, args, kwargs, result, outermost) -> None:
    counters["overlay.queries"] += result.queries_routed


def _count_replay(counters, args, kwargs, result, outermost) -> None:
    counters["traffic.events"] += result.events
    counters["traffic.query_messages"] += result.query_messages


def _replay_span(args: tuple, kwargs: dict) -> str:
    return f"traffic.replay.{kwargs.get('workload_label', 'events')}"


def install_layers(tracer: Tracer) -> List[str]:
    """Wrap the public entry point of every traced ``repro`` layer.

    Returns the targets that were not found, so a refactor that moves an
    entry point shows up as a named gap instead of a silent zero.
    """
    import repro.datasets.scenarios as scenarios
    import repro.dynamics.models as drift_models
    import repro.experiments.figure1 as figure1
    import repro.experiments.maintenance as maintenance
    import repro.experiments.table1 as table1
    import repro.protocol.reformulation as reformulation
    import repro.protocol.rounds as rounds
    import repro.session.simulation as simulation
    import repro.sweep.cache as cache
    import repro.traffic.workloads as traffic_workloads
    from repro.core.costs import CostModel
    from repro.core.recall_matrix import WeightedRecallMatrix
    from repro.dynamics.periodic import PeriodicMaintenanceLoop
    from repro.dynamics.schedule import DynamicsSchedule
    from repro.game.kernel import BestResponseKernel
    from repro.overlay.simulator import OverlaySimulator
    from repro.strategies.altruistic import AltruisticStrategy
    from repro.strategies.hybrid import HybridStrategy
    from repro.strategies.selfish import SelfishStrategy
    from repro.traffic.simulator import TrafficSimulator

    targets: List[Tuple[Any, str, SpanName, Optional[CountHook]]] = [
        # build_scenario is looked up at its import sites, so each is wrapped.
        (scenarios, "build_scenario", "datasets.build", None),
        (simulation, "build_scenario", "datasets.build", None),
        (cache, "build_scenario", "datasets.build", None),
        (cache, "scenario_data_for", "sweep.cache.lookup", None),
        (table1, "run_sweep", "sweep.run", None),
        (figure1, "run_sweep", "sweep.run", None),
        (maintenance, "run_sweep", "sweep.run", None),
        (WeightedRecallMatrix, "__init__", "recall.build", _count_recall),
        (BestResponseKernel, "__init__", "kernel.build", _count_kernel_build),
        (BestResponseKernel, "best_response_all", "kernel.score", _count_scored),
        (BestResponseKernel, "best_deviation", "kernel.score", _count_scored),
        (BestResponseKernel, "social_cost", "kernel.cost", None),
        (BestResponseKernel, "workload_cost", "kernel.cost", None),
        (BestResponseKernel, "current_costs", "kernel.cost", None),
        (SelfishStrategy, "propose_all", "strategy.propose", _count_proposals),
        (AltruisticStrategy, "propose_all", "strategy.propose", _count_proposals),
        (HybridStrategy, "propose_all", "strategy.propose", _count_proposals),
        (rounds, "gather_requests", "protocol.gather", None),
        (reformulation, "execute_round", "protocol.round", _count_round),
        (reformulation.ReformulationProtocol, "run", "protocol.run", None),
        (OverlaySimulator, "run_period", "overlay.observe", _count_observed),
        (CostModel, "social_cost", "cost.exact", None),
        (CostModel, "workload_cost", "cost.exact", None),
        (DynamicsSchedule, "apply_period", "dynamics.drift", None),
        (PeriodicMaintenanceLoop, "run_period", "dynamics.period", None),
        (traffic_workloads.WorkloadContext, "from_network", "traffic.generate", None),
        (TrafficSimulator, "run_streams", _replay_span, _count_replay),
    ]
    # Every drift model and workload generator class that defines its own method.
    for module, base, attr, name, count in (
        (drift_models, drift_models.DriftModel, "apply", "dynamics.drift", _count_drift),
        (traffic_workloads, traffic_workloads.WorkloadGenerator, "streams", "traffic.generate", None),
    ):
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, base) and attr in vars(value):
                targets.append((value, attr, name, count))

    missing = []
    for owner, attr, name, count in targets:
        if not tracer.wrap(owner, attr, name, count):
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return missing


#: Spans whose self time is reported as ``<span>_s``.
SELF_TIME_SPANS = (
    "datasets.build",
    "sweep.cache.lookup",
    "recall.build",
    "kernel.build",
    "kernel.score",
    "kernel.cost",
    "strategy.propose",
    "protocol.gather",
    "protocol.round",
    "protocol.run",
    "overlay.observe",
    "cost.exact",
    "dynamics.drift",
    "traffic.generate",
    "traffic.replay.zipf",
    "traffic.replay.flash-crowd",
)

#: Spans whose call count is reported under its own name.
CALL_COUNTS = {
    "datasets.builds": "datasets.build",
    "cost.exact_calls": "cost.exact",
}


#: Counts the wrappers' count hooks add up.
TRACER_COUNTS = (
    "recall.builds",
    "recall.dense_builds",
    "recall.dense_mb",
    "kernel.builds",
    "kernel.labels_builds",
    "kernel.score_calls",
    "kernel.cells_scored",
    "strategy.proposals",
    "strategy.moves_proposed",
    "protocol.rounds",
    "protocol.requests",
    "protocol.grants",
    "dynamics.drifted_peers",
    "overlay.queries",
    "traffic.events",
    "traffic.query_messages",
)

#: Counts the workload collects itself, from sweep events, the scenario
#: cache statistics and the message counts the program returns.
WORKLOAD_COUNTS = (
    "sweep.tasks",
    "sweep.task_s",
    "sweep.failed",
    "sweep.cache.hits",
    "sweep.cache.misses",
    "sweep.cache.copies",
    "overlay.msg.gain_report",
    "overlay.msg.relocation_request",
    "overlay.msg.grant",
    "overlay.msg.query",
    "overlay.msg.result",
)


def layer_metrics(tracer: Tracer, extra: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    *extra* holds the :data:`WORKLOAD_COUNTS` a workload collected; a count
    it has no source for reads 0.
    """
    table = tracer.summary()
    metrics: Dict[str, float] = {}
    for span in SELF_TIME_SPANS:
        metrics[f"{span}_s"] = table.get(span, {}).get("self", 0.0)
    for metric, span in CALL_COUNTS.items():
        metrics[metric] = table.get(span, {}).get("calls", 0)
    for key in TRACER_COUNTS:
        metrics[key] = tracer.counters.get(key, 0)
    for key in WORKLOAD_COUNTS:
        metrics[key] = extra.get(key, 0)
    requests = metrics["protocol.requests"]
    metrics["protocol.grant_ratio"] = metrics["protocol.grants"] / requests if requests else 0.0
    queries = metrics["overlay.queries"]
    observe = table.get("overlay.observe", {}).get("total", 0.0)
    metrics["overlay.us_per_query"] = observe * 1e6 / queries if queries else 0.0
    periods = tracer.durations("dynamics.period")
    metrics["dynamics.period_s"] = statistics.median(periods) if periods else 0.0
    sweep_wall = table.get("sweep.run", {}).get("total", 0.0)
    metrics["sweep.overhead_s"] = sweep_wall - metrics["sweep.task_s"]
    return metrics


def top_level_seconds(tracer: Tracer) -> float:
    """Seconds covered by spans that have no parent."""
    return sum(row["top"] for row in tracer.summary().values())
