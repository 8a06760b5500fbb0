"""Shared driver for the maintenance experiments (Figures 2 and 3).

Both figures start from the "good" clustering of scenario 1 (one cluster per
data category), keep the number of clusters fixed, assign the workload
uniformly and perturb a single cluster ``c_cur``:

* Figure 2 updates **workloads** — (left) the whole workload of a varying
  fraction of the peers in ``c_cur`` switches to another category's data,
  (right) a varying fraction of the workload of *all* peers in ``c_cur``
  switches;
* Figure 3 applies the same two scenarios to the **content** of the peers in
  ``c_cur``.

After each perturbation the reformulation protocol runs (with the paper's
gain threshold ε = 0.001) until no more relocation requests are issued, and
the normalised social cost of the resulting configuration is recorded.

The perturbations themselves are **registered drift models**
(:mod:`repro.dynamics.models`): scenario (a) maps to ``workload-full`` /
``content-full`` with a ``peer_fraction`` option, scenario (b) to
``workload-fraction`` / ``content-fraction`` with a ``fraction`` option —
see :func:`drift_spec`.  Each figure point carries its spec inside the
task's :class:`~repro.session.config.SessionConfig` (the ``dynamics``
field), so every maintenance figure is an ordinary, JSON-describable sweep
grid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.reporting import format_series
from repro.datasets.scenarios import SCENARIO_SAME_CATEGORY
from repro.dynamics.schedule import DynamicsSchedule
from repro.errors import ConfigurationError
from repro.events import DRIFT_APPLIED, DriftAppliedEvent, EventHooks
from repro.experiments.config import ExperimentConfig
from repro.registry import register_runner
from repro.session import RunResult, SessionConfig, Simulation
from repro.sweep.engine import run_sweep
from repro.sweep.executors import executor_from_any
from repro.sweep.spec import SweepSpec

__all__ = [
    "DEFAULT_FRACTIONS",
    "MaintenancePoint",
    "MaintenanceCurve",
    "MaintenanceResult",
    "drift_spec",
    "run_maintenance_experiment",
    "run_maintenance_point",
]

DEFAULT_FRACTIONS: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


@dataclass(frozen=True)
class MaintenancePoint:
    """One measured point: the social cost after maintenance for a given update fraction."""

    fraction: float
    social_cost: float
    social_cost_before_maintenance: float
    moves: int
    rounds: int


@dataclass
class MaintenanceCurve:
    """One strategy's curve over update fractions."""

    strategy: str
    update_kind: str
    points: List[MaintenancePoint] = field(default_factory=list)

    def series(self) -> Dict[float, float]:
        """fraction -> normalised social cost after maintenance."""
        return {point.fraction: point.social_cost for point in self.points}

    def before_series(self) -> Dict[float, float]:
        """fraction -> normalised social cost before any maintenance (static baseline)."""
        return {point.fraction: point.social_cost_before_maintenance for point in self.points}


@dataclass
class MaintenanceResult:
    """All curves of one maintenance figure (two update scenarios x strategies)."""

    figure: str
    curves: List[MaintenanceCurve] = field(default_factory=list)

    def curve(self, update_kind: str, strategy: str) -> MaintenanceCurve:
        """Find the curve for an (update scenario, strategy) pair."""
        for candidate in self.curves:
            if candidate.update_kind == update_kind and candidate.strategy == strategy:
                return candidate
        raise KeyError(f"no curve for {update_kind!r} / {strategy!r}")

    def to_text(self) -> str:
        """Plain-text rendering of every curve."""
        blocks = []
        for curve in self.curves:
            blocks.append(
                format_series(f"{self.figure} {curve.update_kind} ({curve.strategy})", curve.series())
            )
        return "\n\n".join(blocks)


#: (update target, update kind) -> registered drift-model name.
_DRIFT_MODELS = {
    ("workload", "updated-peers"): "workload-full",
    ("workload", "updated-degree"): "workload-fraction",
    ("content", "updated-peers"): "content-full",
    ("content", "updated-degree"): "content-fraction",
}


def drift_spec(update_target: str, update_kind: str, fraction: float) -> Dict[str, Any]:
    """The registered drift-model spec of one maintenance figure point.

    Scenario (a) (``update_kind="updated-peers"``) varies the *number of
    peers* fully updated (``peer_fraction``); scenario (b)
    (``"updated-degree"``) varies the *degree* by which all of ``c_cur``'s
    peers are updated (``fraction``).
    """
    if update_target not in {"workload", "content"}:
        raise ValueError(
            f"update_target must be 'workload' or 'content', got {update_target!r}"
        )
    if update_kind not in {"updated-peers", "updated-degree"}:
        raise ValueError(f"unknown update kind {update_kind!r}")
    model = _DRIFT_MODELS[(update_target, update_kind)]
    if update_kind == "updated-peers":
        options: Dict[str, Any] = {"peer_fraction": float(fraction)}
    else:
        options = {"fraction": float(fraction)}
    return {"model": model, "options": options}


@register_runner("maintenance-point", mutates_scenario=True)
def run_maintenance_point(simulation: Simulation, options: Dict[str, object]) -> RunResult:
    """Sweep runner measuring one maintenance point (Figures 2 and 3).

    Builds the point's registered drift models (from ``options["dynamics"]``,
    the session config's ``dynamics`` field — either may be a full
    :class:`~repro.dynamics.schedule.DynamicsSchedule` spec — or the legacy
    ``update_target`` × ``update_kind`` × ``fraction`` options), applies
    each rule's first invocation once to the freshly built scenario, records
    the social cost before maintenance, runs the reformulation protocol and
    stashes the point's measurements in ``RunResult.extras``.  The facade
    builds the scenario (and the cost model) lazily, so the perturbation
    happens before any cost is computed.
    """
    update_target = options.get("update_target")
    update_kind = options.get("update_kind")
    fraction = options.get("fraction")
    spec = options.get("dynamics") or simulation.config.dynamics
    if spec is None:
        if update_target is None or update_kind is None or fraction is None:
            raise ConfigurationError(
                "maintenance-point needs a drift: pass a 'dynamics' spec (task "
                "option or session config) or the update_target/update_kind/"
                "fraction options"
            )
        spec = drift_spec(str(update_target), str(update_kind), float(fraction))
    schedule = DynamicsSchedule.from_any(spec)
    data = simulation.data
    configuration = simulation.configuration
    rng = random.Random(simulation.experiment_config.seed + 101)
    reports = []
    for rule in schedule.rules:
        model = rule.build_model(0)
        model.prepare(data, rng)
        report = model.apply(data.network, configuration, 0, rng)
        if report is not None:
            reports.append(report)
            simulation.hooks.emit(
                DRIFT_APPLIED, DriftAppliedEvent(period=0, report=report)
            )
    before = simulation.cost_model.social_cost(configuration, normalized=True)
    result = simulation.run()
    result.extras["social_cost_before"] = before
    result.extras["drift"] = [report.to_dict() for report in reports]
    if update_target is not None:
        result.extras["update_target"] = str(update_target)
    if update_kind is not None:
        result.extras["update_kind"] = str(update_kind)
    if fraction is not None:
        result.extras["fraction"] = float(fraction)
    return result


def run_maintenance_experiment(
    update_target: str,
    config: Optional[ExperimentConfig] = None,
    *,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    strategies: Sequence[str] = ("selfish", "altruistic"),
    update_kinds: Sequence[str] = ("updated-peers", "updated-degree"),
    workers: int = 1,
    executor: Optional[Any] = None,
    hooks: Optional[EventHooks] = None,
) -> MaintenanceResult:
    """Run the Figure 2 (``update_target="workload"``) or Figure 3 (``"content"``) experiment.

    Every (update scenario, strategy, fraction) point is an independent
    ``maintenance-point`` task of the sweep engine whose perturbation is a
    registered drift model carried in the task config's ``dynamics`` field
    (see :func:`drift_spec`).  All points share one scenario key, so each
    task forks the cached build (the sweep cache's copy-on-write fork; a
    rebuild from the same seed when the cache is off) and every measurement
    perturbs an identical starting state, which also makes the points
    embarrassingly parallel: ``workers > 1`` fans them
    out — or pass *executor* (name / spec / instance, taking precedence) for
    any registered backend — with results identical to the serial run.
    """
    if update_target not in {"workload", "content"}:
        raise ValueError(f"update_target must be 'workload' or 'content', got {update_target!r}")
    config = config if config is not None else ExperimentConfig.paper()
    figure_name = "figure2" if update_target == "workload" else "figure3"

    tasks = []
    keys = []
    for update_kind in update_kinds:
        for strategy_name in strategies:
            for fraction in fractions:
                session = SessionConfig.from_experiment_config(
                    config,
                    scenario=SCENARIO_SAME_CATEGORY,
                    strategy=strategy_name,
                    initial="category",
                    scenario_overrides={"uniform_workload": True},
                    gain_threshold=config.maintenance_gain_threshold,
                    allow_cluster_creation=False,
                    restrict_to_nonempty=True,
                    dynamics=drift_spec(update_target, update_kind, fraction),
                )
                tasks.append(
                    {
                        "config": session.to_dict(),
                        "runner": "maintenance-point",
                        "options": {
                            "update_target": update_target,
                            "update_kind": update_kind,
                            "fraction": fraction,
                        },
                    }
                )
                keys.append((update_kind, strategy_name))
    sweep = run_sweep(
        SweepSpec(tasks=tuple(tasks)),
        executor=executor_from_any(executor, workers),
        hooks=hooks,
    )

    result = MaintenanceResult(figure=figure_name)
    curves: Dict[tuple, MaintenanceCurve] = {}
    for key, run in zip(keys, sweep.results):
        update_kind, strategy_name = key
        if key not in curves:
            curves[key] = MaintenanceCurve(strategy=strategy_name, update_kind=update_kind)
            result.curves.append(curves[key])
        curves[key].points.append(
            MaintenancePoint(
                fraction=float(run.extras["fraction"]),
                social_cost=run.final_social_cost,
                social_cost_before_maintenance=float(run.extras["social_cost_before"]),
                moves=run.moves,
                rounds=run.rounds,
            )
        )
    return result
