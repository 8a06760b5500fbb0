"""Per-worker scenario memoisation for the sweep engine.

Sweep tasks that share a ``(scenario, ScenarioConfig)`` pair — every
strategy × initial × theta combination evaluated at the same seed — used to
rebuild identical :class:`~repro.datasets.scenarios.ScenarioData` from
scratch, corpus generation and all.  (Replications are *different* keys by
design: each replication's seed flows into ``ScenarioConfig.seed`` so it
genuinely resamples the world.)  This module keeps one built scenario per
distinct key in the worker process and hands it to each task:

* **non-mutating runners** (``discover`` and anything registered with
  ``mutates_scenario=False``) share the cached instance directly — a
  discovery run only *derives* models from the network, it never changes it;
* **mutating runners** (the maintenance family, and any runner that does not
  declare itself) receive a *structural fork* made by :func:`copy.deepcopy`,
  so the pristine cache entry is never perturbed (copy-on-write).  The fork
  copies only what a mutation can reach: each
  :class:`~repro.peers.peer.Peer` gets a new document list, index postings
  and workload counts, and the corpus generator (its ``rng`` and document
  counter) is copied whole.  :class:`~repro.core.documents.Document`,
  :class:`~repro.core.queries.Query` and
  :class:`~repro.core.attributes.AttributeSet` are shared, because nothing
  mutates them in place — a content or workload update replaces them, so
  keeping that invariant is what makes the fork safe.
  :class:`~repro.peers.network.PeerNetwork` leaves its derived-model caches
  out of the copy, so a forked-then-mutated scenario behaves exactly like a
  freshly built one.

Because the cached build is deterministic in the key, a cache hit and a cache
miss produce byte-identical task results — so sweeps stay reproducible for
any worker count, which the engine's parity tests assert with the cache on.

When the sweep runs with a content-addressed store
(:class:`~repro.sweep.store.ResultStore`), this memo grows a second, on-disk
tier: a miss first consults the store's ``scenarios/`` directory (pickled
:class:`ScenarioData` keyed by the sha256 of the scenario name + resolved
config) before building, and every fresh build is persisted there — so
scenario construction is shared across worker processes, cold starts and CI
runs, not just within one worker's lifetime.

Set ``REPRO_SWEEP_SCENARIO_CACHE=0`` to disable the cache globally (every
task then rebuilds, the pre-cache behaviour; the store tier is skipped too).
"""

from __future__ import annotations

import copy
import os
from typing import Dict, Optional, Tuple

from repro.datasets.scenarios import ScenarioConfig, ScenarioData, build_scenario
from repro.registry import scenario_registry

__all__ = [
    "scenario_cache_enabled",
    "scenario_data_for",
    "clear_scenario_cache",
    "scenario_cache_info",
]

_CacheKey = Tuple[str, ScenarioConfig]

_CACHE: Dict[_CacheKey, ScenarioData] = {}
_STATS = {"hits": 0, "misses": 0, "copies": 0, "store_hits": 0}

#: Environment switch disabling the cache ("0"/"false"/"no"/"off").
ENV_FLAG = "REPRO_SWEEP_SCENARIO_CACHE"


def scenario_cache_enabled() -> bool:
    """Whether the per-worker scenario cache is enabled (default: yes)."""
    return os.environ.get(ENV_FLAG, "1").strip().lower() not in {"0", "false", "no", "off"}


def runner_mutates_scenario(runner: object) -> bool:
    """Whether *runner* declares itself scenario-mutating (unknown = mutating)."""
    return bool(getattr(runner, "mutates_scenario", True))


def scenario_data_for(
    session_config, *, mutates: bool, store: Optional[object] = None
) -> ScenarioData:
    """The scenario data for *session_config*, memoised per worker process.

    Parameters
    ----------
    session_config:
        The task's :class:`~repro.session.config.SessionConfig`; the cache
        key is its canonical scenario name plus the fully resolved
        :class:`ScenarioConfig` (scale preset + overrides + seed), so two
        tasks share an entry exactly when they would build identical data.
    mutates:
        ``True`` returns a private structural fork (copy-on-write for runners
        that perturb the network: new per-peer containers, shared immutable
        documents and queries); ``False`` returns the shared instance.
    store:
        Optional :class:`~repro.sweep.store.ResultStore`: on an in-memory
        miss the store's scenario tier is consulted before building, and a
        fresh build is persisted back, sharing construction across workers
        and cold starts.  A loaded scenario is byte-equivalent to a rebuilt
        one (the pickle is taken cache-free), so results do not depend on
        which tier answered.
    """
    name = scenario_registry.canonical_name(session_config.scenario)
    key: _CacheKey = (name, session_config.experiment_config().scenario)
    data = _CACHE.get(key)
    if data is None:
        if store is not None:
            data = store.load_scenario(name, key[1])
        if data is not None:
            _STATS["store_hits"] += 1
        else:
            data = build_scenario(name, key[1])
            _STATS["misses"] += 1
            if store is not None:
                store.save_scenario(name, key[1], data)
        _CACHE[key] = data
    else:
        _STATS["hits"] += 1
    if mutates:
        _STATS["copies"] += 1
        return copy.deepcopy(data)
    return data


def clear_scenario_cache() -> None:
    """Drop every cached scenario and reset the hit/miss counters."""
    _CACHE.clear()
    for counter in _STATS:
        _STATS[counter] = 0


def scenario_cache_info() -> Dict[str, int]:
    """Cache statistics of this process: ``size``, ``hits``, ``misses``,
    ``copies`` and ``store_hits`` (misses answered by the on-disk tier)."""
    return {"size": len(_CACHE), **_STATS}


__all__.append("runner_mutates_scenario")
