"""Shared fixtures for the test suite.

The fixtures build small, deterministic networks so tests stay fast:

* ``tiny_network`` — three hand-crafted peers whose recall values are easy to
  verify by hand,
* ``small_scenario`` — a seeded synthetic scenario (16 peers, 4 categories)
  used by protocol / experiment level tests,
* ``counterexample`` — the paper's two-peer no-equilibrium instance.

Heavier, session-scoped fixtures are cached because many tests only read
them; tests that mutate state build their own copies.
"""

from __future__ import annotations

import pytest

from repro.core.documents import Document
from repro.core.queries import Query
from repro.datasets.scenarios import (
    SCENARIO_SAME_CATEGORY,
    ScenarioConfig,
    build_scenario,
)
from repro.game.equilibrium import build_two_peer_counterexample
from repro.peers.configuration import ClusterConfiguration
from repro.peers.network import PeerNetwork
from repro.peers.peer import Peer


def make_tiny_network() -> PeerNetwork:
    """Three peers with hand-checkable content and workloads.

    * ``alice`` holds two "music" documents and asks about "movies".
    * ``bob`` holds one "movies" document and asks about "music".
    * ``carol`` holds one "movies" and one "music" document and asks about "movies".
    """
    alice = Peer(
        "alice",
        documents=[
            Document(["music", "rock"], doc_id="a1", category="music"),
            Document(["music", "jazz"], doc_id="a2", category="music"),
        ],
    )
    bob = Peer(
        "bob",
        documents=[Document(["movies", "drama"], doc_id="b1", category="movies")],
    )
    carol = Peer(
        "carol",
        documents=[
            Document(["movies", "comedy"], doc_id="c1", category="movies"),
            Document(["music", "pop"], doc_id="c2", category="music"),
        ],
    )
    alice.issue_query(Query(["movies"]), 2)
    bob.issue_query(Query(["music"]), 1)
    carol.issue_query(Query(["movies"]), 1)
    return PeerNetwork([alice, bob, carol])


@pytest.fixture
def tiny_network() -> PeerNetwork:
    """A fresh three-peer network (safe to mutate)."""
    return make_tiny_network()


@pytest.fixture
def tiny_configuration(tiny_network) -> ClusterConfiguration:
    """alice+carol share cluster c1, bob is alone in c2 (c3 empty)."""
    return ClusterConfiguration(
        ["c1", "c2", "c3"], {"alice": "c1", "carol": "c1", "bob": "c2"}
    )


SMALL_SCENARIO_CONFIG = ScenarioConfig(
    num_peers=16,
    num_categories=4,
    documents_per_peer=5,
    terms_per_document=4,
    category_vocabulary_size=20,
    queries_per_peer=3,
    seed=5,
)


@pytest.fixture(scope="session")
def small_scenario():
    """A small same-category scenario shared (read-only) across tests."""
    return build_scenario(SCENARIO_SAME_CATEGORY, SMALL_SCENARIO_CONFIG)


def make_small_scenario(**overrides):
    """Build a fresh copy of the small scenario (for tests that mutate it)."""
    config = SMALL_SCENARIO_CONFIG
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    return build_scenario(SCENARIO_SAME_CATEGORY, config)


@pytest.fixture
def counterexample():
    """The paper's two-peer no-equilibrium instance (alpha = 1)."""
    return build_two_peer_counterexample(alpha=1.0)


def process_pool(max_workers: int) -> dict:
    """The executor spec of a process pool with *max_workers* workers."""
    return {"name": "process-pool", "options": {"max_workers": max_workers}}
