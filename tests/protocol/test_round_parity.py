"""Parity of the array-native protocol round with the per-proposal object path.

The reference below is the object path the array round replaced: proposals
in a dict, one representative per cluster choosing its request proposal by
proposal, one message object per gain report, broadcast and grant.  The
array round must reproduce it exactly — requests, grants and discards in
order, the bus counters in first-seen order, the message log of a bus that
keeps one, and every cluster's representative after the round.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.costs import NEW_CLUSTER
from repro.errors import ConfigurationError
from repro.game.model import ClusterGame
from repro.overlay.messages import (
    GainReportMessage,
    GrantMessage,
    MessageBus,
    QueryMessage,
    RelocationRequestMessage,
)
from repro.peers.configuration import ClusterConfiguration
from repro.protocol.locks import LockTable
from repro.protocol.reformulation import ReformulationProtocol
from repro.protocol.representative import elect_representatives
from repro.protocol.requests import RelocationRequest
from repro.protocol.rounds import GrantedMove, RoundResult, execute_round
from repro.strategies.altruistic import AltruisticStrategy
from repro.strategies.base import RelocationProposal, StrategyContext
from repro.strategies.batch import ProposalBatch
from repro.strategies.hybrid import HybridStrategy
from repro.strategies.selfish import SelfishStrategy

from tests.conftest import make_small_scenario, make_tiny_network

# -- the reference object path ------------------------------------------------


def reference_select(representative, proposals, *, gain_threshold, bus):
    best: Optional[RelocationProposal] = None
    for proposal in proposals:
        if bus is not None:
            bus.publish(
                GainReportMessage(
                    sender=proposal.peer_id,
                    receiver=representative.peer_id,
                    gain=proposal.gain,
                    target_cluster=proposal.target_cluster,
                )
            )
        if not proposal.is_move or proposal.gain <= gain_threshold:
            continue
        if best is None or proposal.gain > best.gain or (
            proposal.gain == best.gain and repr(proposal.peer_id) < repr(best.peer_id)
        ):
            best = proposal
    return None if best is None else RelocationRequest.from_proposal(best)


def reference_gather(configuration, proposals, *, gain_threshold, bus) -> List[RelocationRequest]:
    representatives = elect_representatives(configuration)
    requests = []
    for cluster_id, representative in sorted(
        representatives.items(), key=lambda item: repr(item[0])
    ):
        member_proposals = [
            proposals[peer_id]
            for peer_id in sorted(configuration.members(cluster_id), key=repr)
            if peer_id in proposals
        ]
        request = reference_select(
            representative, member_proposals, gain_threshold=gain_threshold, bus=bus
        )
        if request is None:
            continue
        requests.append(request)
        if bus is not None:
            for other_cluster, other_representative in representatives.items():
                if other_cluster == cluster_id:
                    continue
                bus.publish(
                    RelocationRequestMessage(
                        sender=representative.peer_id,
                        receiver=other_representative.peer_id,
                        source_cluster=request.source_cluster,
                        target_cluster=request.target_cluster,
                        gain=request.gain,
                        peer_id=request.peer_id,
                    )
                )
    return requests


def reference_round(
    configuration, proposals, *, round_number=0, gain_threshold=0.0, bus=None, enforce_locks=True
) -> RoundResult:
    result = RoundResult(round_number=round_number)
    result.requests = reference_gather(
        configuration, proposals, gain_threshold=gain_threshold, bus=bus
    )
    locks = LockTable()
    for request in sorted(result.requests, key=RelocationRequest.sort_key):
        if enforce_locks and not locks.allows(request):
            result.discarded.append(request)
            continue
        target_cluster = request.target_cluster
        created_cluster = False
        if target_cluster == NEW_CLUSTER:
            empty_slots = configuration.empty_clusters()
            if not empty_slots:
                result.discarded.append(request)
                continue
            target_cluster = empty_slots[0]
            created_cluster = True
        if target_cluster == request.source_cluster:
            result.discarded.append(request)
            continue
        configuration.move(request.peer_id, request.source_cluster, target_cluster)
        if created_cluster:
            configuration.cluster(target_cluster).elect_representative(request.peer_id)
        locks.lock_for(
            RelocationRequest(
                source_cluster=request.source_cluster,
                target_cluster=target_cluster,
                peer_id=request.peer_id,
                gain=request.gain,
            )
        )
        result.granted.append(
            GrantedMove(
                peer_id=request.peer_id,
                source_cluster=request.source_cluster,
                target_cluster=target_cluster,
                gain=request.gain,
                created_cluster=created_cluster,
            )
        )
        if bus is not None:
            bus.publish(
                GrantMessage(
                    sender=request.source_cluster,
                    receiver=target_cluster,
                    peer_id=request.peer_id,
                    source_cluster=request.source_cluster,
                    target_cluster=target_cluster,
                )
            )
    return result


# -- comparison helpers -------------------------------------------------------


def representatives_of(configuration):
    return [
        configuration.cluster(cluster_id).representative
        for cluster_id in configuration.cluster_ids()
    ]


def assert_same_round(expected: RoundResult, actual: RoundResult) -> None:
    assert actual.requests == expected.requests
    assert actual.granted == expected.granted
    assert actual.discarded == expected.discarded


def assert_same_bus(expected: MessageBus, actual: MessageBus) -> None:
    assert list(actual.snapshot().items()) == list(expected.snapshot().items())
    assert all(count > 0 for count in actual.snapshot().values())
    assert actual.log == expected.log


def run_both(configuration, proposals, *, keep_log, preseed, **kwargs):
    """Run the reference and the array round on copies; return both sides."""
    sides = []
    for runner in (reference_round, execute_round):
        copy = configuration.copy()
        bus = MessageBus(keep_log=keep_log)
        if preseed:
            bus.publish(QueryMessage(sender="x", receiver="y"))
        result = runner(copy, proposals, bus=bus, **kwargs)
        sides.append((copy, bus, result))
    return sides


# -- generated configurations ---------------------------------------------------

#: Ids whose repr order differs from their numeric order (repr(10) < repr(9)).
INT_IDS = [0, 1, 2, 3, 9, 10, 11, 19, 20, 100]
STR_IDS = ["a", "b", "B", "c1", "c10", "c2", "p", "q9", "q10", "z"]
GAINS = [0.0, 0.1, 0.25, 0.5, 0.5, 1.0, 2.0]


@st.composite
def rounds(draw):
    peer_pool = draw(st.sampled_from([INT_IDS, STR_IDS]))
    cluster_pool = draw(st.sampled_from([INT_IDS, STR_IDS]))
    peers = draw(st.lists(st.sampled_from(peer_pool), min_size=1, max_size=8, unique=True))
    clusters = draw(
        st.lists(st.sampled_from(cluster_pool), min_size=1, max_size=6, unique=True)
    )
    assignment: Dict[object, object] = {
        peer_id: draw(st.sampled_from(clusters)) for peer_id in peers
    }
    configuration = ClusterConfiguration(clusters, assignment)
    homes = {peer_id: [cluster_id] for peer_id, cluster_id in assignment.items()}
    if len(clusters) > 1 and draw(st.booleans()):
        # One peer also joins a second cluster and reports in both.
        peer_id = draw(st.sampled_from(peers))
        second = draw(st.sampled_from([c for c in clusters if c != assignment[peer_id]]))
        configuration.assign(peer_id, second)
        homes[peer_id].append(second)

    proposals = {}
    outsider = draw(st.sampled_from(peer_pool))
    candidates = peers + ([outsider] if outsider not in assignment else [])
    for peer_id in candidates:
        kind = draw(st.sampled_from(["none", "stay", "move", "move", "new"]))
        if kind == "none":
            continue
        source = draw(st.sampled_from(homes.get(peer_id, clusters)))
        if kind == "stay":
            target, gain = source, 0.0
        elif kind == "new":
            target, gain = NEW_CLUSTER, draw(st.sampled_from(GAINS))
        else:
            target, gain = draw(st.sampled_from(clusters)), draw(st.sampled_from(GAINS))
        proposals[peer_id] = RelocationProposal(
            peer_id=peer_id, source_cluster=source, target_cluster=target, gain=gain
        )
    options = {
        "gain_threshold": draw(st.sampled_from([0.0, 0.0, 0.3])),
        "enforce_locks": draw(st.booleans()),
        "round_number": draw(st.integers(min_value=0, max_value=3)),
    }
    return configuration, proposals, options


class TestGeneratedRounds:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=rounds(), keep_log=st.booleans(), preseed=st.booleans())
    def test_array_round_matches_object_path(self, case, keep_log, preseed):
        configuration, proposals, options = case
        try:
            reference_round(configuration.copy(), proposals, **options)
        except ConfigurationError:
            # A multi-membership peer can win in two clusters; without locks
            # its second grant moves it out of a cluster it already left.
            with pytest.raises(ConfigurationError):
                execute_round(configuration.copy(), proposals, **options)
            return
        (ref_config, ref_bus, expected), (new_config, new_bus, actual) = run_both(
            configuration, proposals, keep_log=keep_log, preseed=preseed, **options
        )
        assert_same_round(expected, actual)
        assert_same_bus(ref_bus, new_bus)
        assert representatives_of(new_config) == representatives_of(ref_config)
        assert new_config.signature() == ref_config.signature()

    @settings(max_examples=100, deadline=None)
    @given(case=rounds())
    def test_batch_reads_back_as_its_mapping(self, case):
        configuration, proposals, _ = case
        batch = ProposalBatch.from_proposals(proposals, configuration)
        assert dict(batch) == proposals
        assert len(batch) == len(proposals)


class TestEdgeCases:
    def test_new_cluster_without_empty_slot_is_discarded(self):
        configuration = ClusterConfiguration([10, 9], {1: 10, 2: 9})
        proposals = {
            1: RelocationProposal(peer_id=1, source_cluster=10, target_cluster=NEW_CLUSTER, gain=1.0)
        }
        (_, ref_bus, expected), (_, new_bus, actual) = run_both(
            configuration, proposals, keep_log=False, preseed=False
        )
        assert actual.discarded and actual.discarded == expected.discarded
        assert "GrantMessage" not in new_bus.snapshot()
        assert_same_bus(ref_bus, new_bus)

    def test_repr_order_decides_ties_and_elections(self):
        # repr(10) < repr(9): peer 10 is cluster 0's representative and wins the tie.
        configuration = ClusterConfiguration([0, 1], {9: 0, 10: 0})
        proposals = {
            peer_id: RelocationProposal(peer_id=peer_id, source_cluster=0, target_cluster=1, gain=0.5)
            for peer_id in (9, 10)
        }
        result = execute_round(configuration.copy(), proposals)
        assert [request.peer_id for request in result.requests] == [10]
        execute_round(configuration, proposals, gain_threshold=1.0)
        assert configuration.cluster(0).representative == 10

    def test_logged_round_order(self):
        """Gain reports per cluster in member repr order, then that cluster's broadcasts."""
        configuration = ClusterConfiguration(["c1", "c2"], {"b": "c1", "a": "c1", "c": "c2"})
        proposals = {
            "b": RelocationProposal(peer_id="b", source_cluster="c1", target_cluster="c2", gain=0.4),
            "a": RelocationProposal(peer_id="a", source_cluster="c1", target_cluster="c1", gain=0.0),
            "c": RelocationProposal(peer_id="c", source_cluster="c2", target_cluster="c1", gain=0.2),
        }
        bus = MessageBus(keep_log=True)
        execute_round(configuration, proposals, bus=bus)
        assert [(type(message).__name__, message.sender) for message in bus.log] == [
            ("GainReportMessage", "a"),
            ("GainReportMessage", "b"),
            ("RelocationRequestMessage", "a"),
            ("GainReportMessage", "c"),
            ("RelocationRequestMessage", "c"),
            ("GrantMessage", "c1"),
        ]


# -- strategies on a real scenario ------------------------------------------------


def _proposals_from_responses(game: ClusterGame):
    """The object path's selfish proposals: one BestResponse per peer, float gains."""
    proposals = {}
    for peer_id, response in game.best_responses().items():
        if response.wants_to_move:
            proposals[peer_id] = RelocationProposal(
                peer_id=peer_id,
                source_cluster=response.current_cluster,
                target_cluster=response.best_cluster,
                gain=response.gain,
            )
        else:
            proposals[peer_id] = RelocationProposal.stay(peer_id, response.current_cluster)
    return proposals


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_selfish_rounds_pin_requests_and_grants(dtype):
    """Gains are float64 differences of the kernel's costs, also for float32 kernels."""
    scenario = make_small_scenario()
    cost_model = scenario.network.cost_model()
    reference_config = scenario.network.singleton_configuration()
    protocol_config = reference_config.copy()
    protocol = ReformulationProtocol(
        cost_model, protocol_config, SelfishStrategy(), kernel_dtype=dtype
    )
    reference_protocol = ReformulationProtocol(
        cost_model, reference_config, SelfishStrategy(), kernel_dtype=dtype
    )
    for round_number in range(30):
        game = reference_protocol._build_game()
        proposals = _proposals_from_responses(game)
        expected = reference_round(reference_config, proposals, round_number=round_number)
        actual = protocol.run_round(round_number)
        assert_same_round(expected, actual)
        if actual.quiescent:
            break
    assert protocol_config.signature() == reference_config.signature()


@pytest.mark.parametrize(
    "strategy", [SelfishStrategy(), AltruisticStrategy(), HybridStrategy(weight=0.5)]
)
def test_exact_batches_gather_like_their_mappings(strategy):
    """The arrays an exact strategy fills gather exactly like its proposal objects."""
    scenario = make_small_scenario()
    cost_model = scenario.network.cost_model()
    configuration = scenario.network.singleton_configuration()
    for _ in range(10):
        game = ClusterGame(cost_model, configuration)
        batch = strategy.propose_all(configuration.peer_ids(), StrategyContext(game=game))
        assert isinstance(batch, ProposalBatch)
        reference_config = configuration.copy()
        reference_bus = MessageBus(keep_log=True)
        expected = reference_round(reference_config, dict(batch), bus=reference_bus)
        # The batch describes *configuration*, so the array round runs there.
        bus = MessageBus(keep_log=True)
        result = execute_round(configuration, batch, bus=bus)
        assert_same_round(expected, result)
        assert_same_bus(reference_bus, bus)
        assert representatives_of(configuration) == representatives_of(reference_config)
        if result.quiescent:
            break


@pytest.mark.parametrize(
    "strategy", [SelfishStrategy(), AltruisticStrategy(), HybridStrategy(weight=0.5)]
)
def test_memberships_outside_the_arrays_still_gather(strategy):
    """A multi-cluster peer the arrays cannot score still reports and is elected."""
    network = make_tiny_network()
    configuration = ClusterConfiguration(
        ["c1", "c2", "c3"], {"alice": ["c1", "c3"], "bob": "c2", "carol": "c1"}
    )
    game = ClusterGame(network.cost_model(), configuration)
    batch = strategy.propose_all(["bob", "carol"], StrategyContext(game=game))
    assert set(batch) == {"bob", "carol"}
    reference_config = configuration.copy()
    reference_bus = MessageBus()
    expected = reference_round(reference_config, dict(batch), bus=reference_bus)
    bus = MessageBus()
    actual = execute_round(configuration, batch, bus=bus)
    assert_same_round(expected, actual)
    assert_same_bus(reference_bus, bus)
    assert representatives_of(configuration) == representatives_of(reference_config)
