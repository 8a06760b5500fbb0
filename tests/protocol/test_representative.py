"""Tests for representative election and the gather (phase-1) logic."""

from __future__ import annotations

from repro.overlay.messages import MessageBus
from repro.peers.configuration import ClusterConfiguration
from repro.protocol.representative import elect_representatives, gather_requests
from repro.strategies.base import RelocationProposal


def proposal(peer, source, target, gain):
    return RelocationProposal(peer_id=peer, source_cluster=source, target_cluster=target, gain=gain)


class TestElection:
    def test_one_representative_per_nonempty_cluster(self, tiny_configuration):
        representatives = elect_representatives(tiny_configuration)
        assert set(representatives) == {"c1", "c2"}
        assert representatives["c1"].peer_id == "alice"
        assert representatives["c2"].peer_id == "bob"


class TestSelectRequest:
    """A single cluster's request choice, through the gather phase."""

    def _configuration(self):
        return ClusterConfiguration(["c1", "c2", "c3"], {"alice": "c1", "carol": "c1"})

    def _select(self, proposals, **kwargs):
        requests = gather_requests(
            self._configuration(),
            {item.peer_id: item for item in proposals},
            **kwargs,
        )
        assert len(requests) <= 1
        return requests[0] if requests else None

    def test_highest_gain_wins(self):
        selected = self._select(
            [proposal("alice", "c1", "c2", 0.2), proposal("carol", "c1", "c3", 0.7)]
        )
        assert selected.peer_id == "carol"
        assert selected.gain == 0.7

    def test_threshold_filters_requests(self):
        assert self._select([proposal("alice", "c1", "c2", 0.2)], gain_threshold=0.5) is None

    def test_stay_proposals_are_ignored(self):
        assert self._select([proposal("alice", "c1", "c1", 0.0)]) is None

    def test_gain_reports_are_accounted(self):
        bus = MessageBus()
        self._select(
            [proposal("alice", "c1", "c2", 0.2), proposal("carol", "c1", "c1", 0.0)], bus=bus
        )
        assert bus.count("GainReportMessage") == 2


class TestGatherRequests:
    def _configuration(self):
        return ClusterConfiguration(
            ["c1", "c2", "c3"], {"p1": "c1", "p2": "c1", "p3": "c2", "p4": "c3"}
        )

    def test_at_most_one_request_per_cluster(self):
        configuration = self._configuration()
        proposals = {
            "p1": proposal("p1", "c1", "c2", 0.3),
            "p2": proposal("p2", "c1", "c3", 0.6),
            "p3": proposal("p3", "c2", "c1", 0.4),
            "p4": proposal("p4", "c3", "c3", 0.0),
        }
        requests = gather_requests(configuration, proposals)
        assert len(requests) == 2
        by_source = {request.source_cluster: request for request in requests}
        assert by_source["c1"].peer_id == "p2"
        assert by_source["c2"].peer_id == "p3"

    def test_request_broadcast_is_accounted(self):
        configuration = self._configuration()
        proposals = {"p1": proposal("p1", "c1", "c2", 0.3)}
        bus = MessageBus()
        gather_requests(configuration, proposals, bus=bus)
        # The c1 representative advertises to the two other representatives.
        assert bus.count("RelocationRequestMessage") == 2

    def test_missing_proposals_are_tolerated(self):
        configuration = self._configuration()
        assert gather_requests(configuration, {}) == []
