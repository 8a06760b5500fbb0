"""Tests for the weighted recall matrices (fast path == exact path).

Covers the dense matrices, the factored representation and the population
decision that picks between them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import recall_matrix
from repro.core.recall_matrix import WeightedRecallMatrix, resolve_mode
from repro.errors import UnknownPeerError
from repro.game.kernel import BestResponseKernel


@pytest.fixture
def matrix(tiny_network):
    return WeightedRecallMatrix(tiny_network.recall_model(), tiny_network.workloads())


class TestConstruction:
    def test_peer_order_matches_network(self, matrix, tiny_network):
        assert matrix.peer_order == tiny_network.peer_ids()
        assert len(matrix) == 3

    def test_duplicate_peer_order_rejected(self, tiny_network):
        with pytest.raises(ValueError):
            WeightedRecallMatrix(
                tiny_network.recall_model(),
                tiny_network.workloads(),
                peer_order=["alice", "alice", "bob"],
            )

    def test_unknown_peer_raises(self, matrix):
        with pytest.raises(UnknownPeerError):
            matrix.index_of("mallory")


class TestLocalMatrix:
    def test_rows_match_exact_recall(self, matrix, tiny_network):
        """W[i, j] equals the exact frequency-weighted recall of peer j for peer i's workload."""
        model = tiny_network.recall_model()
        workloads = tiny_network.workloads()
        local = matrix.local_matrix()
        for row, issuer in enumerate(matrix.peer_order):
            workload = workloads[issuer]
            for column, provider in enumerate(matrix.peer_order):
                expected = sum(
                    (count / workload.total()) * model.recall(query, provider)
                    for query, count in workload.items()
                )
                assert local[row, column] == pytest.approx(expected)

    def test_total_weight_is_row_sum(self, matrix):
        local = matrix.local_matrix()
        for row, peer_id in enumerate(matrix.peer_order):
            assert matrix.total_weight(peer_id) == pytest.approx(local[row].sum())

    def test_recall_loss_is_total_minus_covered(self, matrix):
        covered = ["alice", "carol"]
        for peer_id in matrix.peer_order:
            loss = matrix.recall_loss(peer_id, covered)
            assert loss == pytest.approx(
                matrix.total_weight(peer_id) - matrix.covered_weight(peer_id, covered)
            )
            assert loss >= -1e-12

    def test_covered_weight_with_unknown_peers_is_ignored(self, matrix):
        assert matrix.covered_weight("alice", ["mallory"]) == 0.0


class TestGlobalMatrix:
    def test_global_rows_scale_with_workload_share(self, matrix, tiny_network):
        """V row = W row * num(Q(p)) / num(Q)."""
        workloads = tiny_network.workloads()
        total = sum(workload.total() for workload in workloads.values())
        local = matrix.local_matrix()
        global_matrix = matrix.global_matrix()
        for row, peer_id in enumerate(matrix.peer_order):
            share = workloads[peer_id].total() / total
            assert np.allclose(global_matrix[row], local[row] * share)


class TestServiceMatrix:
    def test_service_counts_match_definition(self, matrix, tiny_network):
        """S[p, j] = sum over q in Q(p_j) of num(q, Q(p_j)) * result(q, p)."""
        model = tiny_network.recall_model()
        workloads = tiny_network.workloads()
        service = matrix.service_matrix()
        for provider_index, provider in enumerate(matrix.peer_order):
            for issuer_index, issuer in enumerate(matrix.peer_order):
                expected = sum(
                    count * model.result(query, provider)
                    for query, count in workloads[issuer].items()
                )
                assert service[provider_index, issuer_index] == pytest.approx(expected)

    def test_contribution_matrix_rows_sum_to_one_or_zero(self, matrix, tiny_configuration):
        membership, _clusters = tiny_configuration.membership_matrix(matrix.peer_order)
        contributions = matrix.contribution_matrix(membership)
        for row in range(contributions.shape[0]):
            row_sum = contributions[row].sum()
            assert row_sum == pytest.approx(1.0) or row_sum == pytest.approx(0.0)

    def test_contribution_matrix_shape_validation(self, matrix):
        with pytest.raises(ValueError):
            matrix.contribution_matrix(np.zeros((2, 2)))


class TestLossMatrix:
    def test_matches_per_cluster_recall_loss(self, matrix, tiny_configuration):
        membership, clusters = tiny_configuration.membership_matrix(matrix.peer_order)
        losses = matrix.loss_matrix_for_clusters(membership)
        for row, peer_id in enumerate(matrix.peer_order):
            for column, cluster_id in enumerate(clusters):
                members = set(tiny_configuration.members(cluster_id))
                members.add(peer_id)
                expected = matrix.recall_loss(peer_id, sorted(members))
                assert losses[row, column] == pytest.approx(expected)

    def test_shape_validation(self, matrix):
        with pytest.raises(ValueError):
            matrix.loss_matrix_for_clusters(np.zeros((1, 1)))


class TestCoveredIndices:
    def test_duplicate_peer_mentions_are_counted_once(self, tiny_network):
        """The matrix path dedups covered peers exactly like the set() of the exact path."""
        model = tiny_network.cost_model(use_matrix=True)
        exact = tiny_network.cost_model(use_matrix=False)
        duplicated = ["alice", "alice", "carol", "carol"]
        assert model.recall_loss("bob", duplicated) == pytest.approx(
            exact.recall_loss("bob", duplicated)
        )
        assert model.recall_loss("bob", duplicated) == pytest.approx(
            model.recall_loss("bob", ["alice", "carol"])
        )

    def test_frozenset_translation_is_memoised(self, tiny_network):
        matrix = tiny_network.recall_matrix()
        covered = frozenset({"alice", "carol"})
        first = matrix.covered_indices(covered)
        second = matrix.covered_indices(covered)
        assert first is second


class TestFactoredRepresentation:
    @pytest.mark.parametrize("source", ["tiny", "small"])
    def test_lazy_dense_views_equal_the_eager_build(self, source, tiny_network, small_scenario):
        network = tiny_network if source == "tiny" else small_scenario.network
        arguments = (network.recall_model(), network.workloads(), network.peer_ids())
        eager = WeightedRecallMatrix(*arguments)
        lazy = WeightedRecallMatrix(*arguments, mode="factored")
        assert eager.mode == "dense" and eager.has_dense
        assert lazy.mode == "factored" and not lazy.has_dense
        for view in ("local_view", "global_view", "service_matrix"):
            assert np.array_equal(getattr(lazy, view)(), getattr(eager, view)()), view
        assert lazy.has_dense

    def test_factored_totals_match_the_dense_rows(self, small_scenario):
        network = small_scenario.network
        matrix = WeightedRecallMatrix(
            network.recall_model(), network.workloads(), network.peer_ids(), mode="factored"
        )
        factored = matrix.factored()
        assert np.allclose(factored.totals_local(), matrix.local_view().sum(axis=1))
        assert np.allclose(factored.totals_global(), matrix.global_view().sum(axis=1))
        assert np.allclose(factored.own_local(), np.diag(matrix.local_view()))


class TestModeResolution:
    def test_resolver(self):
        threshold = recall_matrix.LABELS_THRESHOLD
        assert resolve_mode(threshold - 1) == "dense"
        assert resolve_mode(threshold) == "factored"
        assert resolve_mode(1, "labels") == "factored"
        assert resolve_mode(threshold - 1, "dense") == "dense"
        assert resolve_mode(threshold, "dense") == "factored"
        assert resolve_mode(5, threshold=5) == "factored"

    def test_network_matrix_is_dense_below_the_threshold(self, tiny_network, monkeypatch):
        monkeypatch.setattr(recall_matrix, "LABELS_THRESHOLD", len(tiny_network) + 1)
        matrix = tiny_network.recall_matrix()
        assert matrix.mode == "dense" and matrix.has_dense

    def test_network_matrix_is_factored_at_the_threshold(self, tiny_network, monkeypatch):
        monkeypatch.setattr(recall_matrix, "LABELS_THRESHOLD", len(tiny_network))
        matrix = tiny_network.cost_model().matrix
        assert matrix.mode == "factored" and not matrix.has_dense

    def test_forced_labels_backend_is_factored_at_every_size(self, tiny_network):
        assert tiny_network.recall_matrix().mode == "dense"
        assert tiny_network.recall_matrix(kernel_backend="labels").mode == "factored"

    def test_kernel_auto_backend_follows_the_same_threshold(
        self, tiny_network, tiny_configuration, monkeypatch
    ):
        monkeypatch.setattr(recall_matrix, "LABELS_THRESHOLD", len(tiny_network))
        kernel = BestResponseKernel(tiny_network.cost_model(), tiny_configuration)
        assert kernel.backend == "labels"
        assert not kernel.cost_model.matrix.has_dense

    def test_forced_dense_backend_above_the_threshold_builds_only_what_it_reads(
        self, tiny_network, tiny_configuration, monkeypatch
    ):
        monkeypatch.setattr(recall_matrix, "LABELS_THRESHOLD", len(tiny_network))
        cost_model = tiny_network.cost_model(kernel_backend="dense")
        assert cost_model.matrix.mode == "factored"
        kernel = BestResponseKernel(cost_model, tiny_configuration, backend="dense")
        exact = tiny_network.cost_model(use_matrix=False)
        assert kernel.social_cost() == pytest.approx(exact.social_cost(tiny_configuration))
        assert cost_model.matrix._service is None
