"""Tests for protocol messages and the message bus accounting."""

from __future__ import annotations

from repro.overlay.messages import (
    GainReportMessage,
    GrantMessage,
    MessageBus,
    QueryMessage,
    RelocationRequestMessage,
    ResultMessage,
)


class TestMessageKinds:
    def test_kind_is_class_name(self):
        assert QueryMessage(sender="a", receiver="b").kind == "QueryMessage"
        assert GrantMessage(sender="a", receiver="b").kind == "GrantMessage"

    def test_fields_are_carried(self):
        message = ResultMessage(
            sender="p", receiver="q", query="x", cluster_id="c1", result_count=4
        )
        assert message.cluster_id == "c1"
        assert message.result_count == 4

    def test_relocation_request_defaults(self):
        message = RelocationRequestMessage(sender="rep1", receiver="rep2")
        assert message.gain == 0.0
        assert message.peer_id is None


class TestMessageBus:
    def test_counts_by_kind(self):
        bus = MessageBus()
        bus.publish(QueryMessage(sender="a", receiver="b"))
        bus.publish(QueryMessage(sender="a", receiver="c"))
        bus.publish(GainReportMessage(sender="a", receiver="b", gain=0.5))
        assert bus.count("QueryMessage") == 2
        assert bus.count("GainReportMessage") == 1
        assert bus.count("GrantMessage") == 0
        assert bus.total() == 3

    def test_record_counts_in_bulk_and_skips_zero(self):
        bus = MessageBus()
        bus.record("GrantMessage", 0)
        bus.record("GainReportMessage", 3)
        bus.publish(QueryMessage(sender="a", receiver="b"))
        bus.record("GrantMessage", 2)
        bus.record("GainReportMessage", 1)
        assert list(bus.snapshot().items()) == [
            ("GainReportMessage", 4),
            ("QueryMessage", 1),
            ("GrantMessage", 2),
        ]
        assert bus.log == []

    def test_log_disabled_by_default(self):
        bus = MessageBus()
        bus.publish(QueryMessage(sender="a", receiver="b"))
        assert bus.log == []

    def test_log_when_enabled(self):
        bus = MessageBus(keep_log=True)
        message = QueryMessage(sender="a", receiver="b")
        bus.publish(message)
        assert bus.log == [message]

    def test_reset_and_snapshot(self):
        bus = MessageBus()
        bus.publish(QueryMessage(sender="a", receiver="b"))
        snapshot = bus.snapshot()
        bus.reset()
        assert snapshot == {"QueryMessage": 1}
        assert bus.total() == 0
