"""Additional channel-contract tests (mirror primitives, weighted costs)."""

import numpy as np
import pytest

from repro.model.channel import Channel
from repro.model.ledger import CostLedger
from repro.model.node import NodeArray
from repro.util.intervals import Interval


def make_channel(values, seed=0, **kwargs):
    nodes = NodeArray(len(values))
    nodes.deliver(np.asarray(values, dtype=float))
    led = CostLedger(**{k: v for k, v in kwargs.items() if k == "broadcast_cost"})
    base = kwargs.get("existence_base", 2.0)
    return Channel(nodes, led, seed, existence_base=base), nodes, led


class TestExistenceBelow:
    def test_collects_only_below(self):
        ch, _, _ = make_channel([1.0, 5.0, 9.0])
        assert ch.existence_extremum(5.0, lowest=True) == (0, 1.0)

    def test_exclusion_silences_lower_nodes(self):
        ch, _, _ = make_channel([1.0, 5.0, 9.0])
        assert ch.existence_extremum(9.0, lowest=True, exclude=np.array([0])) == (1, 5.0)
        assert ch.existence_extremum(9.0, lowest=True, exclude=[0, 1]) is None

    def test_silent_costs_only_the_announcement(self):
        ch, _, led = make_channel([5.0, 9.0])
        assert ch.existence_extremum(1.0, lowest=True, scope="min_protocol") is None
        assert led.node_to_server == 0 and led.messages == 1
        assert led.by_scope() == {"min_protocol": 1}
        assert led.rounds == ch.existence_rounds


class TestReportViolationsAll:
    def test_all_violators_report(self):
        ch, nodes, led = make_channel([10.0, 20.0, 30.0])
        nodes.set_filters_bulk(np.arange(3), 0.0, 15.0)
        reports = ch.report_violations_all()
        assert [r.node for r in reports] == [1, 2]
        assert led.node_to_server == 2

    def test_silent_is_free(self):
        ch, _, led = make_channel([1.0, 2.0])
        assert ch.report_violations_all() == []
        assert led.messages == 0


class TestWeightedBroadcasts:
    def test_messages_weighted(self):
        ch, _, led = make_channel([1.0, 2.0, 3.0], broadcast_cost=3)
        ch.announce()
        assert led.broadcasts == 1
        assert led.messages == 3

    def test_scope_attribution_weighted(self):
        ch, _, led = make_channel([1.0, 2.0], broadcast_cost=5)
        with led.scope("s"):
            ch.announce()
        assert led.by_scope()["s"] == 5

    def test_snapshot_carries_weight(self):
        led = CostLedger(broadcast_cost=4)
        before = led.snapshot()
        led.charge_broadcast()
        delta = led.snapshot() - before
        assert delta.messages == 4


class TestExistenceBaseVariants:
    @pytest.mark.parametrize("base", [1.5, 4.0, 16.0])
    def test_correctness_for_any_base(self, base):
        for seed in range(20):
            ch, _, _ = make_channel([0.0] * 32, seed=seed, existence_base=base)
            mask = np.zeros(32, dtype=bool)
            mask[5] = True
            assert ch.existence_any(mask)
            assert not ch.existence_any(np.zeros(32, dtype=bool))

    def test_larger_base_fewer_max_rounds(self):
        ch2, _, _ = make_channel([0.0] * 256, existence_base=2.0)
        ch8, _, _ = make_channel([0.0] * 256, existence_base=8.0)
        assert ch8._gamma < ch2._gamma


class TestFilterRoundtrip:
    def test_unicast_then_violation(self):
        ch, nodes, _ = make_channel([10.0, 50.0])
        ch.unicast_filter(1, Interval(0.0, 40.0))
        reports = ch.report_violations_all()
        assert len(reports) == 1 and reports[0].from_below
