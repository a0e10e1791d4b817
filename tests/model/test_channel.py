"""Unit tests for :mod:`repro.model.channel` — cost-metered primitives.

The message-accounting contracts tested here are what every competitive
measurement in the experiment suite rests on.
"""

import numpy as np

from repro.model.channel import Channel
from repro.model.ledger import CostLedger
from repro.model.node import NodeArray, VIOLATION_ABOVE, VIOLATION_BELOW
from repro.util.intervals import Interval


def make_channel(values, seed=0):
    nodes = NodeArray(len(values))
    nodes.deliver(np.asarray(values, dtype=float))
    ledger = CostLedger()
    return Channel(nodes, ledger, seed), nodes, ledger


class TestDownstream:
    def test_announce_costs_one_broadcast(self):
        ch, _, led = make_channel([1, 2, 3])
        ch.announce()
        assert led.broadcasts == 1 and led.messages == 1

    def test_broadcast_filters_single_cost(self):
        ch, nodes, led = make_channel([1, 2, 3, 4])
        ch.broadcast_filters(
            [
                (np.array([0, 1]), Interval.at_most(10.0)),
                (np.array([2, 3]), Interval.at_least(5.0)),
            ]
        )
        assert led.messages == 1
        assert nodes.get_filter(0) == Interval.at_most(10.0)
        assert nodes.get_filter(3) == Interval.at_least(5.0)

    def test_broadcast_filters_accepts_boolean_mask(self):
        ch, nodes, _ = make_channel([1, 2, 3])
        ch.broadcast_filters([(np.array([True, False, True]), Interval(0, 9))])
        assert nodes.get_filter(0) == Interval(0, 9)
        assert nodes.get_filter(1).hi == np.inf

    def test_later_groups_override(self):
        ch, nodes, _ = make_channel([1, 2])
        ch.broadcast_filters(
            [
                (np.array([0, 1]), Interval(0, 5)),
                (np.array([1]), Interval(0, 7)),
            ]
        )
        assert nodes.get_filter(1) == Interval(0, 7)

    def test_unicast_filter(self):
        ch, nodes, led = make_channel([1, 2])
        ch.unicast_filter(1, Interval(0, 3))
        assert led.server_to_node == 1 and led.messages == 1
        assert nodes.get_filter(1) == Interval(0, 3)

    def test_request_value_costs_two(self):
        ch, _, led = make_channel([7, 8])
        assert ch.request_value(1) == 8.0
        assert led.messages == 2

    def test_notify_costs_one(self):
        ch, _, led = make_channel([1, 2])
        ch.notify(0)
        assert led.server_to_node == 1


class TestExistence:
    def test_silence_costs_nothing(self):
        ch, _, led = make_channel([1, 2, 3, 4])
        assert not ch.existence_any(np.zeros(4, dtype=bool))
        assert led.messages == 0
        assert led.rounds > 0  # rounds happened, but rounds are free

    def test_fires_when_active(self):
        ch, _, led = make_channel([1, 2, 3, 4])
        assert ch.existence_any(np.array([False, True, False, False]))
        assert led.node_to_server >= 1

    def test_las_vegas_always_correct(self):
        """Over many trials, never a false negative/positive."""
        for seed in range(50):
            ch, _, _ = make_channel([1] * 8, seed=seed)
            assert ch.existence_any(np.array([False] * 7 + [True]))
            assert not ch.existence_any(np.zeros(8, dtype=bool))

    def test_expected_messages_bounded(self):
        """Lemma 3.1: E[messages] <= 6 regardless of n and b."""
        rng = np.random.default_rng(123)
        for n, b in [(64, 1), (64, 32), (64, 64), (512, 1), (512, 511)]:
            total = 0
            trials = 300
            for _ in range(trials):
                nodes = NodeArray(n)
                nodes.deliver(np.zeros(n))
                led = CostLedger()
                ch = Channel(nodes, led, rng)
                mask = np.zeros(n, dtype=bool)
                mask[:b] = True
                ch.existence_any(mask)
                total += led.messages
            mean = total / trials
            assert mean <= 7.0, f"n={n}, b={b}: mean {mean} exceeds Lemma 3.1 bound"

    def test_rounds_bounded_by_log_n(self):
        ch, _, led = make_channel([0] * 256, seed=1)
        ch.existence_any(np.ones(256, dtype=bool))
        assert led.rounds <= 9  # ceil(log2 256) + 1

    def test_existence_violations_reports_kind(self):
        ch, nodes, _ = make_channel([10.0, 50.0])
        nodes.set_filter(0, Interval.at_least(20.0))  # v=10 -> from above
        nodes.set_filter(1, Interval(0, 40.0))  # v=50 -> from below
        seen_kinds = set()
        for seed in range(30):
            ch2 = Channel(nodes, CostLedger(), seed)
            for rep in ch2.existence_violations():
                seen_kinds.add(rep.kind)
                if rep.node == 0:
                    assert rep.kind == VIOLATION_ABOVE and rep.value == 10.0
                else:
                    assert rep.kind == VIOLATION_BELOW and rep.value == 50.0
        assert seen_kinds == {VIOLATION_ABOVE, VIOLATION_BELOW}

    def test_existence_above_with_exclusion(self):
        ch, _, led = make_channel([5.0, 10.0, 20.0])
        assert ch.existence_extremum(1.0, exclude=np.array([1, 2])) == (0, 5.0)
        # announce, node 0 answers; announce 5.0, silence
        assert led.broadcasts == 2 and led.node_to_server == 1

    def test_existence_violation_silent_is_free(self):
        ch, _, led = make_channel([1.0, 2.0])
        assert ch.existence_violation(scope="violation_detection") is None
        assert led.messages == 0 and led.by_scope() == {}
        assert led.rounds == ch.existence_rounds


class TestCollect:
    def test_collect_above_cost_and_content(self):
        ch, _, led = make_channel([1.0, 5.0, 9.0, 13.0])
        ids, values = ch.collect_above(5.0)
        assert ids.tolist() == [2, 3]
        assert values.tolist() == [9.0, 13.0]
        assert led.broadcasts == 1 and led.node_to_server == 2

    def test_collect_above_nonstrict(self):
        ch, _, _ = make_channel([1.0, 5.0, 9.0])
        ids, _ = ch.collect_above(5.0, strict=False)
        assert ids.tolist() == [1, 2]

    def test_collect_below(self):
        ch, _, _ = make_channel([1.0, 5.0, 9.0])
        ids, _ = ch.collect_below(5.0)
        assert ids.tolist() == [0]

    def test_collect_between_inclusive(self):
        ch, _, _ = make_channel([1.0, 5.0, 9.0, 13.0])
        ids, _ = ch.collect_between(5.0, 9.0)
        assert ids.tolist() == [1, 2]

    def test_count_helpers(self):
        ch, _, _ = make_channel([1.0, 5.0, 9.0])
        assert ch.count_above(4.0) == 2
        assert ch.count_below(6.0) == 2

    def test_empty_collect_still_costs_query(self):
        ch, _, led = make_channel([1.0, 2.0])
        ids, _ = ch.collect_above(100.0)
        assert ids.size == 0 and led.broadcasts == 1 and led.node_to_server == 0


class TestBisectionSupport:
    def test_range_has_violator(self):
        ch, nodes, led = make_channel([10.0, 20.0, 30.0])
        nodes.set_filter(2, Interval(0.0, 25.0))  # node 2 violates
        assert not ch.range_has_violator(0, 1)
        assert ch.range_has_violator(2, 2)
        # Costs: 2 broadcasts + 1 hit reply.
        assert led.broadcasts == 2 and led.node_to_server == 1

    def test_violation_report(self):
        ch, nodes, led = make_channel([10.0, 20.0])
        nodes.set_filter(1, Interval(0.0, 15.0))
        rep = ch.violation_report(1)
        assert rep is not None and rep.from_below and rep.value == 20.0
        assert ch.violation_report(0) is None
        assert led.messages == 4  # two round trips


class TestFreeze:
    def test_broadcast_freeze(self):
        ch, nodes, led = make_channel([3.0, 4.0])
        ch.broadcast_freeze()
        assert led.broadcasts == 1
        assert nodes.get_filter(0) == Interval.point(3.0)

    def test_self_freeze_is_free(self):
        ch, nodes, led = make_channel([3.0, 4.0])
        ch.self_freeze(1)
        assert led.messages == 0
        assert nodes.get_filter(1) == Interval.point(4.0)
