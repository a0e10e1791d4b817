"""Laws for the channel's fused existence-protocol entry points.

Each protocol built on Lemma 3.1 is one :class:`Channel` call that counts
its whole run and charges it once.  The references below are the
round-by-round loops those calls replaced — one ``charge_rounds`` /
``charge_up`` per existence run, one ``announce`` per max-protocol
iteration, the exclusion written into a fresh mask every iteration, and
every charge made inside ``with ledger.scope(...)``.  On random instances
the fused call and its reference, run on twin channels, must agree on
the result, on every ledger counter (``by_scope`` items in insertion
order included) and on the generator's state afterwards.
"""

import math

import numpy as np
import pytest

from repro.model.channel import Channel, Violation
from repro.model.ledger import CostLedger
from repro.model.node import VIOLATION_ABOVE, VIOLATION_BELOW, NodeArray

NS = [2, 3, 5, 8, 31, 32, 33, 64, 257, 1024, 4096]
BASES = [2.0, 1.5, 3.0, 10.0]


# --------------------------------------------------------------------- #
# The round-by-round references
# --------------------------------------------------------------------- #
def reference_collect(channel, active):
    """One existence run, charged round by round as before the fusion."""
    ledger, rng = channel.ledger, channel.rng
    ids = active.nonzero()[0]
    rounds = channel.existence_rounds
    if ids.size == 0:
        ledger.charge_rounds(rounds)
        return ids, np.empty(0)
    n, base = channel.n, channel.existence_base
    for r in range(rounds):
        senders = ids[rng.random(ids.size) < min(1.0, base**r / n)]
        if senders.size:
            ledger.charge_rounds(r + 1)
            ledger.charge_up(senders.size)
            return senders, channel._nodes.values[senders]
    raise AssertionError("the last round sends with probability 1")


def reference_extremum(channel, threshold, exclude, lowest, scope):
    """The announce + existence_above/below loop of Lemma 2.6."""
    values = channel._nodes.values
    best = None
    with channel.ledger.scope(scope):
        while True:
            channel.announce()
            mask = values < threshold if lowest else values > threshold
            if exclude is not None and len(exclude) > 0:
                mask[np.asarray(exclude, dtype=np.int64)] = False
            ids, heard = reference_collect(channel, mask)
            if ids.size == 0:
                return best
            j = int(heard.argmin() if lowest else heard.argmax())
            best = (int(ids[j]), float(heard[j]))
            threshold = best[1]


def reference_reports(channel):
    """Every report of one Cor. 3.2 detection run."""
    nodes = channel._nodes
    ids, values = reference_collect(channel, nodes.violating_mask())
    kinds = nodes.violation_kind()[ids]
    return [Violation(int(i), float(v), int(k)) for i, v, k in zip(ids, values, kinds)]


def reference_violation(channel, scope):
    """``existence_violations()[0]`` under the detection scope."""
    with channel.ledger.scope(scope):
        reports = reference_reports(channel)
    return reports[0] if reports else None


# --------------------------------------------------------------------- #
# Twin channels over random instances
# --------------------------------------------------------------------- #
def random_nodes(rng, n):
    """Values with ties (small integer grid) or distinct, and mixed filters.

    Filters include unbounded, point and *empty* (lo > hi) intervals, so
    some violators are outside on both sides.
    """
    nodes = NodeArray(n)
    if rng.random() < 0.5:
        values = rng.integers(0, max(2, n // 4), size=n).astype(float)
    else:
        values = rng.permutation(n).astype(float) * 1.5
    nodes.deliver(values)
    lo = rng.choice(values, size=n) - rng.integers(-2, 3, size=n)
    hi = rng.choice(values, size=n) + rng.integers(-2, 3, size=n)
    lo[rng.random(n) < 0.2] = -math.inf
    hi[rng.random(n) < 0.2] = math.inf
    quiet = rng.random(n) < rng.random()  # a random share sits inside [v, v]
    lo[quiet] = values[quiet]
    hi[quiet] = values[quiet]
    nodes.filter_lo[:] = lo
    nodes.filter_hi[:] = hi
    nodes.touch()
    return nodes


def twins(nodes, seed, base, broadcast_cost, outer):
    """Two channels over copies of ``nodes`` with identical generators."""
    pair = []
    for _ in range(2):
        copy = NodeArray(nodes.n)
        copy.deliver(nodes.values.copy())
        copy.filter_lo[:] = nodes.filter_lo
        copy.filter_hi[:] = nodes.filter_hi
        copy.version = nodes.version
        ledger = CostLedger(broadcast_cost=broadcast_cost)
        ledger._scopes.extend(outer)  # an enclosing protocol's open scopes
        pair.append(Channel(copy, ledger, np.random.default_rng(seed), existence_base=base))
    return pair


def state(channel):
    ledger = channel.ledger
    return (
        ledger.node_to_server,
        ledger.server_to_node,
        ledger.broadcasts,
        ledger.rounds,
        list(ledger._by_scope.items()),
        list(ledger._scopes),
        channel.rng.bit_generator.state,
        channel._nodes.version,
    )


def instances(n, base, count):
    rng = np.random.default_rng([n, int(base * 10)])
    for trial in range(count):
        nodes = random_nodes(rng, n)
        outer = [[], ["top_m_probe"], ["boundary_reprobe", "max_protocol"]][trial % 3]
        seed = int(rng.integers(2**32))
        yield rng, nodes, twins(nodes, seed, base, 1 + (trial % 4 == 3) * 2, outer)


def trials(n):
    return 12 if n <= 64 else 4


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("n", NS)
def test_extremum_equals_the_announce_existence_loop(n, base):
    for rng, nodes, (fused, ref) in instances(n, base, trials(n)):
        lowest = bool(rng.random() < 0.5)
        # ±inf: everyone or nobody qualifies; a value: ties at the threshold
        threshold = float(rng.choice([-math.inf, math.inf, *nodes.values[:8]]))
        pick = rng.random()
        if pick < 0.3:
            exclude = None
        elif pick < 0.4:
            exclude = np.arange(n)  # everyone silenced: an empty active set
        else:
            exclude = rng.choice(n, size=int(rng.integers(0, n)), replace=False)
        if exclude is not None and rng.random() < 0.3:
            exclude = exclude.tolist()
        scope = "min_protocol" if lowest else "max_protocol"
        got = fused.existence_extremum(threshold, exclude=exclude, lowest=lowest, scope=scope)
        want = reference_extremum(ref, threshold, exclude, lowest, scope)
        assert got == want
        assert state(fused) == state(ref)


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("n", NS)
def test_violation_equals_the_first_report(n, base):
    for _, _, (fused, ref) in instances(n, base, trials(n)):
        got = fused.existence_violation(scope="violation_detection")
        want = reference_violation(ref, "violation_detection")
        assert got == want
        assert state(fused) == state(ref)


@pytest.mark.parametrize("n", [2, 5, 32, 257, 4096])
def test_violations_equal_every_report(n):
    for _, _, (fused, ref) in instances(n, 2.0, trials(n)):
        assert fused.existence_violations() == reference_reports(ref)
        assert state(fused) == state(ref)


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("n", [2, 5, 32, 257, 4096])
def test_any_equals_one_existence_run(n, base):
    for rng, _, (fused, ref) in instances(n, base, trials(n)):
        active = rng.random(n) < rng.choice([0.0, 1.0 / n, 0.5, 1.0])
        got = fused.existence_any(active)
        ids, _ = reference_collect(ref, active)
        assert got == (ids.size > 0)
        assert state(fused) == state(ref)


def test_empty_filter_reads_above_like_the_batch():
    """A node outside an empty filter on both sides crossed from above."""
    nodes = NodeArray(3)
    nodes.deliver(np.array([5.0, 1.0, 9.0]))
    nodes.set_filters_bulk(np.arange(3), 8.0, 2.0)  # lo > hi: empty
    channel = Channel(nodes, CostLedger(), 0)
    assert nodes.violation_kind().tolist() == [VIOLATION_ABOVE, VIOLATION_ABOVE, VIOLATION_BELOW]
    seen = set()
    for _ in range(40):
        report = channel.existence_violation()
        assert report.kind == nodes.violation_kind()[report.node]
        seen.add(report.node)
    assert 0 in seen  # node 0 is outside on both sides: 5 > hi and 5 < lo


def test_a_repeated_scope_is_charged_once():
    """Nested equal scope names dedupe exactly as ``with scope`` blocks do."""
    nodes = NodeArray(16)
    nodes.deliver(np.arange(16.0))
    fused, ref = twins(nodes, 4, 2.0, 1, ["max_protocol", "top_m_probe"])
    assert fused.existence_extremum(-math.inf, scope="max_protocol") == reference_extremum(
        ref, -math.inf, None, False, "max_protocol"
    )
    assert state(fused) == state(ref)
    assert list(fused.ledger._by_scope) == ["max_protocol", "top_m_probe"]
