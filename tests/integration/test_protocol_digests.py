"""Bit-identity pins: every monitor's semantic state after fixed runs.

Each registered algorithm (plus the send-on-change baseline, the one
caller that acts on every existence report) runs fixed seeds over a
quiet and an escalating stream, fed through ``advance`` in 8-row blocks
the way served sessions feed it.  The digest covers what a protocol
refactor must not move:

- ledger totals, the per-step series, ``by_scope`` items in insertion
  order and the max rounds per step;
- the recorded output rows and the output-change count;
- node values, filters and the state version;
- the channel generator's bit-generator state (so draw order and count
  are pinned, not just their effect on costs).

The digest hashes a ``repr`` of plain Python values, not pickle bytes,
so it does not depend on the pickle protocol or on numpy's array
serialization.  The T2 experiment cells, which share one generator
between ``rng.permutation`` and the channel, are pinned the same way.

To re-derive a digest after an *intended* behaviour change, run this
module as a script (``PYTHONPATH=src python
tests/integration/test_protocol_digests.py``) and say in the change
log why the protocol's observable behaviour moved.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.core.naive import SendOnChangeMonitor
from repro.core.primitives import max_protocol, min_protocol, top_m_probe
from repro.experiments.exp_max import _max_cell, _probe_cell
from repro.model.channel import Channel
from repro.model.engine import MonitoringEngine
from repro.model.ledger import CostLedger
from repro.model.node import NodeArray
from repro.service import algorithms

N, K, EPS, T, BLOCK = 32, 4, 0.1, 240, 8
SEEDS = (3, 11)


def quiet_stream(seed: int) -> np.ndarray:
    """Distinct, slowly drifting values: most rows stay inside filters."""
    rng = np.random.default_rng(1000 + seed)
    units = np.tile(rng.permutation(N) * 3 + 64, (T, 1))
    moves = rng.integers(-6, 7, size=(T, N)) * (rng.random((T, N)) < 0.03)
    units = units + np.cumsum(moves, axis=0)
    return (units * 64 + np.arange(N)).astype(np.float64)


def escalating_stream(seed: int) -> np.ndarray:
    """Fresh distinct values every row, as the iid workload: every step escalates."""
    rng = np.random.default_rng(2000 + seed)
    return (rng.integers(0, 1024, size=(T, N)) * 64 + np.arange(N)).astype(np.float64)


STREAMS = {"quiet": quiet_stream, "escalating": escalating_stream}


def _make(slug: str):
    if slug == "send-on-change":
        return SendOnChangeMonitor(K), 0.0
    eps = EPS if algorithms.get(slug).uses_eps else 0.0
    return algorithms.make_algorithm(slug, K, eps), eps


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:24]


def _ledger_state(ledger: CostLedger) -> tuple:
    return (
        ledger.node_to_server,
        ledger.server_to_node,
        ledger.broadcasts,
        ledger.rounds,
        ledger.max_rounds_per_step,
        tuple(ledger._by_scope.items()),
        ledger.per_step.tolist(),
    )


def _nodes_state(nodes: NodeArray) -> tuple:
    return (nodes.values.tolist(), nodes.filter_lo.tolist(), nodes.filter_hi.tolist(), nodes.version)


def run_digest(slug: str, stream: str, seed: int) -> str:
    algorithm, eps = _make(slug)
    engine = MonitoringEngine(None, algorithm, k=K, eps=eps, seed=seed, n=N)
    engine.start()
    data = STREAMS[stream](seed)
    for lo in range(0, T, BLOCK):
        engine.advance(data[lo : lo + BLOCK], prevalidated=True)
    rng_state = engine.channel.rng.bit_generator.state
    result = engine.finalize()
    outputs = [sorted(out) for out in result.outputs]
    return _digest(
        _ledger_state(engine.ledger),
        outputs,
        result.output_changes,
        _nodes_state(engine.nodes),
        rng_state,
    )


def shared_generator_digest(seed: int) -> str:
    """The T2 cells, plus their shared-generator pattern spelled out."""
    cells = (
        _max_cell({"n": 64, "trials": 12}, seed),
        _max_cell({"n": 257, "trials": 4}, seed),
        _probe_cell({"n": 64, "m": 5, "trials": 6}, seed),
    )
    rng = np.random.default_rng(seed)
    found = []
    for n in (2, 9, 64, 300):
        values = rng.permutation(n).astype(float)
        nodes = NodeArray(n)
        nodes.deliver(values)
        ledger = CostLedger()
        channel = Channel(nodes, ledger, rng, existence_base=2.0 if n != 9 else 3.0)
        found.append(max_protocol(channel))
        found.append(min_protocol(channel, exclude=np.arange(0, n, 2)))
        found.append(top_m_probe(channel, min(n, 4)))
        found.append(max_protocol(channel, above=math.inf))
        found.append(_ledger_state(ledger))
    return _digest(cells, found, rng.bit_generator.state)


CASES = [
    *((slug, stream, seed) for slug in algorithms.available()
      for stream in STREAMS for seed in SEEDS),
    *(("send-on-change", stream, seed) for stream in STREAMS for seed in SEEDS),
]

#: Digests recorded before the existence protocol's channel entry points
#: were fused; the fused primitives must reproduce them exactly.
EXPECTED = {
    "exact-cor3.3/quiet/3": "8cda36fdcea7dc243fdebbe7",
    "exact-cor3.3/quiet/11": "e4e355d13f90c529aa6c5dcf",
    "exact-cor3.3/escalating/3": "2eea885defeba87ea76c55f2",
    "exact-cor3.3/escalating/11": "1b08d31121d250c8f2d9e9cd",
    "exact-ipdps15/quiet/3": "e728056d5ece187f4f1e1da7",
    "exact-ipdps15/quiet/11": "424f8e17dd18ff69de69629e",
    "exact-ipdps15/escalating/3": "d864c9e614b93521ddc6b01d",
    "exact-ipdps15/escalating/11": "b7407dc1967c1917dd33d0ae",
    "approx-monitor/quiet/3": "0917421f551523899fb2288c",
    "approx-monitor/quiet/11": "0950a24b87eda2a3da69ef81",
    "approx-monitor/escalating/3": "064787b636943cb8c383d022",
    "approx-monitor/escalating/11": "23b85b68ef9ad9b0e02e6081",
    "topk-protocol/quiet/3": "55f79ab18075c3d15b160351",
    "topk-protocol/quiet/11": "547ce2b76540bc8dcd1118f6",
    "topk-protocol/escalating/3": "4722ec781412ce84b465ba5f",
    "topk-protocol/escalating/11": "122e7b3f269f05da43ccd179",
    "halfeps-monitor/quiet/3": "6a1e54a90cbdf5f610d232bf",
    "halfeps-monitor/quiet/11": "c10a01369083e9ac564b9417",
    "halfeps-monitor/escalating/3": "de516451df174635b78f58b2",
    "halfeps-monitor/escalating/11": "e5bc5d7f163fa52f76ad2dd6",
    "send-always/quiet/3": "94c8e26b8bdf85924c86d65c",
    "send-always/quiet/11": "c3043d3668ad1ec380d89c74",
    "send-always/escalating/3": "69e98ceb150c8dfbdf7eac3d",
    "send-always/escalating/11": "79903083099ca60295db0d9a",
    "send-on-change/quiet/3": "d8898ab699d01e989f8bd980",
    "send-on-change/quiet/11": "15fbbf7f836d59bd3a41bcc2",
    "send-on-change/escalating/3": "9778bcd15fcb4a934fefd564",
    "send-on-change/escalating/11": "4b55d2082e7fb8b48ca04118",
}

EXPECTED_SHARED = {
    3: "13674fb5bb7dc5f2de932edd",
    11: "1b09ba71bce5e32fe69ea7f0",
}


@pytest.mark.parametrize("slug,stream,seed", CASES)
def test_monitor_state_matches_recorded_digest(slug, stream, seed):
    assert run_digest(slug, stream, seed) == EXPECTED[f"{slug}/{stream}/{seed}"]


@pytest.mark.parametrize("seed", SEEDS)
def test_shared_generator_cells_match_recorded_digest(seed):
    assert shared_generator_digest(seed) == EXPECTED_SHARED[seed]


def test_every_registered_algorithm_is_pinned():
    pinned = {key.split("/")[0] for key in EXPECTED}
    assert set(algorithms.available()) <= pinned


if __name__ == "__main__":  # print the tables above from the current code
    print("EXPECTED = {")
    for slug, stream, seed in CASES:
        print(f'    "{slug}/{stream}/{seed}": "{run_digest(slug, stream, seed)}",')
    print("}\n\nEXPECTED_SHARED = {")
    for seed in SEEDS:
        print(f'    {seed}: "{shared_generator_digest(seed)}",')
    print("}")
