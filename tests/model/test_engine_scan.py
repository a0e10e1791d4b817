"""The scan law: ``advance``'s time-axis scan ≡ stepping every row, bit for bit.

:meth:`~repro.model.engine.MonitoringEngine.advance` compares windows of
rows against the standing filters, replays each run of rows inside them
as quiet steps in one ledger call, and runs only the violating rows
through the serial ``_step``.  The law it must satisfy: after every
block the engine is indistinguishable from a twin that stepped each row
(the loop ``advance`` ran before the scan existed) — same outputs, same
costs, and the same pickle bytes, because session checkpoints are
compared as raw bytes by the differential fuzz tier.
"""

import pickle

import numpy as np
import pytest

from repro.core import ApproxTopKMonitor, ExactTopKMonitor, HalfEpsMonitor, TopKMonitor
from repro.core.naive import SendOnChangeMonitor
from repro.model import engine as engine_mod
from repro.model.engine import MonitoringEngine

N, K, EPS = 8, 2, 0.25

ALGORITHMS = {
    "approx": lambda: ApproxTopKMonitor(K, EPS),
    "exact-cor3.3": lambda: ExactTopKMonitor(K),
    "exact-ipdps15": lambda: ExactTopKMonitor(K, use_existence=False),
    "topk": lambda: TopKMonitor(K, EPS),
    "halfeps": lambda: HalfEpsMonitor(K, EPS),
    "send-on-change": lambda: SendOnChangeMonitor(K),
}
BLOCK_SIZES = [1, 2, 3, 4, 5, 8, 63, 64, 65, 4096]


def make_engine(factory, *, seed=5, record_outputs=True, check=False):
    eng = MonitoringEngine(
        None, factory(), k=K, eps=EPS, seed=seed, n=N,
        record_outputs=record_outputs, check=check,
    )
    eng.start()
    return eng


def step_rows(engine, block):
    """The reference: one serial protocol step per row."""
    for row in block:
        engine._step(row, False)
    return engine.steps_done


def regime_stream(T, seed=0):
    """Quiet runs of 1–300 rows between short bursts of fresh values.

    Runs either repeat one row exactly (quiet even under send-on-change's
    point filters) or jitter it slightly (quiet under the interval filters
    of the top-k monitors, mostly).  Bursts draw fresh rows, which
    violate; a run may straddle any block boundary.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((T, N))
    row = rng.uniform(100, 1000, N)
    t = 0
    while t < T:
        kind = rng.random()
        if kind < 0.2:
            seg = rng.uniform(100, 1000, (int(rng.integers(1, 12)), N))
            row = seg[-1]
        else:
            length = int(rng.integers(1, 300))
            noise = rng.normal(0, 1e-3, (length, N)) if kind < 0.6 else 0.0
            seg = row + np.zeros((length, N)) + noise
        take = min(seg.shape[0], T - t)
        out[t : t + take] = seg[:take]
        t += take
    return out


def blob(engine):
    return pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)


def assert_twins(got, want):
    assert got.steps_done == want.steps_done
    assert got.ledger.per_step.tolist() == want.ledger.per_step.tolist()
    assert blob(got) == blob(want)


@pytest.mark.parametrize("record", [True, False], ids=["record", "norecord"])
@pytest.mark.parametrize("size", BLOCK_SIZES)
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_scan_equals_stepping_every_row(algo, size, record):
    factory = ALGORITHMS[algo]
    data = regime_stream(max(600, 2 * size + 5), seed=size)
    scanned = make_engine(factory, record_outputs=record)
    stepped = make_engine(factory, record_outputs=record)
    assert scanned.batchable
    for lo in range(0, data.shape[0], size):
        block = data[lo : lo + size]
        assert scanned.advance(block, prevalidated=True) == step_rows(stepped, block)
        assert_twins(scanned, stepped)
    a, b = scanned.finalize(), stepped.finalize()
    assert a.messages == b.messages
    assert a.output_changes == b.output_changes
    assert a.ledger.by_scope() == b.ledger.by_scope()
    if record:
        assert np.array_equal(a.outputs_array, b.outputs_array)


def test_scan_replays_long_quiet_runs_in_bulk(monkeypatch):
    """The law above is not vacuous: long runs take the bulk replay."""
    replays, steps = [], []
    record = MonitoringEngine._record_quiet_steps
    step = MonitoringEngine._step

    def spy_record(self, count, rounds):
        replays.append(count)
        return record(self, count, rounds)

    def spy_step(self, values, validate):
        steps.append(self._t)
        return step(self, values, validate)

    monkeypatch.setattr(MonitoringEngine, "_record_quiet_steps", spy_record)
    monkeypatch.setattr(MonitoringEngine, "_step", spy_step)
    data = regime_stream(4096, seed=1)
    eng = make_engine(ALGORITHMS["approx"])
    eng.advance(data)
    assert sum(replays) + len(steps) == 4096
    assert len(steps) < 4096 // 4
    assert max(replays) > 64  # the window kept doubling through a quiet run


def test_quiet_run_outgrows_row_buffer():
    """A bulk replay longer than the open-ended row buffer grows it."""
    T = engine_mod._INITIAL_ROWS * 3 + 17
    rng = np.random.default_rng(7)
    data = np.abs(500.0 + rng.normal(0, 1e-6, size=(T, N)))
    data[1:] = data[1]  # after the start, every row is quiet
    scanned = make_engine(ALGORITHMS["approx"])
    stepped = make_engine(ALGORITHMS["approx"])
    scanned.advance(data, prevalidated=True)
    step_rows(stepped, data)
    assert scanned._rows.shape[0] >= T
    assert_twins(scanned, stepped)


class _GrowsIrregular(ExactTopKMonitor):
    """Outputs k+1 ids once it has handled a few violations.

    The switch depends only on escalated steps, so the quiet-step
    contract still holds; after it the engine leaves the scan.
    """

    def output(self):
        out = super().output()
        if self.violations_handled < 4:
            return out
        return out | {min(set(range(N)) - out)}


class _FailsLater(ExactTopKMonitor):
    """Raises inside an escalated step once its third phase would start."""

    def _new_phase(self):
        if self.phases >= 2:
            raise RuntimeError("injected protocol fault")
        super()._new_phase()


@pytest.mark.parametrize("size", [3, 64, 4096])
def test_irregular_outputs_leave_the_scan(size):
    data = regime_stream(900, seed=4)
    scanned = make_engine(lambda: _GrowsIrregular(K))
    stepped = make_engine(lambda: _GrowsIrregular(K))
    for lo in range(0, data.shape[0], size):
        block = data[lo : lo + size]
        scanned.advance(block, prevalidated=True)
        step_rows(stepped, block)
        # Past the switch too: the dead row buffer is dropped, so no
        # uninitialised memory reaches the pickle.
        assert_twins(scanned, stepped)
    assert scanned._irregular and not scanned.batchable
    assert scanned._rows is None
    a, b = scanned.finalize(), stepped.finalize()
    assert a.outputs == b.outputs
    assert a.output_changes == b.output_changes


@pytest.mark.parametrize("size", [5, 65, 4096])
def test_step_raising_mid_block_leaves_the_stepped_state(size):
    data = regime_stream(2000, seed=2)
    scanned = make_engine(lambda: _FailsLater(K))
    stepped = make_engine(lambda: _FailsLater(K))
    for lo in range(0, data.shape[0], size):
        block = data[lo : lo + size]
        try:
            scanned.advance(block, prevalidated=True)
        except RuntimeError as exc:
            assert "injected" in str(exc)
            with pytest.raises(RuntimeError, match="injected"):
                step_rows(stepped, block)
            assert lo <= scanned.steps_done < lo + block.shape[0]
            assert_twins(scanned, stepped)
            return
        step_rows(stepped, block)
        assert_twins(scanned, stepped)
    pytest.fail("the injected fault never fired")


def test_check_mode_verifies_every_row(monkeypatch):
    verified = []
    verify = MonitoringEngine._verify

    def spy(self, t, out):
        verified.append(t)
        return verify(self, t, out)

    monkeypatch.setattr(MonitoringEngine, "_verify", spy)
    data = regime_stream(700, seed=3)
    eng = make_engine(ALGORITHMS["approx"], check=True)
    assert not eng.batchable
    for lo in range(0, 700, 64):
        eng.advance(data[lo : lo + 64], prevalidated=True)
    assert verified == list(range(700))
