import threading
import unittest

from traced_serve import SpanRecorder


class FakeClock:
    """A clock the traced functions advance by hand."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


class SelfTimeTest(unittest.TestCase):
    def setUp(self):
        self.wall = FakeClock()
        self.cpu = FakeClock()
        self.recorder = SpanRecorder(clock=self.wall, cpu_clock=self.cpu)

    def advance(self, wall: int, cpu: int) -> None:
        self.wall.now += wall
        self.cpu.now += cpu

    def test_nested_spans_subtract_their_children(self):
        def inner(rows):
            self.advance(20, 15)

        traced_inner = self.recorder.wrap("engine.inner", inner, units=lambda rows: rows)

        def outer():
            self.advance(5, 4)
            traced_inner(3)
            self.advance(7, 6)
            traced_inner(2)

        self.recorder.wrap("session.outer", outer)()
        totals = self.recorder.totals()
        self.assertEqual(totals["session.outer"]["wall_ns"], 52)
        self.assertEqual(totals["session.outer"]["self_wall_ns"], 12)
        self.assertEqual(totals["session.outer"]["cpu_ns"], 40)
        self.assertEqual(totals["session.outer"]["self_cpu_ns"], 10)
        self.assertEqual(totals["engine.inner"]["calls"], 2)
        self.assertEqual(totals["engine.inner"]["units"], 5)
        self.assertEqual(totals["engine.inner"]["wall_ns"], 40)
        self.assertEqual(totals["engine.inner"]["self_wall_ns"], 40)

    def test_grandchildren_are_charged_to_their_own_parent(self):
        leaf = self.recorder.wrap("core.leaf", lambda: self.advance(10, 10))

        def middle():
            self.advance(1, 1)
            leaf()

        traced_middle = self.recorder.wrap("engine.middle", middle)

        def top():
            self.advance(2, 2)
            traced_middle()

        self.recorder.wrap("session.top", top)()
        totals = self.recorder.totals()
        self.assertEqual(totals["session.top"]["self_wall_ns"], 2)
        self.assertEqual(totals["engine.middle"]["self_wall_ns"], 1)
        self.assertEqual(totals["core.leaf"]["self_wall_ns"], 10)
        self.assertEqual(totals["session.top"]["wall_ns"], 13)

    def test_a_raising_span_still_closes(self):
        def boom():
            self.advance(3, 3)
            raise KeyError("x")

        traced = self.recorder.wrap("wire.boom", boom)
        outer = self.recorder.wrap("server.outer", lambda: self.assertRaises(KeyError, traced))
        outer()
        totals = self.recorder.totals()
        self.assertEqual(totals["wire.boom"]["calls"], 1)
        self.assertEqual(totals["server.outer"]["self_wall_ns"], 0)

    def test_threads_keep_separate_stacks(self):
        recorder = SpanRecorder()
        started, release = threading.Event(), threading.Event()

        def hold():
            started.set()
            release.wait(5)

        holder = threading.Thread(target=recorder.wrap("server.loop", hold))
        holder.start()
        started.wait(5)
        # Closes while the other thread's span is open: must not become its child.
        recorder.wrap("session.feed", lambda: None)()
        release.set()
        holder.join(5)
        self.assertFalse(holder.is_alive())
        totals = recorder.totals()
        loop = totals["server.loop"]
        self.assertEqual(loop["wall_ns"], loop["self_wall_ns"])
        self.assertEqual(totals["session.feed"]["calls"], 1)


if __name__ == "__main__":
    unittest.main()
