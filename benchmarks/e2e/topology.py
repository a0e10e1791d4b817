"""Server topologies as process groups, plus what ``/proc`` says about them.

Every topology is spawned with ``start_new_session=True``, so the serve
process, its shard workers and multiprocessing's resource tracker share
one process group that :meth:`Topology.kill` can ``killpg`` as a unit
and then wait out member by member.  SIGKILLing only a supervisor would
orphan its worker, which then keeps a core busy (and, with an inherited
pipe, keeps its parent's reader waiting) long after the run.

Each spawned process carries :data:`MARKER` in its environment; the
preflight refuses to start while any process carrying it — or any
``repro.experiments serve`` — is still alive.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
import time
from pathlib import Path

__all__ = [
    "MARKER",
    "Topology",
    "cpu_seconds",
    "group_pids",
    "preflight",
    "vmhwm_mib",
]

#: Environment marker of every process the benchmark spawns.
MARKER = "REPRO_E2E_BENCH"

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Seconds a fresh topology may take to print its ``serving on`` line.
START_TIMEOUT = 60.0


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the command name (state first)."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw[raw.rindex(")") + 2 :].split()


def _pids() -> list[int]:
    return [int(p) for p in os.listdir("/proc") if p.isdigit()]


def group_pids(pgid: int) -> list[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
    out = []
    for pid in _pids():
        fields = _stat_fields(pid)
        if fields and int(fields[2]) == pgid and fields[0] != "Z":
            out.append(pid)
    return out


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU seconds consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields:
            total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _CLK_TCK


def vmhwm_mib(pids: list[int]) -> float:
    """Σ peak resident set size (``VmHWM``) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024


def _strays() -> list[str]:
    """Descriptions of live processes from an earlier benchmark or server."""
    found = []
    me = os.getpid()
    for pid in _pids():
        if pid == me:
            continue
        try:
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue
        served = b"repro.experiments\0serve" in cmdline or b"traced_serve.py" in cmdline
        marked = False
        if not served:
            try:
                marked = f"{MARKER}=".encode() in Path(f"/proc/{pid}/environ").read_bytes()
            except OSError:
                pass
        if (served or marked) and (_stat_fields(pid) or ["Z"])[0] != "Z":
            command = cmdline.replace(b"\0", b" ").decode(errors="replace")
            found.append(f"{pid}: {command[:120]}")
    return found


def preflight(grace: float = 10.0) -> None:
    """Refuse to start next to a stray server: it would share the cores."""
    deadline = time.monotonic() + grace
    strays = _strays()
    while strays and time.monotonic() < deadline:
        time.sleep(0.2)
        strays = _strays()
    if strays:
        raise RuntimeError(
            "stray server processes are alive; stop them before benchmarking:\n  "
            + "\n  ".join(strays)
        )


class Topology:
    """One spawned server (single process or supervisor + workers)."""

    def __init__(self, root: Path, argv: list[str], log: Path, env: dict[str, str]):
        self.root = root
        self.argv = argv
        self.log = log
        self.env = {**os.environ, **env, MARKER: "1"}
        self.process: asyncio.subprocess.Process | None = None
        self._stdout_task: asyncio.Task | None = None

    @property
    def pgid(self) -> int:
        assert self.process is not None
        return self.process.pid

    def pids(self) -> list[int]:
        return group_pids(self.pgid) if self.process is not None else []

    async def start(self) -> int:
        """Spawn and wait for ``serving on host:port``; returns the port."""
        with open(self.log, "ab") as log:
            self.process = await asyncio.create_subprocess_exec(
                sys.executable, *self.argv,
                cwd=self.root, env=self.env, start_new_session=True,
                stdin=asyncio.subprocess.DEVNULL, stdout=asyncio.subprocess.PIPE,
                stderr=log,
            )
        announced = asyncio.get_running_loop().create_future()
        self._stdout_task = asyncio.create_task(self._read_stdout(announced))
        return await asyncio.wait_for(announced, START_TIMEOUT)

    async def _read_stdout(self, announced: asyncio.Future) -> None:
        """Read every stdout line (a full pipe would block the server)."""
        assert self.process is not None and self.process.stdout is not None
        while True:
            line = await self.process.stdout.readline()
            if not line:
                break
            text = line.decode(errors="replace").strip()
            if text.startswith("serving on ") and not announced.done():
                announced.set_result(int(text.rsplit(":", 1)[1]))
        if not announced.done():
            announced.set_exception(RuntimeError(
                f"server exited before announcing itself; see {self.log}"
            ))

    async def wait(self, timeout: float) -> int | None:
        """Wait for the serve process to exit; ``None`` on timeout."""
        assert self.process is not None
        try:
            return await asyncio.wait_for(self.process.wait(), timeout)
        except asyncio.TimeoutError:
            return None

    async def kill(self) -> None:
        """SIGKILL the whole group and wait until every member is gone."""
        if self.process is None:
            return
        pgid = self.pgid
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        await self.process.wait()
        if self._stdout_task is not None:
            await asyncio.gather(self._stdout_task, return_exceptions=True)
        deadline = time.monotonic() + 10
        while group_pids(pgid) and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        if group_pids(pgid):
            raise RuntimeError(f"process group {pgid} survived SIGKILL")
