"""Drift tests for the op registry (src/repro/service/ops.py).

The registry is the single source of truth for the op vocabulary; the
wire codec, both server classes, the shard pass-through fast path and
the async client all derive their tables from it.  These tests pin the
derivations so a new op (or a renamed handler/client method) cannot
land in one consumer without the others noticing.
"""

import inspect
import re
from pathlib import Path

import pytest

from repro.service import ops, shard, wire
from repro.service.client import AsyncServiceClient
from repro.service.server import MonitoringServer
from repro.service.shard import ShardedMonitoringServer


class TestRegistryShape:
    def test_names_and_codes_are_bijective(self):
        assert len({spec.name for spec in ops.OPS}) == len(ops.OPS)
        assert len({spec.code for spec in ops.OPS}) == len(ops.OPS)
        assert ops.OP_NAMES == {code: name for name, code in ops.OP_CODES.items()}

    def test_codes_are_append_only_and_pinned(self):
        """The v2 frame header carries these exact numbers: reassigning
        one silently breaks wire compatibility, so the full mapping is
        pinned here and may only ever gain entries."""
        assert ops.OP_CODES == {
            "ping": 1, "create": 2, "feed": 3, "advance": 4, "query": 5,
            "cost": 6, "snapshot": 7, "restore": 8, "finalize": 9,
            "close": 10, "list": 11, "shutdown": 12, "migrate": 13,
            "hello": 14, "metrics": 16, "durability": 17,
        }
        # 15 was ``batch`` (the served coalescing toggle): retired, and
        # never handed to another op.
        assert ops.RESERVED_CODES == {15}
        assert not ops.RESERVED_CODES & set(ops.OP_NAMES)

    def test_flag_consistency(self):
        for spec in ops.OPS:
            if spec.creates_session or spec.removes_session:
                assert spec.creates_session != spec.removes_session, spec.name
            if spec.removes_session or spec.mutates:
                assert spec.needs_session, spec.name
            if spec.passthrough:
                # The supervisor routes a spliced frame on its session
                # header alone — only session-addressed ops qualify.
                assert spec.needs_session, spec.name
                assert not spec.supervisor_only, spec.name


class TestDerivedTables:
    def test_wire_reexports_the_registry(self):
        assert wire.OP_CODES is ops.OP_CODES
        assert wire.OP_NAMES is ops.OP_NAMES

    def test_server_table_is_derived(self):
        assert set(MonitoringServer._OPS) == ops.vocabulary(supervisor=False)
        for name, handler in MonitoringServer._OPS.items():
            assert handler is getattr(MonitoringServer, f"_op_{name}")

    def test_supervisor_table_is_derived(self):
        assert set(ShardedMonitoringServer._OPS) == ops.vocabulary(supervisor=True)
        assert "migrate" in ShardedMonitoringServer._OPS
        assert "migrate" not in MonitoringServer._OPS
        for name, handler in ShardedMonitoringServer._OPS.items():
            assert handler is getattr(ShardedMonitoringServer, f"_op_{name}")

    def test_inline_ops_match(self):
        assert MonitoringServer.INLINE_OPS == ops.inline_ops()
        assert ops.inline_ops() <= ops.vocabulary(supervisor=True)

    def test_passthrough_codes_match(self):
        assert shard.ShardedMonitoringServer._PASSTHROUGH_CODES == ops.passthrough_codes()
        assert ops.passthrough_codes() == {
            spec.code for spec in ops.OPS if spec.passthrough
        }

    def test_handler_table_rejects_missing_handlers(self):
        class Incomplete:
            def _op_ping(self):
                pass

        with pytest.raises(TypeError, match="lacks a handler"):
            ops.handler_table(Incomplete)


class TestClientSurface:
    def test_every_op_has_its_client_method(self):
        """Each registered ``client_method`` must exist on the async
        client as a coroutine function (``hello`` alone is issued by
        ``connect``, so it carries no wrapper)."""
        for spec in ops.OPS:
            if spec.client_method is None:
                assert spec.name == "hello"
                continue
            method = getattr(AsyncServiceClient, spec.client_method)
            assert inspect.iscoroutinefunction(method), spec.name

    def test_session_ops_take_a_session_argument(self):
        for spec in ops.OPS:
            if spec.client_method is None or not spec.needs_session:
                continue
            params = inspect.signature(
                getattr(AsyncServiceClient, spec.client_method)
            ).parameters
            assert "session" in params, spec.name


class TestWireDoc:
    """docs/WIRE.md's hand-written op table must match the registry."""

    DOC = Path(__file__).resolve().parents[2] / "docs" / "WIRE.md"

    def _doc_rows(self) -> dict[int, dict]:
        rows = {}
        for line in self.DOC.read_text().splitlines():
            # | code | `op` | `client method` | inline | passthrough | notes |
            match = re.match(
                r"\|\s*(\d+)\s*\|\s*`([a-z_]+)`\s*\|\s*(`([a-z_]+)`|—)\s*"
                r"\|\s*(yes)?\s*\|\s*(yes)?\s*\|",
                line,
            )
            if match is None:
                continue
            rows[int(match.group(1))] = {
                "name": match.group(2),
                "client_method": match.group(4),
                "inline": match.group(5) == "yes",
                "passthrough": match.group(6) == "yes",
            }
        return rows

    def test_reserved_codes_stay_in_the_table(self):
        text = self.DOC.read_text()
        for code in ops.RESERVED_CODES:
            assert re.search(rf"^\|\s*{code}\s*\|\s*\*reserved\*", text, re.M), code

    def test_table_matches_registry(self):
        rows = self._doc_rows()
        assert sorted(rows) == sorted(spec.code for spec in ops.OPS), (
            "docs/WIRE.md op table is missing codes (or invents them)"
        )
        for spec in ops.OPS:
            row = rows[spec.code]
            assert row["name"] == spec.name, spec.code
            assert row["client_method"] == spec.client_method, spec.name
            assert row["inline"] == spec.inline, spec.name
            assert row["passthrough"] == spec.passthrough, spec.name
