"""The service op vocabulary, as data: one registry, consumed everywhere.

Before this module, the op table lived in four places that could drift
silently: :data:`repro.service.wire.OP_CODES` (name -> wire code),
``MonitoringServer._OPS`` (name -> handler), ``MonitoringServer.
INLINE_OPS`` (the event-loop fast-path contract) and the shard
supervisor's ``_PASSTHROUGH_CODES`` (ops spliced as raw frames).  The
stateful fuzz tier (tests/service/stateful/) needs the same metadata a
fifth time — which ops exist, which need a live session, which create
or remove one — so the vocabulary moves here and every consumer derives
its table from :data:`OPS`:

- :data:`OP_CODES` / :data:`OP_NAMES` re-exported by ``wire``,
- :func:`handler_table` builds ``_OPS`` for the server classes (looked
  up as ``_op_<name>`` methods, so a registry entry without a handler —
  or a handler without an entry — fails at import, not in production),
- :func:`inline_ops` / :func:`passthrough_codes` for the fast-path sets,
- the state machine reads per-op legality straight off the specs.

Codes are part of the wire format: never reassign, only append.  A
code whose op was deleted stays in :data:`RESERVED_CODES` for good.
This module imports nothing outside the stdlib so that every service
module (including ``wire``) can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = [
    "OPS",
    "OP_CODES",
    "OP_NAMES",
    "BY_NAME",
    "RESERVED_CODES",
    "OpSpec",
    "handler_table",
    "inline_ops",
    "passthrough_codes",
    "vocabulary",
]


@dataclass(frozen=True, slots=True)
class OpSpec:
    """One op's wire identity plus its legality/state-transition metadata."""

    #: Wire name (the ``op`` field of a v1 line; :data:`OP_NAMES` key on v2).
    name: str
    #: v2 wire code.  Part of the frame format — append-only, never reassign.
    code: int
    #: The :class:`~repro.service.client.AsyncServiceClient` method that
    #: issues this op, or ``None`` when the client has no direct wrapper
    #: (``hello`` is issued by ``connect(wire_protocol=...)``).
    client_method: str | None
    #: Served entirely on the event loop — no executor round trip, no
    #: off-loop codec.  A documented, tested contract, not a dispatch
    #: switch (see tests/service/test_server.py's fast-path test).
    inline: bool = False
    #: Takes a ``session`` field that must name a live session.
    needs_session: bool = False
    #: A successful response mints a fresh session id.
    creates_session: bool = False
    #: Success deletes the session slot (later ops on the id fail).
    removes_session: bool = False
    #: Advances session state (steps consumed, messages charged).
    mutates: bool = False
    #: The sharded v2 front end forwards this op as a raw frame splice,
    #: routing on the fixed header alone (shard.py's pass-through path).
    passthrough: bool = False
    #: Only the sharded supervisor serves it (not in the base table).
    supervisor_only: bool = False


#: The full vocabulary.  Order is cosmetic; codes are the contract.
OPS: tuple[OpSpec, ...] = (
    OpSpec("ping", 1, "ping", inline=True),
    OpSpec("create", 2, "create_session", creates_session=True),
    OpSpec("feed", 3, "feed", needs_session=True, mutates=True, passthrough=True),
    OpSpec("advance", 4, "advance", needs_session=True, mutates=True, passthrough=True),
    OpSpec("query", 5, "query", inline=True, needs_session=True, passthrough=True),
    OpSpec("cost", 6, "cost", inline=True, needs_session=True, passthrough=True),
    OpSpec("snapshot", 7, "snapshot", needs_session=True, passthrough=True),
    OpSpec("restore", 8, "restore", creates_session=True),
    OpSpec(
        "finalize", 9, "finalize",
        needs_session=True, removes_session=True, passthrough=True,
    ),
    OpSpec(
        "close", 10, "close_session",
        inline=True, needs_session=True, removes_session=True,
    ),
    OpSpec("list", 11, "list_sessions", inline=True),
    OpSpec("shutdown", 12, "shutdown", inline=True),
    OpSpec("migrate", 13, "migrate", needs_session=True, supervisor_only=True),
    OpSpec("hello", 14, None, inline=True),
    OpSpec("metrics", 16, "metrics", inline=True),
    OpSpec("durability", 17, "durability", inline=True),
)

#: Codes of deleted ops, never to be reused: 15 was ``batch``, the
#: runtime toggle of the served cross-session feed coalescing.
RESERVED_CODES: frozenset[int] = frozenset({15})

BY_NAME: dict[str, OpSpec] = {spec.name: spec for spec in OPS}

#: name -> v2 wire code (re-exported by :mod:`repro.service.wire`).
OP_CODES: dict[str, int] = {spec.name: spec.code for spec in OPS}
#: v2 wire code -> name.
OP_NAMES: dict[int, str] = {spec.code: spec.name for spec in OPS}

if len(BY_NAME) != len(OPS) or len(OP_NAMES) != len(OPS):
    raise AssertionError("op registry has duplicate names or codes")
if RESERVED_CODES & set(OP_NAMES):
    raise AssertionError("op registry reuses a reserved code")


def vocabulary(*, supervisor: bool = False) -> frozenset[str]:
    """Op names a server of the given kind answers."""
    return frozenset(
        spec.name for spec in OPS if supervisor or not spec.supervisor_only
    )


def inline_ops() -> frozenset[str]:
    """Ops cheap enough to serve entirely on the event loop."""
    return frozenset(spec.name for spec in OPS if spec.inline)


def passthrough_codes() -> frozenset[int]:
    """Wire codes the sharded v2 front end splices without decoding."""
    return frozenset(spec.code for spec in OPS if spec.passthrough)


def handler_table(cls: type, *, supervisor: bool = False) -> "dict[str, Callable]":
    """Build a server class's ``_OPS`` dispatch table from the registry.

    Each registered op must resolve to an ``_op_<name>`` method on
    ``cls`` (inherited methods count — the shard supervisor picks up
    ``hello``/``shutdown`` from the base server).  A registry entry
    without a handler raises here, at class-definition time, so the
    vocabulary and the implementation cannot drift apart silently.
    """
    table: dict[str, Callable] = {}
    for spec in OPS:
        if spec.supervisor_only and not supervisor:
            continue
        handler = getattr(cls, f"_op_{spec.name}", None)
        if handler is None:
            raise TypeError(
                f"{cls.__name__} lacks a handler for registered op "
                f"{spec.name!r} (expected a _op_{spec.name} method)"
            )
        table[spec.name] = handler
    return table
