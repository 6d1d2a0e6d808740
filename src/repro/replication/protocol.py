"""The replication wire protocol: length-prefixed, checksummed messages.

One primary ships its durable WAL to any number of replicas over a
trivially verifiable stream.  Every message is one envelope::

    !II header:  <payload length> <crc32 of payload>
    payload:     one compact JSON object (UTF-8)

The CRC makes channel damage (bit flips, truncation by a dying proxy)
*structurally* detectable before JSON parsing is even attempted — the
same design choice as the framed WAL (:mod:`repro.storage.framing`),
applied one layer up.  A replica that sees a bad envelope raises
:class:`~repro.core.errors.ReplicationError`, quarantines the stream
(drops the connection) and re-handshakes from its last durable position;
it never guesses at a resynchronization point inside a damaged stream.

Message types
-------------
``hello``
    Replica → primary on connect: the replica's durable position
    (checkpoint ``generation`` plus ``index`` records replayed since),
    the CRC-32 of its live WAL prefix (so the primary can verify the
    replica really holds a prefix of *its* history, not a cousin's),
    the highest lease ``epoch`` it has ever synced from, and
    ``resync=True`` when the replica wants a full checkpoint ship
    regardless (set after divergence).
``welcome``
    Primary → replica: the primary's lease ``epoch`` and current
    position, plus ``resume`` — whether the replica's prefix verified
    and tailing continues from its position (otherwise a ``checkpoint``
    message follows and replay restarts from it).
``checkpoint``
    A full state ship: the checkpoint ``state`` dict and ``generation``.
    The replica replaces everything it has (WAL included) with this.
``records``
    A batch of verbatim framed WAL lines (each self-checksummed by the
    WAL framing) starting at ``from_index`` under ``generation``, plus
    the primary's post-batch position for lag accounting.  A replica
    applies a batch only when it lines up exactly with its own
    position — out-of-order delivery is a protocol violation, answered
    with quarantine + re-handshake, never reordered application.
``heartbeat``
    Primary → replica keep-alive carrying the primary's position and
    epoch; feeds the replica's staleness clock.
``error``
    Either side, before closing: a taxonomy ``code`` plus message
    (e.g. ``lease-lost`` from a fenced ex-primary).

Positions
---------
A :class:`Position` is ``(generation, index)``: the checkpoint
generation and the count of live WAL records applied on top of it.  It
is *durable* — derived purely from on-disk state, comparable across
processes — unlike the in-memory ``lattice.generation`` counter.  The
primary only ever ships bytes that are on disk in its own WAL, which is
what makes "the replica serves a committed prefix of the primary's
history" an invariant rather than an aspiration.  Both sides
fingerprint a WAL prefix with :func:`frames_crc`.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Iterable

from ..core.errors import ReplicationError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_MESSAGE_BYTES",
    "Position",
    "encode_message",
    "decode_payload",
    "frames_crc",
    "HEADER",
]

PROTOCOL_VERSION = 1

#: Hard ceiling on one message's payload; a length field beyond this is
#: channel damage (or an incompatible peer), not a real message.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: Envelope header: payload length + CRC-32, network byte order.
HEADER = struct.Struct("!II")


@dataclass(frozen=True, order=True)
class Position:
    """A durable replication position: checkpoint generation + records."""

    generation: int
    index: int

    def __str__(self) -> str:
        return f"{self.generation}:{self.index}"

    @classmethod
    def parse(cls, text: str) -> "Position":
        try:
            gen, _, idx = text.partition(":")
            position = cls(int(gen), int(idx))
        except ValueError as exc:
            raise ReplicationError(
                f"unparseable replication position {text!r}"
            ) from exc
        if position.generation < 0 or position.index < 0:
            raise ReplicationError(
                f"negative replication position {text!r}"
            )
        return position

    @property
    def zero(self) -> bool:
        return self.generation == 0 and self.index == 0


def frames_crc(frames: Iterable[bytes], crc: int = 0) -> int:
    """CRC-32 of newline-terminated WAL frames, continuing from ``crc``
    — the prefix fingerprint exchanged at handshake."""
    for frame in frames:
        crc = zlib.crc32(frame, crc)
    return crc & 0xFFFFFFFF


def encode_message(message: dict) -> bytes:
    """One wire envelope: header + JSON payload."""
    payload = json.dumps(message, sort_keys=True).encode("utf-8")
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ReplicationError(
            f"message of {len(payload)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte protocol ceiling"
        )
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return HEADER.pack(len(payload), crc) + payload


def decode_payload(payload: bytes, crc: int) -> dict:
    """Verify and parse one received payload."""
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise ReplicationError(
            f"message checksum mismatch (expected {crc:08x}); "
            f"the channel corrupted a frame"
        )
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ReplicationError(
            f"checksummed message is not JSON: {exc}"
        ) from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ReplicationError(
            f"message is not a typed object: {message!r}"
        )
    return message
