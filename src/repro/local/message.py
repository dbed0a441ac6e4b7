"""Message envelopes exchanged by node programs.

The LOCAL model places no bound on message size, so payloads are
arbitrary Python objects.  What the simulator meters is the *number* of
messages.  Senders are never revealed to receivers: a node learns only
the port (edge) a message arrived on, which is exactly the information
the paper's unique-edge-ID model grants.
"""

from __future__ import annotations

from typing import Any, NamedTuple

__all__ = ["Inbound", "Outbound"]


class Inbound(NamedTuple):
    """A message as seen by the receiving node program.

    ``port`` is the receiver-side handle of the edge the message arrived
    on: the global edge id under ``EDGE_IDS``/``KT1`` knowledge, a local
    port number under ``KT0``.

    A ``NamedTuple`` rather than a dataclass: one is allocated per
    delivered message, and tuple construction skips the per-field
    ``object.__setattr__`` cost of a frozen slotted dataclass.
    """

    port: int
    payload: Any
    tag: str = ""


class Outbound(NamedTuple):
    """A message as queued by the sending node (internal to the runtime).

    The hot path (``Context.send`` → ``Runtime._collect`` → delivery)
    actually moves *bare tuples* in this field order and unpacks them
    positionally; the class documents the shape and serves any caller
    that wants named access — an ``Outbound`` instance, being a tuple,
    is interchangeable with the bare form.
    """

    eid: int
    sender: int
    payload: Any
    tag: str
