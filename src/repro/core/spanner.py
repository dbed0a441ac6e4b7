"""The result object returned by both ``Sampler`` drivers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.params import SamplerParams
from repro.core.trace import SamplerTrace
from repro.local.metrics import MessageStats
from repro.local.network import Network

__all__ = ["SpannerResult"]


@dataclass(frozen=True)
class SpannerResult:
    """A constructed spanner ``H = (V, S)`` plus execution evidence.

    ``messages`` is ``None`` for the centralized driver and holds the
    exact message counts of the distributed construction otherwise:
    metered by ``build_spanner_distributed`` or priced by
    ``build_spanner_priced``, equal by contract (DESIGN.md §3.15).
    ``rounds`` follows the same convention.

    ``provenance`` is the fingerprint chain of ancestor *graphs* a
    repaired spanner descends from, oldest first (empty for a fresh
    build).  It is excluded from equality: a repaired result that is
    bit-identical to a fresh build on the same graph *compares* equal —
    the repair layer's headline contract — while still carrying its
    lineage for the store and the service metrics.
    """

    network: Network
    params: SamplerParams
    edges: frozenset[int]
    trace: SamplerTrace
    messages: MessageStats | None = None
    rounds: int | None = None
    provenance: tuple[str, ...] = field(default=(), compare=False)

    @property
    def size(self) -> int:
        """``|S|`` — the number of spanner edges."""
        return len(self.edges)

    @property
    def stretch_bound(self) -> int:
        """Theorem 9's whp stretch guarantee: ``2 * 3^k - 1``."""
        return self.params.stretch_bound

    def subnetwork(self) -> Network:
        """The spanner as a :class:`Network` (edge ids preserved)."""
        return self.network.subnetwork(self.edges, name=f"{self.network.name}|spanner")

    def density_ratio(self) -> float:
        """``|S| / |E|`` — how much of the graph the spanner keeps."""
        return self.size / max(1, self.network.m)

    def summary(self) -> str:
        parts = [
            f"spanner over {self.network.name}:",
            f"  |V|={self.network.n} |E|={self.network.m} |S|={self.size}",
            f"  stretch bound={self.stretch_bound} (k={self.params.k}, h={self.params.h})",
            f"  level populations={self.trace.populations}",
        ]
        if self.messages is not None:
            parts.append(
                f"  messages={self.messages.total} rounds={self.rounds}"
            )
        return "\n".join(parts)
