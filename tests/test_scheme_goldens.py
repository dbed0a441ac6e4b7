"""The pipelines still produce what they produced when the goldens were
written: one-stage and two-stage reports, and churned serving through
the repaired path (cases and digest in ``tests/scheme_cases.py``).

The default engines and the oracles must both give every pinned
digest.  The oracles run under ``reference_runtime.reference_engines()``:
the literal flood and a replay per center (``runtime_simulation``), the
per-node flood program and the ``Sampler`` on the seed's dense loop, no
vector population.  No distance-plane output reaches their digests: the
service still fetches a flood schedule, which the literal path ignores.

The served cases, and the one-stage cases served by
:class:`~repro.service.SimulationService`, give the same digests
through a disk-backed :class:`~repro.store.ArtifactStore`, both when it
builds every artifact and when fresh stores on its directory read them
all back: cached ≡ fresh.

Regenerate ``tests/data/golden_schemes.json`` only for a deliberate
semantic change (``tools/capture_golden_signatures.py --schemes``).
"""

from __future__ import annotations

import json
import pathlib
from collections import Counter

import numpy as np
import pytest

from reference_runtime import reference_engines
from repro.service import SimulationService
from repro.store import (
    STORE_SCHEMA,
    ArtifactStore,
    FloodProfile,
    load_spanner,
    spanner_key,
)
from scheme_cases import (
    GRAPHS,
    one_stage_digest,
    scheme_digests,
    serve_churned,
    serve_payloads,
)

GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_schemes.json").read_text()
)


@pytest.fixture(scope="module")
def digests():
    return scheme_digests()


@pytest.fixture(scope="module")
def oracle_digests():
    with reference_engines() as calls:
        digests = scheme_digests()
    # Every construction on the dense loop (three graphs × six payloads
    # one-stage, and the two-stage H1), and every simulated flood (those
    # eighteen, the two two-stage floods and the eighteen served
    # requests, whose store prices their construction).
    assert calls["dense"] == 3 * 6 + 1
    assert calls["flood"] == 3 * 6 + 2 + 18
    return digests


def test_every_case_is_pinned(digests):
    assert sorted(digests) == sorted(GOLDENS)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_digest_matches_golden(digests, name):
    assert digests[name] == GOLDENS[name]


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_oracle_digest_matches_golden(oracle_digests, name):
    assert oracle_digests[name] == GOLDENS[name]


def _serve_through(directory) -> tuple[dict, list[ArtifactStore]]:
    """Every ``one_stage/*`` case (one service per graph) and the
    ``served/*`` sequence, each through its own fresh store on
    ``directory``: ``{case name: response}`` and the stores."""
    stores = [ArtifactStore(directory) for _ in range(len(GRAPHS) + 1)]
    responses = {}
    for store, (name, build) in zip(stores, GRAPHS.items()):
        service = SimulationService(build(), store=store, seed=3)
        responses.update(serve_payloads(service, f"one_stage/{name}"))
    responses.update(serve_churned(stores[-1]))
    return responses, stores


def test_a_disk_store_gives_every_digest_cold_and_read_back(tmp_path):
    pinned = {
        name: digest for name, digest in GOLDENS.items()
        if name.startswith(("one_stage/", "served/"))
    }
    cold, _ = _serve_through(tmp_path)
    warm, stores = _serve_through(tmp_path)
    for responses in (cold, warm):
        digests = {
            name: one_stage_digest(response.report)
            for name, response in responses.items()
        }
        assert digests == pinned
    # The second pass read each of the six spanners (three graphs, the
    # served graph before and after two epochs) and its flood profile
    # from disk once, then from memory: no build, repair or bad read.
    totals = Counter()
    for store in stores:
        totals.update(store.stats.snapshot())
    assert (totals["disk_hits"], totals["misses"], totals["corrupt"]) == (12, 0, 0)
    # Every entry left is in the current layout and decodes.
    spanners = {
        spanner_key(r.spanner.network.fingerprint(), r.spanner.params): r.spanner
        for r in warm.values()
    }
    kinds = Counter()
    for path in sorted(tmp_path.glob("*.npz")):
        with np.load(path, allow_pickle=False) as data:
            manifest = json.loads(data["manifest"].tobytes().decode("utf-8"))
        assert manifest["schema"] == STORE_SCHEMA
        kinds[manifest["kind"]] += 1
        if manifest["kind"] == "flood_profile":
            FloodProfile.from_npz(path)
        else:
            spanner = spanners[path.stem]
            assert load_spanner(path, spanner.network) == spanner
    assert kinds == {"spanner": 6, "flood_profile": 6}
