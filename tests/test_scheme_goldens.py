"""The pipelines still produce what they produced when the goldens were
written: one-stage and two-stage reports, and churned serving through
the repaired path (cases and digest in ``tests/scheme_cases.py``).

The default engines and the oracles must both give every pinned
digest.  The oracles run under ``reference_runtime.reference_engines()``:
the literal flood and a replay per center (``runtime_simulation``), the
per-node flood program and the ``Sampler`` on the seed's dense loop, no
vector population.  No distance-plane output reaches their digests: the
service still fetches a flood schedule, which the literal path ignores.

Regenerate ``tests/data/golden_schemes.json`` only for a deliberate
semantic change (``tools/capture_golden_signatures.py --schemes``).
"""

from __future__ import annotations

import json
import pathlib

import pytest

from reference_runtime import reference_engines
from scheme_cases import scheme_digests

GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_schemes.json").read_text()
)


@pytest.fixture(scope="module")
def digests():
    return scheme_digests()


@pytest.fixture(scope="module")
def oracle_digests():
    with pytest.MonkeyPatch.context() as patch:
        # The process-default store would price the constructions.
        patch.delenv("REPRO_STORE", raising=False)
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
