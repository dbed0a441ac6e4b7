"""The pipelines still produce what they produced when the goldens were
written: one-stage and two-stage reports, and churned serving through
the repaired path (cases and digest in ``tests/scheme_cases.py``).

The default engines and the oracle engines (:data:`ORACLE`: the literal
flood program and a replay per center on the per-node interpreter,
which touch no distance-plane code) must both give every pinned digest.

Regenerate ``tests/data/golden_schemes.json`` only for a deliberate
semantic change (``tools/capture_golden_signatures.py --schemes``).
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.execution import Exec
from scheme_cases import scheme_digests

GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_schemes.json").read_text()
)

ORACLE = Exec(flood_engine="runtime", round_engine="reference")


@pytest.fixture(scope="module")
def digests():
    return scheme_digests()


@pytest.fixture(scope="module")
def oracle_digests():
    return scheme_digests(ORACLE)


def test_every_case_is_pinned(digests):
    assert sorted(digests) == sorted(GOLDENS)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_digest_matches_golden(digests, name):
    assert digests[name] == GOLDENS[name]


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_oracle_digest_matches_golden(oracle_digests, name):
    assert oracle_digests[name] == GOLDENS[name]
