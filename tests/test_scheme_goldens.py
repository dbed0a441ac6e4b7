"""The pipelines still produce what they produced when the goldens were
written: one-stage and two-stage reports, and churned serving through
the repaired path (cases and digest in ``tests/scheme_cases.py``).

Regenerate ``tests/data/golden_schemes.json`` only for a deliberate
semantic change (``tools/capture_golden_signatures.py --schemes``).
"""

from __future__ import annotations

import json
import pathlib

import pytest

from scheme_cases import scheme_digests

GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_schemes.json").read_text()
)


@pytest.fixture(scope="module")
def digests():
    return scheme_digests()


def test_every_case_is_pinned(digests):
    assert sorted(digests) == sorted(GOLDENS)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_digest_matches_golden(digests, name):
    assert digests[name] == GOLDENS[name]
