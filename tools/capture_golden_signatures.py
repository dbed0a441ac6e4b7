"""Regenerate ``tests/data/golden_signatures.json`` (or, with
``--full``, ``tests/data/golden_full_traces.json``; with ``--schemes``,
``tests/data/golden_schemes.json``).

The golden file pins sha256 digests of centralized ``SamplerTrace``
signatures so that future optimizations of the hot paths can prove they
stayed bit-identical to the seed implementation.  Run from the repo
root::

    PYTHONPATH=src python tools/capture_golden_signatures.py
    PYTHONPATH=src python tools/capture_golden_signatures.py --full
    PYTHONPATH=src python tools/capture_golden_signatures.py --schemes

``--full`` digests the sorted spanner edges plus
``SamplerTrace.full_signature()`` — every trace field, including the
per-node degrees, draws, pool sizes and trial stats, the active/stale
edge split, cluster heights and finished records that
``signature()`` leaves out.  The committed file was captured from the
seed recount strategy, which has since left ``src/``; the tool now
refuses to write unless the serial reference in
``tests/reference_sampler.py``, which shares no code with the level
kernel, yields the same digest on every case.

``--schemes`` digests what the pipelines produce on the cases of
``tests/scheme_cases.py`` (one-stage, two-stage and churned serving);
it refuses to write unless the oracles of ``tests/reference_runtime.py``
yield the same digests: ``reference_engines()`` routes every simulation
through ``runtime_simulation`` and runs the per-node flood program and
the ``Sampler`` on the seed's dense loop with one replay per center, so
no distance-plane output and no vector population reaches the
cross-check (the service still fetches a flood schedule, which the
literal path ignores).

Only regenerate a file for a *deliberate* semantic change to the sampler
or the pipelines (and say so in the PR description) — the whole point
of the files is to freeze the existing behaviour.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from repro.core import SamplerParams, build_spanner
from repro.graphs import (
    barabasi_albert,
    caveman,
    complete_graph,
    erdos_renyi,
    random_regular,
    torus,
)

TESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests")


def signature_digest(trace) -> str:
    return hashlib.sha256(repr(trace.signature()).encode()).hexdigest()


def full_digest(result) -> str:
    """sha256 over the sorted spanner edges plus the full trace."""
    document = (tuple(sorted(result.edges)), result.trace.full_signature())
    return hashlib.sha256(repr(document).encode()).hexdigest()


def equivalence_cases() -> list[tuple[str, object, SamplerParams]]:
    return [
        ("er50", erdos_renyi(50, 0.2, seed=1), SamplerParams(k=1, h=1, seed=3)),
        ("er50-k2", erdos_renyi(50, 0.2, seed=1), SamplerParams(k=2, h=2, seed=4)),
        ("er80", erdos_renyi(80, 0.12, seed=2), SamplerParams(k=2, h=2, seed=11)),
        ("torus", torus(7, 7), SamplerParams(k=2, h=3, seed=5)),
        ("caveman", caveman(6, 6), SamplerParams(k=1, h=2, seed=6)),
        (
            "dense",
            complete_graph(60),
            SamplerParams(k=2, h=2, seed=7, c_query=0.4, c_target=0.5),
        ),
        (
            "k3",
            erdos_renyi(70, 0.15, seed=8),
            SamplerParams(k=3, h=1, seed=9, c_query=0.7, c_target=1.0),
        ),
    ]


def family_cases() -> list[tuple[str, object, SamplerParams]]:
    cases = []
    for seed in range(5):
        cases.append(
            (
                f"er60-s{seed}",
                erdos_renyi(60, 0.15, seed=seed),
                SamplerParams(k=2, h=2, seed=seed),
            )
        )
        cases.append(
            (
                f"reg64-s{seed}",
                random_regular(64, 6, seed=seed),
                SamplerParams(k=2, h=2, seed=seed + 100),
            )
        )
        cases.append(
            (
                f"ba70-s{seed}",
                barabasi_albert(70, 4, seed=seed),
                SamplerParams(k=1, h=2, seed=seed + 200),
            )
        )
    return cases


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Regenerate the sampler's golden trace digests."
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--full",
        action="store_true",
        help="write the full-trace digests (golden_full_traces.json)",
    )
    mode.add_argument(
        "--schemes",
        action="store_true",
        help="write the pipeline digests (golden_schemes.json)",
    )
    args = parser.parse_args()
    if args.schemes:
        _write("golden_schemes.json", scheme_goldens())
        return
    if args.full:
        sys.path.insert(0, TESTS)
        from reference_sampler import reference_build
    goldens: dict[str, str] = {}
    for name, net, params in equivalence_cases() + family_cases():
        if args.full:
            goldens[name] = full_digest(build_spanner(net, params))
            if full_digest(reference_build(net, params)) != goldens[name]:
                sys.exit(f"{name}: the serial reference disagrees; nothing written")
        else:
            goldens[name] = signature_digest(build_spanner(net, params).trace)
        print(f"{name}: {goldens[name][:16]}…")
    _write(
        "golden_full_traces.json" if args.full else "golden_signatures.json",
        goldens,
    )


def scheme_goldens() -> dict[str, str]:
    """The scheme digests, checked against the ``tests/`` oracles."""
    sys.path.insert(0, TESTS)
    from reference_runtime import reference_engines
    from scheme_cases import scheme_digests

    goldens = scheme_digests()
    with reference_engines() as calls:
        reference = scheme_digests()
    if not (calls["dense"] and calls["flood"]):
        sys.exit("the oracles were not reached; nothing written")
    for name, digest in goldens.items():
        if reference.get(name) != digest:
            sys.exit(f"{name}: the oracles disagree; nothing written")
        print(f"{name}: {digest[:16]}…")
    return goldens


def _write(filename: str, goldens: dict[str, str]) -> None:
    out = os.path.join(TESTS, "data", filename)
    with open(os.path.normpath(out), "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(goldens)} digests")


if __name__ == "__main__":
    main()
