"""Deterministic, platform-stable random-stream derivation.

The reproduction's headline test asserts that the *centralized* and the
*distributed* implementations of algorithm ``Sampler`` produce identical
spanners for the same seed.  That only works if both implementations draw
their randomness from the same logical streams, regardless of execution
order.  This module provides :class:`RngFactory`, which derives independent
``random.Random`` streams from a root seed and a structured key such as
``("trials", level, cluster_id)``.

Derivation uses BLAKE2b over a canonical encoding of the key, so streams
are stable across runs, platforms, and Python versions (unlike ``hash()``,
which is salted per process).

Hot loops that derive many keys under one prefix hold an
:class:`RngPrefix`; its :meth:`RngPrefix.uniforms` draws the coins of a
whole batch of int ids in one call (the churn engine's crash, drop-edge
and recovery coins, the level kernel's center coins), bit-identical to
one :meth:`RngPrefix.uniform` per id.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable

import numpy as np

_KeyPart = int | str | bytes

__all__ = ["RngFactory", "RngPrefix", "derive_seed", "stable_uniform"]


def _encode_part(part: _KeyPart) -> bytes:
    if isinstance(part, bytes):
        return b"b" + part
    if isinstance(part, bool):  # bool is an int subclass; disambiguate
        return b"o" + (b"1" if part else b"0")
    if isinstance(part, int):
        return b"i" + str(part).encode("ascii")
    if isinstance(part, str):
        return b"s" + part.encode("utf-8")
    raise TypeError(f"unsupported rng key part: {part!r}")


def derive_seed(root_seed: int, key: Iterable[_KeyPart]) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a structured key."""
    hasher = hashlib.blake2b(digest_size=8)
    hasher.update(_encode_part(root_seed))
    for part in key:
        hasher.update(b"\x00")
        hasher.update(_encode_part(part))
    return int.from_bytes(hasher.digest(), "big")


def stable_uniform(root_seed: int, key: Iterable[_KeyPart]) -> float:
    """A single deterministic uniform draw in ``[0, 1)`` for ``key``.

    Used for "public coin" constructions (e.g. the Baswana–Sen sampling
    bits) where every node must evaluate the same coin locally.
    """
    return derive_seed(root_seed, key) / 2**64


class RngPrefix:
    """A partially-applied derivation key.

    Holds a BLAKE2b hasher already fed the root seed and a key prefix;
    each call copies the hasher and appends only the suffix.  Produces
    seeds *bit-identical* to ``derive_seed(root, prefix + suffix)`` —
    this is a constant-factor shortcut for hot loops that derive many
    streams under one ``(purpose, level)`` prefix, not a new derivation
    scheme (guarded by test_rng).
    """

    __slots__ = ("_hasher",)

    def __init__(self, hasher) -> None:
        self._hasher = hasher

    def child_seed(self, *suffix: _KeyPart) -> int:
        hasher = self._hasher.copy()
        for part in suffix:
            hasher.update(b"\x00")
            hasher.update(_encode_part(part))
        return int.from_bytes(hasher.digest(), "big")

    def stream(self, *suffix: _KeyPart) -> random.Random:
        return random.Random(self.child_seed(*suffix))

    def uniform(self, *suffix: _KeyPart) -> float:
        return self.child_seed(*suffix) / 2**64

    def uniforms(self, ids: Iterable[_KeyPart]) -> np.ndarray:
        """``uniform(i)`` for every ``i`` of ``ids``, as one float64 array.

        Bit-identical to one :meth:`uniform` call per id.  A plain
        ``int`` costs one hasher copy and one update of the bytes
        :func:`_encode_part` gives it; any other part (a bool, a NumPy
        scalar) goes through :func:`_encode_part` itself, so it is
        encoded or refused exactly as :meth:`uniform` would.  The
        digests are decoded together: a 64-bit integer converts to the
        nearest double and the power-of-two scale is exact, which is
        what ``int / 2**64`` computes one id at a time.
        """
        base = self._hasher.copy()
        base.update(b"\x00")
        ints = base.copy()
        ints.update(b"i")
        int_copy = ints.copy
        digests: list[bytes] = []
        append = digests.append
        for part in ids:
            if type(part) is int:
                hasher = int_copy()
                hasher.update(b"%d" % part)
            else:
                hasher = base.copy()
                hasher.update(_encode_part(part))
            append(hasher.digest())
        words = np.frombuffer(b"".join(digests), dtype=">u8")
        return words.astype(np.float64) / 2.0**64


class RngFactory:
    """Derives independent, reproducible ``random.Random`` streams.

    >>> factory = RngFactory(7)
    >>> a = factory.stream("trials", 0, 12)
    >>> b = factory.stream("trials", 0, 12)
    >>> a.random() == b.random()
    True
    >>> factory.stream("trials", 0, 13).random() == a.random()
    False
    """

    __slots__ = ("_root_seed",)

    def __init__(self, root_seed: int) -> None:
        if not isinstance(root_seed, int):
            raise TypeError("root seed must be an int")
        self._root_seed = root_seed

    @property
    def root_seed(self) -> int:
        return self._root_seed

    def child_seed(self, *key: _KeyPart) -> int:
        return derive_seed(self._root_seed, key)

    def stream(self, *key: _KeyPart) -> random.Random:
        """Return a fresh ``random.Random`` seeded from ``key``."""
        return random.Random(self.child_seed(*key))

    def uniform(self, *key: _KeyPart) -> float:
        """A single deterministic uniform draw in ``[0, 1)``."""
        return stable_uniform(self._root_seed, key)

    def prefix(self, *key: _KeyPart) -> RngPrefix:
        """Pre-hash ``key`` so per-item suffixes derive in O(suffix)."""
        hasher = hashlib.blake2b(digest_size=8)
        hasher.update(_encode_part(self._root_seed))
        for part in key:
            hasher.update(b"\x00")
            hasher.update(_encode_part(part))
        return RngPrefix(hasher)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(root_seed={self._root_seed})"
