"""H3-style universal hash family for signature indexing.

LogTM-SE-class signatures hash a line address through k independent
members of the H3 family (an XOR of address bits selected by a random
binary matrix).  We implement it with one 64-bit random mask per output
bit, which is both faithful to the hardware and cheap in Python.

Hash families are shared and memoized: every core's signatures use the
same silicon hash matrix (as in real hardware), and conflict detection
probes the same line addresses over and over.  Two per-address caches
(bounded, oldest-first eviction) keep the hot path to a dict lookup:

* :meth:`indexes` — the k signature-bit positions, as a tuple;
* :meth:`mask` — those positions pre-OR-ed into one integer bitmask,
  which turns Bloom ``add`` into ``word |= mask`` and membership
  ``test`` into ``word & mask == mask`` — no per-bit Python loop.
"""

from __future__ import annotations

import numpy as np

#: per-family cap on memoized addresses (each entry is one dict slot)
_MEMO_LIMIT = 1 << 20


class H3HashFamily:
    """k independent H3 hash functions mapping a line address to [0, m)."""

    _shared: dict[tuple[int, int, int], "H3HashFamily"] = {}

    def __init__(self, k: int, m: int, seed: int) -> None:
        if m <= 0 or (m & (m - 1)) != 0:
            raise ValueError(f"signature size m={m} must be a power of two")
        self.k = k
        self.m = m
        self.bits = m.bit_length() - 1
        rng = np.random.default_rng(seed)
        # masks[h][b] selects the address bits XOR-ed into output bit b of hash h
        self._masks = rng.integers(
            1, 1 << 63, size=(k, self.bits), dtype=np.int64
        ).tolist()
        self._memo: dict[int, tuple[int, ...]] = {}
        self._mask_memo: dict[int, int] = {}

    @classmethod
    def shared(cls, k: int, m: int, seed: int) -> "H3HashFamily":
        """A process-wide shared instance (same silicon for every core)."""
        key = (k, m, seed)
        fam = cls._shared.get(key)
        if fam is None:
            fam = cls(k, m, seed)
            cls._shared[key] = fam
        return fam

    def indexes(self, value: int) -> tuple[int, ...]:
        """The k signature-bit positions for ``value`` (memoized)."""
        cached = self._memo.get(value)
        if cached is not None:
            return cached
        out = []
        for masks in self._masks:
            idx = 0
            for b, mask in enumerate(masks):
                idx |= (bin(value & mask).count("1") & 1) << b
            out.append(idx)
        result = tuple(out)
        memo = self._memo
        if len(memo) >= _MEMO_LIMIT:
            # bounded cache: evict the oldest insertion (dicts preserve
            # insertion order; a true LRU touch on every hit would cost
            # more than the hash it saves)
            memo.pop(next(iter(memo)))
        memo[value] = result
        return result

    def mask(self, value: int) -> int:
        """The k positions of ``value`` OR-ed into one bitmask (memoized).

        ``word | mask`` inserts the value into a Bloom word and
        ``word & mask == mask`` tests membership, each in O(1) int ops.
        """
        cached = self._mask_memo.get(value)
        if cached is not None:
            return cached
        mask = 0
        for idx in self.indexes(value):
            mask |= 1 << idx
        memo = self._mask_memo
        if len(memo) >= _MEMO_LIMIT:
            memo.pop(next(iter(memo)))
        memo[value] = mask
        return mask
