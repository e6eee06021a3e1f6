"""The visible-signature state of a run: one owner for the conflict scan.

Eager conflict detection probes the read/write signatures of every
other thread on each access (DESIGN §11, "Conflict-scan prefilter").
:class:`ConflictCover` keeps what the scan needs besides the frames:

* the *visibility rule* (:func:`visible`): a lazy frame joins the scan
  only once it starts publishing;
* one pair of *cover words* per thread context: the OR of the write
  signatures of the context's visible frames, and the OR of their read
  and write signatures.  A word only has to be a **superset** of its
  context's visible bits: a missed rebuild costs speed, a missed add
  would let the prefilter answer "no conflict" wrongly;
* per word kind, ``U`` (bits set in at least one cover word) and ``M``
  (bits set in at least two), so the other contexts' union is
  ``M | (U & ~own)`` in O(1) per probe;
* the armed stall polls and the disarm-on-growth check (DESIGN §11,
  "Stall re-polls").

Slots are indexed by thread id, so mounting and parking a thread never
touches the words.
"""

from __future__ import annotations

from typing import Iterable

from repro.htm.transaction import TxFrame


def visible(frame: TxFrame) -> bool:
    """Does ``frame`` take part in conflict detection?

    Lazy transactions are invisible while executing; once they start
    publishing they hold coherence permissions, so accesses that
    conflict with a publishing committer must stall.
    """
    return frame.mode != "lazy" or bool(frame.vm.get("publishing"))


def _union_counts(words: Iterable[int]) -> tuple[int, int]:
    """(bits set in at least one word, bits set in at least two)."""
    once = twice = 0
    for word in words:
        twice |= once & word
        once |= word
    return once, twice


class ConflictCover:
    """Per-context cover words, their ``U``/``M`` summaries, the armed
    stall polls and the scan's work counters."""

    __slots__ = (
        "writes", "accesses", "write_u", "write_m", "access_u", "access_m",
        "armed", "conflict_scans", "conflict_scans_prefiltered",
    )

    def __init__(self, n_slots: int = 0) -> None:
        #: stalled cores whose next poll can skip the conflict scan and
        #: ``resolve``: core idx -> (holder idx, probe mask, probe is a
        #: write).  The dict object lives as long as the owner.
        self.armed: dict[int, tuple[int, int, bool]] = {}
        self.reset(n_slots)

    def reset(self, n_slots: int) -> None:
        """Empty words for ``n_slots`` thread contexts, nothing armed."""
        #: per slot: OR of the visible frames' write signatures
        self.writes = [0] * n_slots
        #: per slot: OR of the visible frames' read and write signatures
        self.accesses = [0] * n_slots
        self.write_u = self.write_m = 0
        self.access_u = self.access_m = 0
        self.armed.clear()
        self.conflict_scans = 0
        self.conflict_scans_prefiltered = 0

    # -- the prefilter -------------------------------------------------
    def misses(self, slot: int, mask: int, is_write: bool) -> bool:
        """True when no context but ``slot`` can hold a signature that
        contains ``mask``, so the full scan would find nothing.

        A write probe conflicts with reads and writes, a read probe
        with writes only.  Bits of ``mask`` that are in ``U`` but not in
        ``M`` are in exactly one word; if that word is the requester's
        own, no other context covers them.
        """
        self.conflict_scans += 1
        if is_write:
            u, m, own = self.access_u, self.access_m, self.accesses[slot]
        else:
            u, m, own = self.write_u, self.write_m, self.writes[slot]
        if u & mask != mask:
            self.conflict_scans_prefiltered += 1
            return True
        # mask is inside U, so the others miss exactly the bits of mask
        # that only the requester's own word holds: own & ~M
        only_own = mask & own
        if only_own and only_own & m != only_own:
            self.conflict_scans_prefiltered += 1
            return True
        return False

    # -- keeping the words a superset ----------------------------------
    def add(self, slot: int, mask: int, is_write: bool) -> None:
        """A visible frame of ``slot`` recorded a line that is new to it."""
        own = self.accesses[slot]
        new = mask & ~own
        if new:
            self.access_m |= self.access_u & new
            self.access_u |= new
            self.accesses[slot] = own | new
        if is_write:
            own = self.writes[slot]
            new = mask & ~own
            if new:
                self.write_m |= self.write_u & new
                self.write_u |= new
                self.writes[slot] = own | new

    def publish(self, slot: int, frame: TxFrame) -> None:
        """A lazy frame of ``slot`` started publishing: its signatures
        join the scan."""
        self.add(slot, frame.write_sig._word, True)
        self.add(slot, frame.read_sig._word, False)

    def rebuild(self, slot: int, frames: Iterable[TxFrame]) -> None:
        """Recompute ``slot`` from its frames where bits went away:
        outermost and open-nested commit, abort."""
        w = a = 0
        for frame in frames:
            if visible(frame):
                fw = frame.write_sig._word
                w |= fw
                a |= frame.read_sig._word | fw
        if w != self.writes[slot]:
            self.writes[slot] = w
            self.write_u, self.write_m = _union_counts(self.writes)
        if a != self.accesses[slot]:
            self.accesses[slot] = a
            self.access_u, self.access_m = _union_counts(self.accesses)

    # -- armed stall polls ---------------------------------------------
    def covered(self, j: int, frame: TxFrame) -> list[int]:
        """The armed cores whose next scan would now hit ``frame`` of
        core ``j`` before reaching their holder.

        Asked wherever a frame's visible coverage can grow: a new line,
        a nested merge, a lazy frame starting to publish.  The scan
        visits cores in index order and stops at the first hit, so only
        waiters whose holder comes after ``j`` can change outcome.
        """
        if not visible(frame):
            return []
        w = frame.write_sig._word
        r = frame.read_sig._word
        return [
            idx for idx, (holder, mask, is_write) in self.armed.items()
            if j < holder and (
                w & mask == mask or (is_write and r & mask == mask))
        ]
