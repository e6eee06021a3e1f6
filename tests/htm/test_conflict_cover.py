"""Properties of :class:`~repro.htm.conflicts.ConflictCover`.

The prefilter is exact only if ``U``/``M`` summarise the cover words
exactly and every cover word stays a superset of its context's visible
signature bits.  A small 64-bit, 2-hash signature makes probes hit
often, so "the prefilter says miss" is tested against real hits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SignatureConfig
from repro.htm.conflicts import ConflictCover, visible
from repro.htm.transaction import TxFrame
from repro.signatures.hashes import H3HashFamily

SIG = SignatureConfig(bits=64, hashes=2)
MASK = H3HashFamily.shared(SIG.hashes, SIG.bits, SIG.seed).mask
SLOTS = 4
LINES = st.integers(0, 40)
MODES = st.sampled_from(["eager", "lazy", "publishing", "snapshot"])


def _frame(mode: str) -> TxFrame:
    frame = TxFrame.create(site=0, body_factory=lambda: iter(()), depth=0,
                           timestamp=0, now=0, sig_config=SIG,
                           mode="lazy" if mode == "publishing" else mode)
    if mode == "publishing":
        frame.vm["publishing"] = True
    return frame


def _bits(frames, write_only: bool) -> int:
    word = 0
    for f in frames:
        if visible(f):
            word |= f.write_sig._word
            if not write_only:
                word |= f.read_sig._word
    return word


def _plain_hit(slots, requester: int, mask: int, is_write: bool) -> bool:
    """The literal scan: any other slot's visible frame covers ``mask``."""
    return any(
        visible(f) and (
            f.write_sig._word & mask == mask
            or (is_write and f.read_sig._word & mask == mask))
        for slot, frames in enumerate(slots) if slot != requester
        for f in frames
    )


def _check(cover: ConflictCover, slots) -> None:
    for words, u, m, write_only in (
        (cover.writes, cover.write_u, cover.write_m, True),
        (cover.accesses, cover.access_u, cover.access_m, False),
    ):
        # U is the bits set in at least one slot, M in at least two
        assert u >> SIG.bits == 0 and m >> SIG.bits == 0
        for bit in range(SIG.bits):
            holders = sum(word >> bit & 1 for word in words)
            assert (u >> bit & 1) == (holders >= 1)
            assert (m >> bit & 1) == (holders >= 2)
        # each word covers its slot's visible bits
        for word, frames in zip(words, slots):
            visible_bits = _bits(frames, write_only)
            assert word & visible_bits == visible_bits


# one step: (kind, slot, line, is_write, mode)
STEPS = st.lists(st.tuples(
    st.sampled_from(["begin", "access", "publish", "commit", "abort"]),
    st.integers(0, SLOTS - 1), LINES, st.booleans(), MODES,
), max_size=60)


@settings(max_examples=150, deadline=None)
@given(STEPS, st.lists(st.tuples(st.integers(0, SLOTS - 1), LINES,
                                 st.booleans()), min_size=1, max_size=10))
def test_adds_rebuilds_and_flips_keep_the_words_exact(steps, probes):
    cover = ConflictCover(SLOTS)
    slots: list[list[TxFrame]] = [[] for _ in range(SLOTS)]
    for kind, slot, line, is_write, mode in steps:
        frames = slots[slot]
        if kind == "begin":
            # a nested frame takes its outermost frame's mode
            frames.append(_frame(frames[0].mode if frames else mode))
        elif not frames:
            continue
        elif kind == "access":
            frame = frames[-1]
            lines = frame.write_lines if is_write else frame.read_lines
            new = line not in lines
            (frame.record_write if is_write else frame.record_read)(line)
            if new and visible(frame):
                cover.add(slot, MASK(line), is_write)
        elif kind == "publish":
            frame = frames[0]
            if frame.mode == "lazy" and not visible(frame):
                frame.vm["publishing"] = True
                cover.publish(slot, frame)
        elif kind == "commit":
            frame = frames.pop()
            if frames and not frame.open_nested and line % 2:
                frames[-1].merge_child(frame)  # closed nesting: no rebuild
            else:
                cover.rebuild(slot, frames)
        else:  # abort from a random depth
            depth = line % len(frames)
            del frames[depth + 1:]
            frames[depth].reset_for_retry(0)
            if depth == 0:
                # the retry may run in another mode (DynTM)
                frames[0].mode = "lazy" if mode == "publishing" else mode
            cover.rebuild(slot, frames)
        _check(cover, slots)
    for requester, line, is_write in probes:
        mask = MASK(line)
        if cover.misses(requester, mask, is_write):
            assert not _plain_hit(slots, requester, mask, is_write)


FRAME_SETS = st.lists(
    st.lists(st.tuples(MODES, st.lists(LINES, max_size=8),
                       st.lists(LINES, max_size=8)), max_size=3),
    min_size=1, max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(FRAME_SETS, st.lists(st.tuples(st.integers(0, 5), LINES,
                                      st.booleans()), min_size=1, max_size=20))
def test_a_prefilter_miss_is_a_plain_scan_miss(frame_sets, probes):
    slots = []
    for spec in frame_sets:
        frames = []
        for mode, reads, writes in spec:
            frame = _frame(mode)
            for line in reads:
                frame.record_read(line)
            for line in writes:
                frame.record_write(line)
            frames.append(frame)
        slots.append(frames)
    cover = ConflictCover(len(slots))
    for slot, frames in enumerate(slots):
        cover.rebuild(slot, frames)
    _check(cover, slots)
    hits = 0
    for requester, line, is_write in probes:
        requester %= len(slots)
        mask = MASK(line)
        hit = _plain_hit(slots, requester, mask, is_write)
        hits += hit
        if cover.misses(requester, mask, is_write):
            assert not hit
    assert cover.conflict_scans == len(probes)
    assert cover.conflict_scans_prefiltered <= len(probes) - hits
