"""Unit + property tests for Bloom signatures (incl. Figure 5 semantics)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signatures.bloom import BloomSignature, CountingSummarySignature
from repro.signatures.hashes import H3HashFamily


def test_hash_family_requires_power_of_two():
    with pytest.raises(ValueError):
        H3HashFamily(4, 1000, seed=1)


def test_hash_family_deterministic():
    a = H3HashFamily(4, 2048, seed=5)
    b = H3HashFamily(4, 2048, seed=5)
    assert a.indexes(0xDEADBEEF) == b.indexes(0xDEADBEEF)


def test_hash_family_shared_instance():
    a = H3HashFamily.shared(4, 2048, seed=9)
    b = H3HashFamily.shared(4, 2048, seed=9)
    assert a is b


def test_hash_indexes_in_range():
    fam = H3HashFamily(4, 2048, seed=3)
    for v in range(0, 10_000, 97):
        assert all(0 <= i < 2048 for i in fam.indexes(v))


def test_empty_signature_rejects_everything():
    sig = BloomSignature(2048, 4)
    assert not sig.test(123)
    assert sig.is_empty


def test_no_false_negatives_small():
    sig = BloomSignature(2048, 4)
    values = list(range(0, 4000, 61))
    for v in values:
        sig.add(v)
    assert all(sig.test(v) for v in values)
    # the precomputed-mask path answers exactly like test()
    for v in range(0, 8000, 37):
        assert sig.test_mask(sig.line_mask(v)) == sig.test(v)


@given(st.lists(st.integers(min_value=0, max_value=1 << 40), max_size=200))
@settings(max_examples=50, deadline=None)
def test_property_no_false_negatives(values):
    sig = BloomSignature(2048, 4)
    for v in values:
        sig.add(v)
    assert all(sig.test(v) for v in values)


def test_clear_resets():
    sig = BloomSignature(2048, 4)
    sig.add(42)
    sig.clear()
    assert sig.is_empty and not sig.test(42)
    assert sig.added == 0


def test_union_merges_memberships():
    a = BloomSignature(2048, 4)
    b = BloomSignature(2048, 4)
    a.add(1)
    b.add(2)
    a.union_inplace(b)
    assert a.test(1) and a.test(2)


def test_union_size_mismatch_rejected():
    a = BloomSignature(2048, 4)
    b = BloomSignature(1024, 4)
    with pytest.raises(ValueError):
        a.union_inplace(b)


def test_intersects_detects_shared_bits():
    a = BloomSignature(2048, 4)
    b = BloomSignature(2048, 4)
    a.add(777)
    b.add(777)
    assert a.intersects(b)
    c = BloomSignature(2048, 4)
    assert not a.intersects(c)


def test_false_positive_rate_grows_with_fill():
    sig = BloomSignature(2048, 4)
    assert sig.false_positive_rate() == 0.0
    for v in range(200):
        sig.add(v)
    fp_small = sig.false_positive_rate()
    for v in range(200, 2000):
        sig.add(v)
    assert sig.false_positive_rate() > fp_small


def test_small_signature_produces_false_positives():
    # with 16 bits and plenty of inserts, aliasing is certain
    sig = BloomSignature(16, 2, seed=1)
    for v in range(0, 64):
        sig.add(v)
    assert any(sig.test(v) for v in range(10_000, 10_100))


# ---------------------------------------------------------------------------
# CountingSummarySignature — Figure 5 semantics
# ---------------------------------------------------------------------------

def test_summary_add_then_test():
    s = CountingSummarySignature(2048, 2)
    s.add(0x40)
    assert s.test(0x40)
    assert not s.test(0x80)


def test_summary_delete_unique_address_removes_it():
    # the Figure 5 walk-through: add @1, add @3, inquire @1, delete @1
    s = CountingSummarySignature(2048, 2)
    s.add(1)
    s.add(3)
    assert s.test(1) and s.test(3)
    s.remove(1)
    assert not s.test(1)  # unique bits of @1 were cleared
    assert s.test(3)      # @3 untouched


def test_summary_delete_is_conservative_on_shared_bits():
    # force bit sharing with a tiny filter: deletion must never produce a
    # false negative for a still-present address
    s = CountingSummarySignature(16, 2, seed=7)
    values = list(range(0, 48))
    for v in values:
        s.add(v)
    s.remove(values[0])
    for v in values[1:]:
        assert s.test(v), f"false negative for {v} after deleting {values[0]}"


@given(
    st.lists(st.integers(min_value=0, max_value=1 << 30),
             min_size=1, max_size=100, unique=True),
    st.data(),
)
@settings(max_examples=50, deadline=None)
def test_property_summary_never_false_negative(values, data):
    s = CountingSummarySignature(256, 2, seed=3)
    for v in values:
        s.add(v)
    removed = data.draw(st.sampled_from(values))
    s.remove(removed)
    for v in values:
        if v != removed:
            assert s.test(v)


def test_summary_double_add_makes_bits_non_unique():
    s = CountingSummarySignature(2048, 2)
    s.add(5)
    s.add(5)
    s.remove(5)
    # bits were written twice, so removal is a no-op: superset behaviour
    assert s.test(5)


def test_summary_clear():
    s = CountingSummarySignature(2048, 2)
    s.add(1)
    s.clear()
    assert s.is_empty and not s.test(1)


def _rebuild_matches_reinsertion(bits, values, **kw):
    # rebuild is clear + re-insertion of the surviving lines
    rebuilt = CountingSummarySignature(bits, 2, **kw)
    rebuilt.add(0xDEAD)
    rebuilt.rebuild(values)
    fresh = CountingSummarySignature(bits, 2, **kw)
    for v in values:
        fresh.add(v)
    assert (rebuilt._sig, rebuilt._once) == (fresh._sig, fresh._once)


@given(st.lists(st.integers(min_value=0, max_value=(1 << 28) - 1), max_size=60))
@settings(max_examples=80, deadline=None)
def test_rebuild_matches_sequential_reinsertion(values):
    _rebuild_matches_reinsertion(2048, values)


@given(st.lists(st.integers(min_value=0, max_value=500), max_size=40))
@settings(max_examples=60, deadline=None)
def test_rebuild_collision_heavy_geometry(values):
    # 64-bit / 2-hash filters collide constantly, stressing the doubly-hit
    # (non-unique) bits that the once-mask must track
    _rebuild_matches_reinsertion(64, values, seed=0x5BB)


def test_summary_counters():
    s = CountingSummarySignature(2048, 2)
    s.add(1)
    s.add(2)
    s.remove(1)
    assert s.adds == 2 and s.removes == 1


def test_union_with_no_new_bits_does_not_inflate_count():
    # regression: union_inplace used to add other's count even when the
    # OR set no new bits, drifting `added` away from reality
    a = BloomSignature(2048, 4)
    b = BloomSignature(2048, 4)
    a.add(42)
    b.add(42)  # identical membership -> no new bits
    before = a.added
    a.union_inplace(b)
    assert a.added == before

    empty = BloomSignature(2048, 4)
    a.union_inplace(empty)
    assert a.added == before

    c = BloomSignature(2048, 4)
    c.add(7)
    a.union_inplace(c)  # genuinely new bits do count
    assert a.added == before + c.added
