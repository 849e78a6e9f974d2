"""Posting codec round-trip + concat-merge properties (SURVEY.md §5.1)."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from onestools_eventlog_ray.functions import codec


def test_varint_roundtrip_edges():
    v = np.array([0, 1, 127, 128, 16383, 16384, 2**32, 2**62], dtype=np.uint64)
    assert (codec.varint_decode(codec.varint_encode(v)) == v).all()


@given(st.lists(st.integers(min_value=0, max_value=2**62), max_size=300))
@settings(max_examples=50, deadline=None)
def test_varint_roundtrip_property(vals):
    v = np.asarray(vals, dtype=np.uint64)
    out = codec.varint_decode(codec.varint_encode(v))
    assert out.size == v.size and (out == v).all()


@given(st.sets(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=500),
       st.integers(min_value=1, max_value=200))
@settings(max_examples=30, deadline=None)
def test_posting_roundtrip_property(ids_set, block_size):
    ids = np.sort(np.fromiter(ids_set, dtype=np.int64))
    rng = np.random.default_rng(0)
    tfs = rng.integers(1, 100, size=ids.size)
    dls = rng.integers(1, 3000, size=ids.size)
    blob = codec.encode_posting(ids, tfs, dls, block_size=block_size)
    p = codec.decode_posting(blob)
    assert (p.doc_ids == ids).all() and (p.tfs == tfs).all() and (p.dls == dls).all()


def test_unsorted_rejected():
    with pytest.raises(ValueError):
        codec.encode_posting(np.array([3, 1]), np.array([1, 1]), np.array([5, 5]))


def test_decode_block_matches_full():
    rng = np.random.default_rng(1)
    ids = np.unique(rng.integers(0, 2**40, size=1000))
    tfs = rng.integers(1, 9, size=ids.size)
    dls = rng.integers(10, 500, size=ids.size)
    blob = codec.encode_posting(ids, tfs, dls, block_size=64)
    full = codec.decode_posting(blob)
    headers, n, _ = codec.read_header(blob)
    off = 0
    for bi in range(headers.size):
        p = codec.decode_block(blob, bi)
        c = p.doc_ids.size
        assert (p.doc_ids == full.doc_ids[off:off + c]).all()
        assert (p.tfs == full.tfs[off:off + c]).all()
        off += c
    assert off == n


def test_concat_equals_single_encode():
    """Salted-run merge invariant: encode(parts) spliced == encode(whole)."""
    rng = np.random.default_rng(2)
    ids = np.unique(rng.integers(0, 2**50, size=2000))
    tfs = rng.integers(1, 20, size=ids.size)
    dls = rng.integers(5, 800, size=ids.size)
    whole = codec.encode_posting(ids, tfs, dls, block_size=128)
    cuts = [0, 300, 301, 1500, ids.size]
    parts = [codec.encode_posting(ids[a:b], tfs[a:b], dls[a:b], block_size=128)
             for a, b in zip(cuts[:-1], cuts[1:])]
    spliced = codec.concat_postings(parts)
    w, s = codec.decode_posting(whole), codec.decode_posting(spliced)
    assert (w.doc_ids == s.doc_ids).all() and (w.tfs == s.tfs).all() \
        and (w.dls == s.dls).all()


def test_concat_rejects_overlap():
    a = codec.encode_posting(np.array([1, 5]), np.array([1, 1]),
                             np.array([3, 3]))
    b = codec.encode_posting(np.array([2, 9]), np.array([1, 1]),
                             np.array([3, 3]))
    with pytest.raises(ValueError):
        codec.concat_postings([a, b])


def test_block_max_is_upper_bound():
    rng = np.random.default_rng(3)
    ids = np.unique(rng.integers(0, 2**30, size=500))
    tfs = rng.integers(1, 50, size=ids.size)
    dls = rng.integers(1, 2000, size=ids.size)
    avgdl, k1, b = 220.0, 1.2, 0.75
    blob = codec.encode_posting(ids, tfs, dls, block_size=32)
    idf = 2.5
    bounds = codec.block_max_scores(blob, idf, avgdl, k1, b)
    headers, _, _ = codec.read_header(blob)
    off = 0
    for bi in range(headers.size):
        p = codec.decode_block(blob, bi)
        w = idf * codec.bm25_impact(p.tfs, p.dls, avgdl, k1, b)
        assert (w <= bounds[bi] + 0.0).all()
        off += p.doc_ids.size


# A 3-run group with block_size=4: a two-block run, a one-doc run with a
# 5-byte tf, and a run with a 5-byte gap and dl.  The hex is the layout-v3
# bytes of the per-run encoder that the Arrow column replaced.
_GOLDEN_RUNS = (
    np.array([0, 6, 7]),
    np.array([0, 3, 7, 8, 20, 21, 2**40, 5, 5 + 2**33], dtype=np.int64),
    np.array([1, 2, 1, 9, 130, 1, 2**30, 1, 300], dtype=np.int64),
    np.array([10, 10, 11, 200, 16384, 3, 5, 2**32 - 1, 7], dtype=np.int64),
)
_GOLDEN_HEX = [
    "0302000000060000000000000000000000000000000800000000000000040000000400"
    "0000040000000500000009000000"
    "0a000000140000000000000015000000000000000200000006000000070000000900"
    "00008200000003000000"
    "000304010001010201098201010a0a0bc80180800103",
    "0301000000010000000000000000000000000100000000000000010000010000000100"
    "00000500000001000000000000400500000000808080800405",
    "0301000000020000000000000005000000000000000500000002000000020000000600"
    "000003000000060000002c01000007000000"
    "00808080802001ac02ffffffff0f07",
]


def test_encode_run_group_golden_bytes():
    col = codec.encode_run_group(*_GOLDEN_RUNS, block_size=4)
    assert col.type == pa.large_binary() and col.null_count == 0
    assert [b.hex() for b in col.to_pylist()] == _GOLDEN_HEX
    starts, ids, tfs, dls = _GOLDEN_RUNS
    ends = list(starts[1:]) + [ids.size]
    assert [codec.encode_posting(ids[a:b], tfs[a:b], dls[a:b], block_size=4).hex()
            for a, b in zip(starts, ends)] == _GOLDEN_HEX


@given(st.lists(st.integers(1, 300), min_size=1, max_size=12),
       st.integers(1, 130), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_encode_run_group_equals_one_encode_per_run(sizes, block_size, seed):
    rng = np.random.default_rng(seed)
    ids = np.concatenate([np.cumsum(rng.integers(1, 2**34, size=n)) for n in sizes])
    tfs = rng.integers(1, 2**31, size=ids.size)
    dls = rng.integers(1, 2**31, size=ids.size)
    starts = np.cumsum(sizes) - sizes
    col = codec.encode_run_group(starts, ids, tfs, dls, block_size)
    assert col.to_pylist() == [
        codec.encode_posting(ids[a:a + n], tfs[a:a + n], dls[a:a + n], block_size)
        for a, n in zip(starts, sizes)]


def test_decode_posting_rejects_a_moved_section_boundary():
    """Gaps [0, 200] take 3 bytes and tfs [1, 1] take 2.  Moving the
    gap/tf boundary one byte left keeps the payload length and the count
    of whole values, so only the per-section end check catches it."""
    blob = codec.encode_posting(np.array([5, 205]), np.array([1, 1]),
                                np.array([3, 3]))
    good = codec.decode_posting(blob)
    assert good.doc_ids.tolist() == [5, 205] and good.tfs.tolist() == [1, 1]
    bad = bytearray(blob)
    hdr = np.frombuffer(bad, dtype=codec._BLOCK_DT, count=1,
                        offset=codec._FIXED.size)
    assert (int(hdr["gap_end"][0]), int(hdr["tf_end"][0])) == (3, 2)
    hdr["gap_end"], hdr["tf_end"] = 2, 3
    with pytest.raises(ValueError, match="does not hold its 2 values"):
        codec.decode_posting(bytes(bad))
