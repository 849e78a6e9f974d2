"""``codec.decode_many`` (one varint pass per section over a binary Arrow
column of postings) against per-blob ``decode_posting`` and the arrays
that were encoded."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from onestools_eventlog_ray.functions import codec

_ID_TOP = 2**63 - 1


@st.composite
def postings(draw):
    """One posting's (doc_ids, tfs, dls, block_size): empty, one-doc or
    multi-block, ids anywhere up to 2**63 - 1, tf/dl up to 5-byte varints."""
    n = draw(st.one_of(st.sampled_from([0, 1, 1, 2]), st.integers(0, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    max_gap = draw(st.sampled_from([1, 3, 2**20, 2**40]))
    gaps = rng.integers(1, max_gap + 1, size=n, dtype=np.int64)
    if draw(st.booleans()):                     # end exactly at 2**63 - 1
        ids = _ID_TOP - (np.cumsum(gaps[::-1]) - gaps[::-1])[::-1]
    else:
        ids = np.cumsum(gaps) - 1
    top = draw(st.sampled_from([2, 200, 2**21, 2**32]))
    tfs = rng.integers(1, top, size=n, dtype=np.int64)
    dls = rng.integers(1, top, size=n, dtype=np.int64)
    return ids, tfs, dls, draw(st.integers(1, 130))


@given(st.lists(postings(), max_size=8))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_decode_many_matches_per_blob_decode(ps):
    blobs = [codec.encode_posting(i, t, d, block_size=b) for i, t, d, b in ps]
    ids, tfs, dls = codec.decode_many(pa.array(blobs, pa.large_binary()))
    singles = [codec.decode_posting(b) for b in blobs]
    for got, field, col in ((ids, "doc_ids", 0), (tfs, "tfs", 1), (dls, "dls", 2)):
        assert got.dtype == np.int64
        want = np.concatenate([getattr(p, field) for p in singles]
                              + [np.empty(0, np.int64)])
        encoded = np.concatenate([p[col] for p in ps] + [np.empty(0, np.int64)])
        assert np.array_equal(got, want) and np.array_equal(got, encoded)


def _blob(ids, block_size=2):
    ids = np.asarray(ids, dtype=np.int64)
    return codec.encode_posting(ids, np.ones_like(ids), np.full_like(ids, 7),
                                block_size=block_size)


def _decoded(arr):
    return [c.tolist() for c in codec.decode_many(arr)]


def test_decode_many_reads_sliced_and_chunked_columns():
    blobs = [_blob([1, 4, 9]), _blob([]), _blob([2**40, 2**40 + 1]), _blob([7])]
    col = pa.array(blobs, pa.large_binary())
    tail = _decoded(pa.array(blobs[1:], pa.large_binary()))
    assert _decoded(col.slice(1)) == tail                    # non-zero offset
    assert _decoded(pa.array(blobs, pa.binary()).slice(1)) == tail
    chunked = pa.chunked_array([col.slice(0, 1), col.slice(1, 0), col.slice(2)])
    assert _decoded(chunked) == _decoded(col.take(pa.array([0, 2, 3])))
    assert _decoded(pa.chunked_array([], pa.large_binary())) == [[], [], []]


def test_decode_many_rejects_wrong_version():
    bad = bytearray(_blob([3, 9]))
    bad[0] = 2
    with pytest.raises(ValueError, match="bad posting version 2"):
        codec.decode_many(pa.array([_blob([1]), bytes(bad)], pa.large_binary()))


def test_decode_many_rejects_truncated_section():
    # the middle blob loses its last dl byte: read by its header alone it
    # would take the next blob's version byte as its last dl value
    whole = _blob([10, 11, 12])
    blobs = [_blob([1, 2, 3]), whole[:-1], _blob([20, 21])]
    with pytest.raises(ValueError, match=f"posting blob 1 has {len(whole) - 1} "
                                         f"bytes, its header says {len(whole)}"):
        codec.decode_many(pa.array(blobs, pa.large_binary()))


@pytest.mark.parametrize("cut", [1, 12, 13, 20])
def test_decode_many_rejects_any_truncation(cut):
    blobs = [_blob([1, 2, 3]), _blob([10, 11, 12])[:cut]]
    with pytest.raises(ValueError, match="posting blob 1"):
        codec.decode_many(pa.array(blobs, pa.large_binary()))
