"""The dense-ordinal TAAT kernel (``bm25.accumulate``) against the sorted
doc_id kernel it replaced: concatenate -> ``np.unique`` -> ``np.add.at``
-> ``np.isin`` tombstone mask.  Scores must agree bit for bit, float64
and int64 alike, and docs whose only weights are 0 must still match."""

import numpy as np
from hypothesis import given, settings, strategies as st

from onestools_eventlog_ray.functions.bm25 import accumulate, doc_mask


def reference_accumulate(parts, deleted):
    """The sorted doc_id kernel: ``(doc_ids, weights)`` parts -> sorted
    ``(uids, scores)`` with ``deleted`` doc_ids masked out."""
    if not parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    all_w = np.concatenate([w for _, w in parts])
    uids, inverse = np.unique(np.concatenate([ids for ids, _ in parts]),
                              return_inverse=True)
    scores = np.zeros(uids.size, dtype=all_w.dtype)
    np.add.at(scores, inverse, all_w)
    if deleted.size:
        live = ~np.isin(uids, deleted)
        uids, scores = uids[live], scores[live]
    return uids, scores


_FLOAT_W = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_INT_W = st.one_of(st.just(0), st.integers(0, 10**13))


@st.composite
def cases(draw):
    docs = np.asarray(sorted(draw(st.sets(st.integers(0, 10**9),
                                          max_size=40))), dtype=np.int64)
    is_int = draw(st.booleans())
    parts = []
    if docs.size:
        for _ in range(draw(st.integers(0, 5))):
            # positions repeat within a part and across parts; a part may
            # be empty
            pos = draw(st.lists(st.integers(0, docs.size - 1), max_size=30))
            ids = docs[np.asarray(pos, dtype=np.int64)]
            if is_int:
                w = np.asarray(draw(st.lists(_INT_W, min_size=len(pos),
                                             max_size=len(pos))),
                               dtype=np.int64)
            else:
                w = np.asarray(draw(st.lists(_FLOAT_W, min_size=len(pos),
                                             max_size=len(pos))),
                               dtype=np.float64)
            parts.append((ids, w))
    mode = draw(st.sampled_from(["none", "some", "all"]))
    if mode == "all":
        deleted = docs.copy()
    elif mode == "some" and docs.size:
        keep = draw(st.lists(st.booleans(), min_size=docs.size,
                             max_size=docs.size))
        # ids outside the column are ignored by both kernels
        deleted = np.union1d(docs[np.asarray(keep)],
                             np.asarray([10**9 + 1], np.int64))
    else:
        deleted = np.empty(0, dtype=np.int64)
    return docs, parts, deleted


@settings(derandomize=True, max_examples=400, deadline=None)
@given(cases())
def test_dense_kernel_matches_sorted_kernel_bitwise(case):
    docs, parts, deleted = case
    want_ids, want_scores = reference_accumulate(parts, deleted)
    ords, scores = accumulate(
        [(np.searchsorted(docs, ids), w) for ids, w in parts],
        ~doc_mask(docs, deleted))
    got_ids = docs[ords]
    assert got_ids.dtype == want_ids.dtype
    assert np.array_equal(got_ids, want_ids)
    assert scores.dtype == want_scores.dtype
    if scores.dtype == np.float64:
        assert np.array_equal(scores.view(np.int64),
                              want_scores.view(np.int64))
    else:
        assert np.array_equal(scores, want_scores)


def test_zero_weight_doc_is_returned():
    """An e6 part clamped to 0 still matches its doc."""
    docs = np.asarray([3, 8, 20], dtype=np.int64)
    ords, scores = accumulate([(np.asarray([0, 2]), np.asarray([0, 5]))],
                              np.ones(docs.size, dtype=bool))
    assert docs[ords].tolist() == [3, 20]
    assert scores.tolist() == [0, 5]


def test_doc_mask_ignores_unknown_ids():
    docs = np.asarray([3, 8, 20], dtype=np.int64)
    assert doc_mask(docs, [8, 21, 1, 20]).tolist() == [False, True, True]
    assert doc_mask(docs, np.empty(0, np.int64)).tolist() == [False] * 3
    assert doc_mask(np.empty(0, np.int64), [5]).size == 0
