"""ES JSON query-DSL front end — the request format the reference's
users actually write against ElasticSearch (the reference ships rows
and lets users query ES with JSON DSL; this module lets those requests
run against this engine unchanged).

Supported node grammar (one scoring pass, df-bounded throughout):

    {"match":  {<text_field>: "free text" | {"query": str, "boost": f}}}
    {"term":   {<meta_field>: value}}                    # filter context
    {"range":  {<meta_field>: {"gte": lo, "lte": hi}}}   # filter context
    {"bool":   {"must": [match...], "should": [match...],
                "must_not": [match...], "filter": [term|range...],
                "minimum_should_match": int}}
    {"dis_max": {"queries": [match...], "tie_breaker": f}}
    {"pinned": {"ids": [int...], "organic": <node>}}

Semantics map 1:1 onto the engine's primitives:

* scoring terms + boosts       -> ``search_dsl``'s match arrays (one
  TAAT pass; no Python list of every match)
* ``must`` text clauses        -> required containment: the every-term
  mask of the must terms' postings gates the ranking
* ``must_not`` text clauses    -> the any-term mask, excluded
* ``filter`` clauses           -> metadata predicate, applied by
  ``search_filtered``'s descending-score verify refill (bounded
  top-chunks; each fetches only doc_id + predicate columns)
* ``pinned``                   -> promoted ids first (organic scores
  via ``score_docs``), organic fill excludes them

Scores are bit-identical to calling the primitives directly
(``tests/test_round4e.py`` asserts equivalence clause by clause).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from onestools_eventlog_ray.functions import codec
from onestools_eventlog_ray.functions.analyzer import tokenize_py
from onestools_eventlog_ray.functions.bm25 import doc_mask, topk_order
from onestools_eventlog_ray.pipelines.query import (SearchEngine,
                                                    _dsl_arrays,
                                                    _verify_refill,
                                                    score_docs)


class DslError(ValueError):
    pass


def _match_terms(body: dict) -> tuple[list[str], float]:
    """{field: "text"} or {field: {"query": ..., "boost": b}}."""
    if len(body) != 1:
        raise DslError("match takes exactly one field")
    (field, spec), = body.items()
    if isinstance(spec, dict):
        text, boost = spec["query"], float(spec.get("boost", 1.0))
    else:
        text, boost = spec, 1.0
    return tokenize_py(str(text)), boost


def _parse(node: dict) -> dict:
    """Normalize any supported node into one flat execution plan."""
    if len(node) != 1:
        raise DslError("a query node has exactly one key")
    (kind, body), = node.items()
    plan = {"terms": [], "boosts": {}, "msm": 1, "mode": "sum",
            "tie_breaker": 0.0, "must_terms": [], "must_not_terms": [],
            "must_any": [], "where": {}, "pinned": []}
    if kind == "match":
        terms, boost = _match_terms(body)
        plan["terms"] = terms
        if boost != 1.0:
            plan["boosts"] = {t: boost for t in terms}
        return plan
    if kind == "dis_max":
        for q in body["queries"]:
            terms, boost = _match_terms(q["match"])
            plan["terms"].extend(terms)
            for t in terms:
                plan["boosts"][t] = boost
        plan["mode"] = "max"
        plan["tie_breaker"] = float(body.get("tie_breaker", 0.0))
        return plan
    if kind == "pinned":
        plan = _parse(body["organic"])
        plan["pinned"] = [int(d) for d in body["ids"]]
        return plan
    if kind == "bool":
        for q in body.get("must", []):
            if "terms_or" in q:
                # disjunctive required group (a rewritten multi-term
                # clause, e.g. a required prefix): doc must match ANY
                # member; every member still scores individually
                (field, spec), = q["terms_or"].items()
                ts = list(spec["terms"] if isinstance(spec, dict)
                          else spec)
                boost = (float(spec.get("boost", 1.0))
                         if isinstance(spec, dict) else 1.0)
                plan["must_any"].append(ts)
                plan["terms"].extend(ts)
                if boost != 1.0:
                    for t in ts:
                        plan["boosts"][t] = boost
                continue
            terms, boost = _match_terms(q["match"])
            plan["must_terms"].extend(terms)
            plan["terms"].extend(terms)
            if boost != 1.0:
                for t in terms:
                    plan["boosts"][t] = boost
        for q in body.get("should", []):
            terms, boost = _match_terms(q["match"])
            plan["terms"].extend(terms)
            if boost != 1.0:
                for t in terms:
                    plan["boosts"][t] = boost
        for q in body.get("must_not", []):
            terms, _ = _match_terms(q["match"])
            plan["must_not_terms"].extend(terms)
        for q in body.get("filter", []):
            (fk, fb), = q.items()
            if fk == "term":
                (c, v), = fb.items()
                plan["where"][c] = v
            elif fk == "range":
                (c, r), = fb.items()
                plan["where"][c] = (r["gte"], r["lte"])
            else:
                raise DslError(f"unsupported filter clause: {fk}")
        # ES default: msm applies to should only when must is absent
        plan["msm"] = int(body.get(
            "minimum_should_match",
            1 if not body.get("must") else 0)) or 0
        plan["msm"] = max(plan["msm"], 0)
        return plan
    raise DslError(f"unsupported query kind: {kind}")


def es_search(eng: SearchEngine, query: dict, k: int = 10) -> pa.Table:
    """Execute one ES-DSL query -> (rank, doc_id, score_e6).

    One TAAT pass over all scoring terms (:func:`_dsl_arrays`) gives the
    match ordinals; the must / must_any / must_not / pinned gates are
    masks over the doc ordinals, and the organic top-k is a bounded cut
    of what they keep — through the verify refill of
    ``search_filtered`` when the query has filter clauses.  Ranking is
    (score desc, doc_id asc)."""
    plan = _parse(query)
    pins = plan["pinned"][:k]
    organic_k = k - len(pins)
    ords, scores = _dsl_arrays(eng, plan["terms"],
                               boosts=plan["boosts"] or None,
                               minimum_should_match=max(plan["msm"], 1),
                               mode=plan["mode"],
                               tie_breaker=plan["tie_breaker"])
    keep = np.ones(eng.docs.size, dtype=bool)
    if plan["must_terms"]:
        keep &= eng._hits(plan["must_terms"]) == len(set(plan["must_terms"]))
    for group in plan["must_any"]:
        keep &= eng._hits(group) > 0
    if plan["must_not_terms"]:
        keep &= eng._hits(plan["must_not_terms"]) == 0
    if pins:
        keep &= ~doc_mask(eng.docs, pins)
    keep = keep[ords]
    ids, scores = eng.docs[ords[keep]], scores[keep]
    if plan["where"]:
        hits = _verify_refill(eng, ids, scores, plan["where"], organic_k)
        ids = np.array([d for d, _ in hits], dtype=np.int64)
        scores = np.array([s for _, s in hits], dtype=np.float64)
    else:
        idx = topk_order(scores, ids, organic_k)
        ids, scores = ids[idx], scores[idx]
    if pins:
        sc = score_docs(eng, plan["terms"], pins)
        ids = np.concatenate([np.asarray(pins, dtype=np.int64), ids])
        scores = np.concatenate([[sc[d] for d in pins], scores])
    # zero-copy int64 columns: a k-row table costs a few us, where
    # converting each column with pa.array costs ~10
    cols = [np.ascontiguousarray(c, dtype=np.int64) for c in (
        np.arange(1, ids.size + 1), ids, np.floor(scores * 1_000_000 + 0.5))]
    return pa.Table.from_arrays(
        [pa.Array.from_buffers(pa.int64(), c.size, [None, pa.py_buffer(c)])
         for c in cols], names=["rank", "doc_id", "score_e6"])


# ---------------------------------------------------------------------------
# simple_query_string — the Lucene mini-language front end
# ---------------------------------------------------------------------------

_SQS_BOOST = None  # compiled lazily (module import stays regex-free)


def parse_simple_query_string(query: str,
                              default_operator: str = "or") -> list[dict]:
    """Parse the ES ``simple_query_string`` mini-language into clause
    dicts ``{"op", "text", "boost", "prefix"}``.

    Supported syntax (the subset meaningful without a positions
    sidecar; quoted phrases raise — use ``search_phrase`` /
    ``bm25_phrase_boost`` for those):

    * ``+token``   -> required (``op="must"``)
    * ``-token``   -> prohibited (``op="must_not"``)
    * ``token``    -> optional (``op="should"``; with
      ``default_operator="and"`` every optional clause becomes must —
      ES's ``default_operator`` knob)
    * ``token^2``  -> per-clause boost
    * ``tok*``     -> prefix clause, expanded against the term
      dictionary at execution time (scoring_boolean rewrite: each
      expansion scores as a regular term)

    Tokens are run through the index analyzer, so ``Spark,`` and
    ``spark`` are the same clause."""
    import re
    global _SQS_BOOST
    if _SQS_BOOST is None:
        _SQS_BOOST = re.compile(r"\^(\d+(?:\.\d+)?)$")
    if '"' in query:
        raise DslError("quoted phrases are not supported by "
                       "simple_query_string here; use search_phrase")
    clauses: list[dict] = []
    for raw in query.split():
        op = "should"
        if raw.startswith("+"):
            op, raw = "must", raw[1:]
        elif raw.startswith("-"):
            op, raw = "must_not", raw[1:]
        if op == "should" and default_operator.lower() == "and":
            op = "must"
        boost = 1.0
        m = _SQS_BOOST.search(raw)
        if m:
            boost, raw = float(m.group(1)), raw[:m.start()]
        prefix = raw.endswith("*")
        if prefix:
            raw = raw[:-1]
        toks = tokenize_py(raw)
        if len(toks) != 1:
            raise DslError(f"clause {raw!r} must analyze to one token")
        clauses.append({"op": op, "text": toks[0], "boost": boost,
                        "prefix": prefix})
    return clauses


def simple_query_string(eng: SearchEngine, query: str, k: int = 10,
                        default_operator: str = "or",
                        max_expansions: int = 50) -> pa.Table:
    """ES ``simple_query_string`` executed against this engine:
    parse the mini-language, expand prefix clauses against the term
    dictionary (``expand_prefix_terms`` — a read of the ``term`` column
    of the engine's open shards, posting blobs pruned), assemble the
    equivalent ``bool`` node and run it through :func:`es_search` (ONE
    TAAT pass; must/must_not gating df-bounded).
    -> (rank, doc_id, score_e6).

    Prefix clauses use the scoring_boolean rewrite: every expansion
    contributes its own BM25 weight x the clause boost, so the SQL
    oracle (``term LIKE 'pre%'``) reproduces scores exactly."""
    from onestools_eventlog_ray.pipelines.query import expand_prefix_terms

    def _match(term: str, boost: float) -> dict:
        if boost != 1.0:
            return {"match": {"text": {"query": term, "boost": boost}}}
        return {"match": {"text": term}}

    buckets: dict[str, list[dict]] = {"must": [], "should": [],
                                      "must_not": []}
    for cl in parse_simple_query_string(query, default_operator):
        terms = ([cl["text"]] if not cl["prefix"]
                 else expand_prefix_terms(eng, cl["text"],
                                          max_expansions))
        if not terms and cl["op"] == "must":
            # a required prefix that expands to nothing matches nothing
            return pa.table({"rank": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64()),
                             "score_e6": pa.array([], pa.int64())})
        if cl["op"] == "must" and len(terms) > 1:
            # required multi-term rewrite: ANY expansion satisfies it
            buckets["must"].append({"terms_or": {"text": {
                "terms": terms, "boost": cl["boost"]}}})
            continue
        for t in terms:
            buckets[cl["op"]].append(_match(t, cl["boost"]))
    node = {"bool": {kk: v for kk, v in buckets.items() if v}}
    return es_search(eng, node, k=k)


# ---------------------------------------------------------------------------
# query_string — the full Lucene query language front end
# ---------------------------------------------------------------------------

#: metadata (keyword) columns servable as constant_score filter clauses
_QS_META_FIELDS = ("lang", "source")


def _qs_lex(query: str) -> list[tuple]:
    """Lexer for the Lucene ``query_string`` syntax subset:
    parens, AND/OR/NOT (also ``&&`` / ``||`` / ``!``), ``field:`` prefixes,
    quoted phrases, ``^boost``.  Yields (kind, value) tuples."""
    import re
    toks: list[tuple] = []
    i, n = 0, len(query)
    word = re.compile(r"[A-Za-z0-9_.]+")
    num = re.compile(r"\d+(?:\.\d+)?")
    while i < n:
        c = query[i]
        if c.isspace():
            i += 1
        elif c == "(":
            toks.append(("lparen", None)); i += 1
        elif c == ")":
            toks.append(("rparen", None)); i += 1
        elif c == "!":
            toks.append(("not", None)); i += 1
        elif query.startswith("&&", i):
            toks.append(("and", None)); i += 2
        elif query.startswith("||", i):
            toks.append(("or", None)); i += 2
        elif c == '"':
            j = query.index('"', i + 1)
            toks.append(("phrase", query[i + 1:j])); i = j + 1
        elif c == "^":
            m = num.match(query, i + 1)
            if not m:
                raise DslError(f"bad boost at {i}: {query[i:i+8]!r}")
            toks.append(("boost", float(m.group(0)))); i = m.end()
        elif c == ":":
            toks.append(("colon", None)); i += 1
        else:
            m = word.match(query, i)
            if not m:
                raise DslError(f"unexpected char {c!r} at {i}")
            w = m.group(0)
            if w == "AND":
                toks.append(("and", None))
            elif w == "OR":
                toks.append(("or", None))
            elif w == "NOT":
                toks.append(("not", None))
            else:
                toks.append(("word", w))
            i = m.end()
    return toks


def parse_query_string(query: str,
                       default_operator: str = "or") -> tuple:
    """Recursive-descent parser for the Lucene ``query_string`` language
    (the full-syntax big brother of ``simple_query_string``; ES rejects a
    malformed query_string instead of degrading — so do we).

    Supported: ``( )`` grouping, ``AND`` / ``OR`` / ``NOT`` (and ``&&``
    ``||`` ``!``), bare-term adjacency joined by ``default_operator``,
    ``field:term`` / ``field:"a phrase"`` (text field scores; metadata
    fields are constant_score filters), ``"quoted phrases"``, ``^boost``
    on terms, phrases and groups.  AND binds tighter than OR, exactly as
    Lucene's precedence-parser rewrite.

    AST: ("term", field, token, boost) | ("phrase", field, [tok...],
    boost) | ("and", [child...]) | ("or", [child...]) | ("not", child).
    """
    toks = _qs_lex(query)
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else (None, None)

    def take():
        t = peek(); pos[0] += 1
        return t

    def atom():
        kind, val = take()
        neg = False
        while kind == "not":
            neg = not neg
            kind, val = take()
        node = None
        if kind == "lparen":
            node = or_expr()
            if take()[0] != "rparen":
                raise DslError("unbalanced parens")
        elif kind == "phrase":
            node = ("phrase", "text", tokenize_py(val), 1.0)
        elif kind == "word":
            field = "text"
            if peek()[0] == "colon":
                take()
                field = val
                kind2, val2 = take()
                if kind2 == "phrase":
                    node = ("phrase", field, tokenize_py(val2), 1.0)
                elif kind2 == "word":
                    node = _qs_leaf(field, val2)
                else:
                    raise DslError(f"bad clause after {field}:")
            if node is None:
                node = _qs_leaf(field, val)
        else:
            raise DslError(f"unexpected token {kind}")
        if peek()[0] == "boost":
            node = _qs_boost(node, take()[1])
        return ("not", node) if neg else node

    def and_expr():
        items = [atom()]
        while True:
            kind = peek()[0]
            if kind == "and":
                take(); items.append(atom())
            elif kind == "not":
                # adjacency with NOT ("a NOT b") is an AND in Lucene
                items.append(atom())
            elif kind in ("word", "phrase", "lparen") \
                    and default_operator.lower() == "and":
                items.append(atom())
            else:
                break
        return items[0] if len(items) == 1 else ("and", items)

    def or_expr():
        items = [and_expr()]
        while True:
            kind = peek()[0]
            if kind == "or":
                take(); items.append(and_expr())
            elif kind in ("word", "phrase", "lparen", "not") \
                    and default_operator.lower() != "and":
                items.append(and_expr())
            else:
                break
        return items[0] if len(items) == 1 else ("or", items)

    node = or_expr()
    if pos[0] != len(toks):
        raise DslError(f"trailing tokens at {pos[0]}")
    return node


def _qs_leaf(field: str, raw: str) -> tuple:
    if field == "text":
        t = tokenize_py(raw)
        if len(t) != 1:
            raise DslError(f"term {raw!r} must analyze to one token")
        return ("term", "text", t[0], 1.0)
    if field not in _QS_META_FIELDS:
        raise DslError(f"unknown field {field!r}")
    return ("term", field, raw, 1.0)


def _qs_boost(node: tuple, b: float) -> tuple:
    """Multiply a boost through a node (groups distribute to children —
    Lucene's BoostQuery over a BooleanQuery)."""
    kind = node[0]
    if kind in ("term", "phrase"):
        return (*node[:3], node[3] * b)
    if kind == "not":
        return ("not", _qs_boost(node[1], b))
    return (kind, [_qs_boost(c, b) for c in node[1]])


def _qs_match_mask(node: tuple, eng: SearchEngine, peng,
                   cache: dict) -> np.ndarray:
    """Mask over the doc ordinals of the docs matching a (non-negated)
    AST node: term leaves are live posting masks, metadata leaves live
    docstore-column reads, phrase leaves the sidecar's occurrence set,
    and AND / OR / NOT combine masks."""
    kind = node[0]
    if kind == "term":
        _, field, tok, _ = node
        key = ("t", tok) if field == "text" else ("m", field, tok)
        if key not in cache:
            cache[key] = eng._hits([tok]) > 0 if field == "text" else \
                doc_mask(eng.docs, eng.allowed_doc_ids({field: tok}))
        return cache[key]
    if kind == "phrase":
        _, _, toks, _ = node
        key = ("p", tuple(toks))
        if key not in cache:
            if peng is None:
                raise DslError("phrase clause needs a PhraseEngine "
                               "(positions sidecar)")
            m = peng.search_phrase(list(toks))
            cache[key] = (doc_mask(eng.docs, [d for d, _ in m]),
                          {d: f for d, f in m})
        return cache[key][0]
    if kind == "and":
        pos = [c for c in node[1] if c[0] != "not"]
        if not pos:
            raise DslError("a bool must have at least one positive "
                           "clause (pure NOT is unsupported, as in ES)")
        acc = np.logical_and.reduce(
            [_qs_match_mask(c, eng, peng, cache) for c in pos])
        for c in node[1]:
            if c[0] == "not":
                acc = acc & ~_qs_match_mask(c[1], eng, peng, cache)
        return acc
    if kind == "or":
        if any(c[0] == "not" for c in node[1]):
            raise DslError("NOT directly under OR is unsupported "
                           "(as in Lucene)")
        # the all-false leg makes an empty OR match nothing
        return np.logical_or.reduce(
            [np.zeros(eng.docs.size, bool)]
            + [_qs_match_mask(c, eng, peng, cache) for c in node[1]])
    raise DslError(f"cannot match node kind {kind}")


def _qs_scoring_leaves(node: tuple, acc: list, negated: bool = False):
    kind = node[0]
    if kind in ("term", "phrase"):
        if not negated and not (kind == "term" and node[1] != "text"):
            acc.append(node)
    elif kind == "not":
        _qs_scoring_leaves(node[1], acc, True)
    else:
        for c in node[1]:
            _qs_scoring_leaves(c, acc, negated)


def query_string_search(eng: SearchEngine, query: str, k: int = 10,
                        peng=None,
                        default_operator: str = "or") -> pa.Table:
    """ES ``query_string`` query — the FULL Lucene syntax (parens,
    AND/OR/NOT, field:term, quoted phrases, boosts) executed against
    this engine.  -> (rank, doc_id, score_e6).

    Semantics (each Lucene-faithful and reproduced by the SQL oracle):

    * **matching** is boolean algebra over masks of the doc ordinals —
      term postings, phrase-sidecar occurrence sets, metadata docstore
      column scans (only doc_id + the field column leave storage);
    * **scoring** sums every non-negated TEXT leaf whose own match set
      contains the doc (Lucene's BooleanScorer: an OR branch that also
      matches still contributes), boost = product along the path;
      metadata clauses are constant_score filters (0 contribution);
    * **phrase scoring** is Lucene PhraseQuery's: tf = exact phrase
      frequency, idf = SUM of the constituent terms' idfs, same
      ``bm25_impact`` saturation kernel;
    * ranking on (floor(score*1e6+0.5) desc, doc_id asc); matched docs
      with no scoring leaf rank after all positive scores, doc_id asc.
    """
    from onestools_eventlog_ray.functions.bm25 import idf as idf_fn

    ast = parse_query_string(query, default_operator)
    cache: dict = {}
    match = _qs_match_mask(ast, eng, peng, cache)
    leaves: list = []
    _qs_scoring_leaves(ast, leaves)
    scores = np.zeros(eng.docs.size, dtype=np.float64)
    seen: set = set()
    for leaf in leaves:
        kind, _, toks, boost = leaf
        key = (kind, tuple(toks) if kind == "phrase" else toks, boost)
        if key in seen:
            continue
        seen.add(key)
        if kind == "term":
            post = eng._term_postings([toks]).get(toks)
            if post is None:
                continue
            df, o, tfs, dls = post
            ok = match[o]
            scores[o[ok]] += idf_fn(eng.N, df) * boost * codec.bm25_impact(
                tfs[ok], dls[ok], eng.avgdl, eng.k1, eng.b)
            continue
        # occurrence map is already in the match cache (or compute)
        _qs_match_mask(leaf, eng, peng, cache)
        freq = cache[("p", tuple(toks))][1]
        posts = eng._term_postings(toks)
        idf_sum = sum(idf_fn(eng.N, posts[t][0])
                      for t in set(toks) if t in posts)
        # doc length from the first constituent term's posting
        if toks[0] not in posts or not freq:
            continue
        _, o, _, dls = posts[toks[0]]
        ok = match[o]
        o, dls = o[ok], dls[ok]
        pf = np.array([freq.get(int(d), 0) for d in eng.docs[o]],
                      dtype=np.int64)
        ok = pf > 0
        scores[o[ok]] += idf_sum * boost * codec.bm25_impact(
            pf[ok], dls[ok], eng.avgdl, eng.k1, eng.b)
    sel = np.flatnonzero(match)
    ids, scores = eng.docs[sel], scores[sel]
    e6 = np.floor(scores * 1_000_000 + 0.5).astype(np.int64)
    order = np.lexsort((ids, -e6))[:k]
    return pa.table({
        "rank": pa.array(np.arange(1, order.size + 1), pa.int64()),
        "doc_id": pa.array(ids[order], pa.int64()),
        "score_e6": pa.array(e6[order], pa.int64()),
    })
