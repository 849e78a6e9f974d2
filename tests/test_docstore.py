"""The engine's resident docstore reader against brute force over the
docstore parts, and the snapshot its open handles give.

``fetch_docs`` and ``allowed_doc_ids`` are checked on hand-written
indexes (a ``stats.json``, tombstones and docstore parts), so every part
layout the reader must accept is laid down directly: parts of several
row groups, one-group parts, an empty part, parts with the build's
ranged name and with a legacy name, rows out of doc_id order, and a
doc_id held by two parts.  The snapshot test rebuilds a real index in
place under an open engine."""

import glob
import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings, strategies as st

from onestools_eventlog_ray.pipelines import incremental
from onestools_eventlog_ray.pipelines.query import SearchEngine, where_expr
from onestools_eventlog_ray.state import checkpoint as ckpt
from onestools_eventlog_ray.state.tombstones import delete_docs

_LANGS = ["en", "de", "py", None]
_COLUMNS = [None, ["doc_id"], ["doc_id", "lang"], ["content", "doc_id"],
            ["n", "lang", "doc_id"]]


def _part(ids: list[int], rng, tag: str) -> pa.Table:
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "lang": pa.array([_LANGS[int(i)] for i in
                          rng.integers(0, len(_LANGS), size=len(ids))],
                         pa.string()),
        "n": pa.array([None if x < 0 else int(x) for x in
                       rng.integers(-20, 300, size=len(ids))], pa.int64()),
        "content": pa.array([f"{tag} doc {i}" for i in ids], pa.string()),
    })


def _store(root: str, parts: list[tuple[str, pa.Table, int]],
           deleted: list[int]) -> str:
    """An index of stats, tombstones and the given docstore parts, each
    written in row groups of its own size; no shards."""
    ckpt.write_stats(root, {
        "n_docs": 1000, "avgdl": 10.0, "total_tokens": 10_000,
        "num_partitions": 2, "config": {"bm25": {"k1": 1.2, "b": 0.75}},
        "spec": {"meta_cols": ["lang", "n"]}})
    os.makedirs(os.path.join(root, "docstore"), exist_ok=True)
    for name, tbl, group in parts:
        pq.write_table(tbl, os.path.join(root, "docstore", name),
                       row_group_size=group)
    if deleted:
        delete_docs(root, np.asarray(deleted, dtype=np.int64))
    return root


def _ranged(tbl: pa.Table, i: int) -> str:
    ids = tbl["doc_id"].to_pylist() or [0]
    return (f"part-{tbl.num_rows}-{min(ids):016x}-{max(ids):016x}-"
            f"{i:016x}.parquet")


def _docstore(root: str) -> pa.Table:
    """The reference: every part read whole, in name order."""
    return pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(
            os.path.join(root, "docstore", "*.parquet")))])


@st.composite
def stores(draw):
    """(seed, part layouts, tombstoned ids, shared id or None)."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    ids = rng.permutation(200)[:draw(st.integers(0, 40))].tolist()
    cuts = sorted(draw(st.lists(st.integers(0, len(ids)), min_size=2,
                                max_size=2)))
    chunks = [ids[:cuts[0]], ids[cuts[0]:cuts[1]], ids[cuts[1]:]]
    groups = [draw(st.integers(1, 4)), 1 << 20, draw(st.integers(1, 4))]
    deleted = [i for i in ids if draw(st.booleans()) and i % 3 == 0]
    shared = ids[0] if ids and draw(st.booleans()) else None
    return seed, chunks, groups, deleted, shared


def _write_store(root, case):
    seed, chunks, groups, deleted, shared = case
    rng = np.random.default_rng(seed)
    tbls = [_part(c, rng, f"p{i}") for i, c in enumerate(chunks)]
    if shared is not None:                  # held by two parts
        tbls[2] = pa.concat_tables([tbls[2], _part([shared], rng, "dup")])
    parts = [(_ranged(tbls[0], 0), tbls[0], groups[0]),
             ("part-00001.parquet", tbls[1], groups[1]),     # legacy name
             (_ranged(tbls[2], 2), tbls[2], groups[2])]
    return _store(root, parts, deleted)


def _want_fetch(full: pa.Table, deleted, req, columns) -> pa.Table:
    ids = full["doc_id"].to_pylist()
    live = set(ids) - set(deleted)
    rows: list[int] = []
    seen: set[int] = set()
    for d in req:
        if d in live and d not in seen:
            seen.add(d)
            rows += [i for i, x in enumerate(ids) if x == d]
    out = full.take(pa.array(rows, pa.int64()))
    return out if columns is None else out.select(columns)


@given(stores(), st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_fetch_docs_matches_brute_force(case, data):
    """Unordered requests with repeats, absent and tombstoned ids, and
    the empty request, for every column choice: the rows a whole read of
    the parts holds, in the requested order, a repeat at its first
    place.  A doc_id held by two parts gives both rows, in part order."""
    with tempfile.TemporaryDirectory() as root:
        _write_store(root, case)
        full = _docstore(root)
        deleted = case[3]
        eng = SearchEngine(root)
        assert eng.docs.tolist() == sorted(set(full["doc_id"].to_pylist()))
        pool = sorted(set(full["doc_id"].to_pylist())) + [500, 501, -1]
        for _ in range(4):
            req = data.draw(st.lists(st.sampled_from(pool), max_size=25))
            columns = data.draw(st.sampled_from(_COLUMNS))
            got = eng.fetch_docs(req, columns)
            assert got.equals(_want_fetch(full, deleted, req, columns))
        assert eng.fetch_docs([]).equals(full.schema.empty_table())
        assert eng.fetch_docs(np.asarray(pool[::-1]), ["doc_id"]).equals(
            _want_fetch(full, deleted, pool[::-1], ["doc_id"]))
        eng.close()


_WHERES = [
    {"lang": "en"},                          # equality (nulls never match)
    {"n": (10, 200)},                        # an inclusive range
    {"lang": "de", "n": (0, 150)},           # two columns
    {"n": 7},
    {"doc_id": (20, 120), "lang": "py"},
    {"lang": "xx"},                          # matches nothing
]


@pytest.mark.parametrize("where", _WHERES)
def test_allowed_doc_ids_matches_brute_force(tmp_path, where):
    """Equality, ranges and conjunctions over columns holding nulls: the
    live doc_ids of every row that satisfies ``where``, ascending."""
    rng = np.random.default_rng(17)
    ids = rng.permutation(150).tolist()
    a, b = _part(ids[:70], rng, "a"), _part(ids[70:], rng, "b")
    deleted = ids[::11]
    root = _store(str(tmp_path), [(_ranged(a, 0), a, 16),
                                  ("part-00001.parquet", b, 1 << 20)],
                  deleted)
    full = _docstore(root)

    def ok(row) -> bool:
        for c, v in where.items():
            x = row[c]
            if x is None or (not (v[0] <= x <= v[1])
                             if isinstance(v, tuple) else x != v):
                return False
        return True

    want = sorted({r["doc_id"] for r in full.to_pylist() if ok(r)}
                  - set(deleted))
    eng = SearchEngine(root)
    assert eng.allowed_doc_ids(where).tolist() == want
    # the filtered search's verify filters a fetched chunk with the same
    # predicate
    tbl = eng.fetch_docs(ids, ["doc_id"] + list(where))
    assert sorted(tbl.filter(where_expr(where))["doc_id"].to_pylist()) \
        == want


def test_fetch_after_close_raises(tmp_path):
    """``close()`` releases the docstore parts; a later docstore read
    raises instead of reopening files that may have been rewritten."""
    rng = np.random.default_rng(3)
    a = _part(list(range(10)), rng, "a")
    root = _store(str(tmp_path), [(_ranged(a, 0), a, 4)], [])
    eng = SearchEngine(root)
    assert eng.fetch_docs([3], ["doc_id"])["doc_id"].to_pylist() == [3]
    eng.close()
    with pytest.raises(ValueError, match="closed"):
        eng.fetch_docs([3], ["doc_id"])
    with pytest.raises(ValueError, match="closed"):
        eng.allowed_doc_ids({"lang": "en"})
    assert eng.docs.tolist() == list(range(10))


def test_reindex_filter_signature_is_stable(tmp_path, monkeypatch):
    """``reindex`` keys its resume marker on a fixed text of the
    predicate (``<c>=<v>`` or ``<c>in[<lo>,<hi>]``, in column order, or
    ``all``), and pushes the :func:`where_expr` predicate."""
    rng = np.random.default_rng(5)
    a = _part(list(range(10)), rng, "a")
    root = _store(str(tmp_path), [(_ranged(a, 0), a, 4)], [])
    seen = []
    monkeypatch.setattr(incremental, "build_index",
                        lambda *a, **k: seen.append(k) or {})
    incremental.reindex(root, str(tmp_path / "out"),
                        {"n": (0, 100), "lang": "en"})
    incremental.reindex(root, str(tmp_path / "out"), {"doc_id": 3})
    incremental.reindex(root, str(tmp_path / "out"))
    assert [k["row_filter_sig"] for k in seen] == \
        ["lang=en;nin[0,100]", "doc_id=3", "all"]
    assert seen[0]["row_filter"].equals(
        where_expr({"lang": "en", "n": (0, 100)}))
    assert seen[2]["row_filter"] is None
    with pytest.raises(KeyError):
        incremental.reindex(root, str(tmp_path / "out"), {"zz": 1})


def test_engine_reads_the_snapshot_it_opened(ray_session, tmp_path):
    """An in-place rebuild with a shrunk corpus wipes ``docstore/`` and
    ``shards/``; an engine opened before it still fetches the dropped
    docs' rows and still expands prefixes to the opened index's terms,
    like its term loads."""
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.pipelines.query import expand_prefix_terms
    from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC

    def write(docs: dict[int, str]):
        texts = list(docs.values())
        pq.write_table(pa.table({
            "doc_id": pa.array(list(docs), pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * len(texts)),
            "source": pa.array(["s"] * len(texts)),
            "n_chars": pa.array([len(t) for t in texts], pa.int64())}),
            str(tmp_path / "documents.parquet"))

    src, idx = str(tmp_path / "documents.parquet"), str(tmp_path / "index")
    cfg = EngineConfig(num_partitions=4)
    write({0: "zebra yak", 1: "apple pie", 2: "zealot zen"})
    build_index(src, idx, spec=DOCUMENTS_SPEC, cfg=cfg)
    eng = SearchEngine(idx)
    assert expand_prefix_terms(eng, "ze") == ["zealot", "zebra", "zen"]
    before = eng.fetch_docs([2, 0], ["doc_id", "content"])
    write({1: "apple pie"})
    build_index(src, idx, spec=DOCUMENTS_SPEC, cfg=cfg)
    assert [d for d, _ in eng.search(["zebra"], 5)] == [0]
    assert eng.fetch_docs([2, 0], ["doc_id", "content"]).equals(before)
    assert before["doc_id"].to_pylist() == [2, 0]
    assert expand_prefix_terms(eng, "ze") == ["zealot", "zebra", "zen"]
    eng.close()
    fresh = SearchEngine(idx)
    assert fresh.fetch_docs([2, 0]).num_rows == 0
    assert expand_prefix_terms(fresh, "ze") == []
