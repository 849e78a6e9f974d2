"""Indexed shard reads: ``SearchEngine.load_terms`` and the shared
``TermShards`` probe against full reads of the same files, the
one-row-group-per-probe bound, and the open-file snapshot rule.

The indexes here are hand-written (a ``stats.json`` plus shard files),
so no build runs and every layout the reader must accept can be laid
down directly: ``write_shard`` files, one-row-group files of the older
plain ``pq.write_table`` writer, files without term statistics, terms
too long for the writer's statistics and missing shards."""

import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings, strategies as st

from onestools_eventlog_ray.functions.hashing import term_partition_one
from onestools_eventlog_ray.pipelines.query import SearchEngine
from onestools_eventlog_ray.stages.postings import (SHARD_ROW_GROUP,
                                                    TermShards, write_shard)
from onestools_eventlog_ray.state import checkpoint as ckpt

_ALPHA = np.array(list("abcdefghij"))
# over parquet's 4096-byte statistics limit: the bound is dropped
_LONG = "m" * 5000
_LAYOUTS = ("write_shard", "plain", "no_stats", "missing")


def _words(rng, n: int) -> list[str]:
    """``n`` sorted distinct short words over a 10-letter alphabet."""
    out: set[str] = set()
    while len(out) < n:
        k = int(rng.integers(2, 6))
        out.add("".join(rng.choice(_ALPHA, size=k)))
    return sorted(out)


def _shard_table(terms: list[str], rng) -> pa.Table:
    n = len(terms)
    return pa.table({
        "term": pa.array(terms, pa.string()),
        "df": pa.array(rng.integers(1, 1000, size=n), pa.int64()),
        "cf": pa.array(rng.integers(1, 5000, size=n), pa.int64()),
        "posting": pa.array([rng.bytes(int(rng.integers(1, 40)))
                             for _ in range(n)], pa.large_binary()),
    })


def _write(tbl: pa.Table, path: str, layout: str) -> None:
    if layout == "write_shard":
        write_shard(tbl, path)
    elif layout == "plain":                 # the one-row-group layout
        pq.write_table(tbl, path)
    elif layout == "no_stats":
        pq.write_table(tbl, path, row_group_size=SHARD_ROW_GROUP,
                       write_statistics=False)


def _index(root: str, P: int, shards: dict[int, tuple[pa.Table, str]]) -> str:
    """A queryable index: stats, no docstore, the given shard files."""
    ckpt.write_stats(root, {"n_docs": 1000, "avgdl": 10.0,
                            "total_tokens": 10_000, "num_partitions": P,
                            "config": {"bm25": {"k1": 1.2, "b": 0.75}}})
    os.makedirs(os.path.join(root, "shards"), exist_ok=True)
    for p, (tbl, layout) in shards.items():
        _write(tbl, os.path.join(root, "shards", f"part-{p:05d}.parquet"),
               layout)
    return root


def _rows(t: pa.Table) -> dict[str, tuple[int, bytes]]:
    return {a: (int(b), c) for a, b, c in zip(t["term"].to_pylist(),
                                              t["df"].to_pylist(),
                                              t["posting"].to_pylist())}


def _full(path: str) -> dict[str, tuple[int, bytes]]:
    """The reference: a full read of the shard file."""
    return _rows(pq.read_table(path)) if os.path.exists(path) else {}


@st.composite
def indexes(draw):
    """(P, {pkey: (terms, layout)}, rng seed, probe terms)."""
    P = draw(st.sampled_from([1, 2, 3]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.sampled_from([0, 1, 5, SHARD_ROW_GROUP - 1, SHARD_ROW_GROUP,
                              SHARD_ROW_GROUP + 1, 3 * SHARD_ROW_GROUP + 7]))
    terms = _words(rng, n)
    if draw(st.booleans()):
        terms = sorted(terms + [_LONG])
    by_shard: dict[int, list[str]] = {}
    for t in terms:
        by_shard.setdefault(term_partition_one(t, P), []).append(t)
    layouts = {p: draw(st.sampled_from(_LAYOUTS)) for p in range(P)}
    # probes: row-group boundaries, the ends of each shard, a sample,
    # and absent terms before, between and after the present ones
    probes: set[str] = {"", "a", "jjjjjjj", "zzz", _LONG, _LONG + "m"}
    for ts in by_shard.values():
        for i in range(0, len(ts), SHARD_ROW_GROUP):
            probes.update(ts[i:i + 1] + ts[i + SHARD_ROW_GROUP - 1:
                                           i + SHARD_ROW_GROUP])
        probes.update([ts[0], ts[-1], ts[0][:-1], ts[-1] + "a"])
    if terms:
        idx = draw(st.lists(st.integers(0, len(terms) - 1), max_size=12))
        probes.update(terms[i] for i in idx)
        probes.update(terms[i] + "j" for i in idx)
    probes = sorted(probes)
    order = draw(st.permutations(range(len(probes))))
    return P, by_shard, layouts, seed, [probes[i] for i in order]


@given(indexes(), st.integers(1, 6))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_load_terms_matches_full_shard_read(case, batch):
    """Every probe answers what a full read of its shard holds, on every
    layout, in batches that mix terms already in ``_cache`` (hits and
    cached absences) with misses."""
    P, by_shard, layouts, seed, probes = case
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as root:
        _index(root, P, {p: (_shard_table(by_shard.get(p, []), rng),
                             layouts[p])
                         for p in range(P) if layouts[p] != "missing"})
        want: dict[str, tuple[int, bytes]] = {}
        for p in range(P):
            want.update(_full(os.path.join(root, "shards",
                                           f"part-{p:05d}.parquet")))
        eng = SearchEngine(root)
        seen: set[str] = set()
        for i in range(0, len(probes), batch):
            # each batch repeats half of the previous one: cache hits
            ts = probes[max(0, i - batch // 2):i + batch]
            got = eng.load_terms(ts)
            assert got == {t: want[t] for t in ts if t in want}
            seen.update(ts)
            for t in ts:
                assert eng._cache[t] == want.get(t)
        assert eng.load_terms(sorted(seen)) == \
            {t: want[t] for t in seen if t in want}


def test_term_shards_reads_multi_row_terms_across_groups(tmp_path):
    """The sidecar shape: a term's rows may span row groups; the probe
    returns all of them, in file order, and nothing else."""
    rng = np.random.default_rng(7)
    terms = sorted(rng.choice(_words(rng, 9), size=60).tolist())
    tbl = pa.table({"term": terms, "doc_id": np.arange(60, dtype=np.int64)})
    path = str(tmp_path / "f-00000.parquet")
    pq.write_table(tbl, path, row_group_size=4)
    ts = TermShards(path)
    for probe in [sorted(set(terms))[::3], [terms[0]], [terms[-1]],
                  ["zz", terms[5]], ["0"]]:
        got = ts.read(0, probe)
        want = tbl.filter(pa.array([t in probe for t in terms]))
        if got is None:
            assert want.num_rows == 0
        else:
            assert got.equals(want)
    # a missing file is not remembered: one written later is found
    late = TermShards(str(tmp_path / "late-{:05d}.parquet"))
    assert late.read(0, [terms[0]]) is None
    pq.write_table(tbl, str(tmp_path / "late-00000.parquet"))
    assert late.read(0, [terms[0]]).equals(ts.read(0, [terms[0]]))


@pytest.fixture
def counted(monkeypatch):
    """Counts shard opens and row-group reads; any whole-file read of a
    shard through ``pq.read_table`` fails the test."""
    opens, reads = [], []
    base = pq.ParquetFile

    class Counting(base):
        def __init__(self, source, *a, **k):
            opens.append(source)
            super().__init__(source, *a, **k)

        def read_row_group(self, i, *a, **k):
            reads.append(i)
            return super().read_row_group(i, *a, **k)

    real_read_table = pq.read_table

    def read_table(source, *a, **k):
        assert "shards" not in str(source), "whole-shard read"
        return real_read_table(source, *a, **k)

    monkeypatch.setattr(pq, "ParquetFile", Counting)
    monkeypatch.setattr(pq, "read_table", read_table)
    return opens, reads


def test_cold_probe_reads_one_row_group(tmp_path, counted):
    opens, reads = counted
    rng = np.random.default_rng(3)
    terms = _words(rng, 5 * SHARD_ROW_GROUP + 3)
    root = _index(str(tmp_path), 1, {0: (_shard_table(terms, rng),
                                         "write_shard")})
    assert pq.read_metadata(os.path.join(root, "shards", "part-00000.parquet")
                            ).num_row_groups == 6
    del opens[:]
    eng = SearchEngine(root)
    for g, t in [(2, terms[2 * SHARD_ROW_GROUP + 5]),
                 (0, terms[0]), (5, terms[-1]),
                 (3, terms[4 * SHARD_ROW_GROUP - 1])]:
        del reads[:]
        assert t in eng.load_terms([t])
        assert reads == [g]
    del reads[:]
    assert eng.load_terms(["zzzz", "0"]) == {}   # outside every group
    assert reads == []
    # N probes over one shard open it once
    for t in terms[::17]:
        assert t in eng.load_terms([t, t + "a"])
    assert len(opens) == 1


def test_engine_answers_from_the_shard_it_opened(tmp_path):
    """A shard replaced on disk under an open engine is not seen: the
    engine keeps answering, without error, from the file it opened."""
    rng = np.random.default_rng(5)
    terms = _words(rng, 3 * SHARD_ROW_GROUP)
    old = _shard_table(terms, rng)
    root = _index(str(tmp_path), 1, {0: (old, "write_shard")})
    eng = SearchEngine(root)
    assert terms[0] in eng.load_terms([terms[0]])       # opens the shard
    new = _shard_table(terms[::2], rng)
    path = os.path.join(root, "shards", "part-00000.parquet")
    ckpt.atomic_write_bytes(path, lambda tmp: pq.write_table(new, tmp))
    want_old = _rows(old)
    probes = terms[1:40] + terms[-40:]
    assert eng.load_terms(probes) == {t: want_old[t] for t in probes}
    assert SearchEngine(root).load_terms(probes) == \
        {t: v for t, v in _full(path).items() if t in probes}


def test_write_shard_layout(tmp_path):
    """Row groups of SHARD_ROW_GROUP terms, no dictionary pages, min/max
    on ``term`` only."""
    rng = np.random.default_rng(9)
    path = str(tmp_path / "part-00000.parquet")
    write_shard(_shard_table(_words(rng, 2 * SHARD_ROW_GROUP + 1), rng), path)
    md = pq.read_metadata(path)
    assert [md.row_group(i).num_rows for i in range(md.num_row_groups)] == \
        [SHARD_ROW_GROUP, SHARD_ROW_GROUP, 1]
    for i in range(md.num_row_groups):
        for c in range(md.num_columns):
            col = md.row_group(i).column(c)
            assert not col.has_dictionary_page
            assert col.compression == "ZSTD"
            assert col.is_stats_set == (col.path_in_schema == "term")


def _open_shard_files(root: str, sub: str = "shards") -> int:
    """This process's open file descriptors on ``root``'s shard files
    (``sub="docstore"``: its docstore parts)."""
    shards = os.path.join(root, sub) + os.sep
    n = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            n += os.readlink(f"/proc/self/fd/{fd}").startswith(shards)
        except OSError:                 # closed since the listing
            pass
    return n


def test_close_releases_the_open_shard_files(tmp_path):
    """An engine holds one open file per probed shard until ``close()``;
    a probe after ``close()`` opens its shard again.  It holds one open
    file per docstore part from open until ``close()``; a docstore read
    after ``close()`` raises."""
    rng = np.random.default_rng(11)
    P = 3
    terms = _words(rng, 60)
    by_shard: dict[int, list[str]] = {}
    for t in terms:
        by_shard.setdefault(term_partition_one(t, P), []).append(t)
    roots = [_index(str(tmp_path / g), P,
                    {p: (_shard_table(by_shard.get(p, []), rng), "write_shard")
                     for p in range(P)})
             for g in ("gen-0000", "gen-0001")]
    os.makedirs(os.path.join(roots[0], "docstore"))
    for i in range(3):
        pq.write_table(pa.table({"doc_id": pa.array([i, 10 + i], pa.int64())}),
                       os.path.join(roots[0], "docstore", f"p{i}.parquet"))
    assert _open_shard_files(roots[0]) == 0
    eng = SearchEngine(roots[0])
    assert _open_shard_files(roots[0]) == 0
    assert _open_shard_files(roots[0], "docstore") == 3
    assert len(eng.load_terms(terms)) == len(terms)
    assert eng.fetch_docs([11, 0])["doc_id"].to_pylist() == [11, 0]
    assert _open_shard_files(roots[0]) == P
    assert _open_shard_files(roots[0], "docstore") == 3
    eng.close()
    assert _open_shard_files(roots[0]) == 0
    assert _open_shard_files(roots[0], "docstore") == 0
    with pytest.raises(ValueError, match="closed"):
        eng.fetch_docs([11])
    assert _open_shard_files(roots[0], "docstore") == 0
    assert eng.load_terms(["zzz"]) == {}      # a miss probes one shard
    assert _open_shard_files(roots[0]) == 1
    eng.close()
    assert _open_shard_files(roots[0]) == 0

    gen = SearchEngine(str(tmp_path))
    assert gen.df_of(terms[:1])[terms[0]] > 0   # one probe per generation
    assert [_open_shard_files(r) for r in roots] == [1, 1]
    gen.close()
    assert [_open_shard_files(r) for r in roots] == [0, 0]


def test_prefix_expansion_reads_the_engine_s_open_shards(tmp_path, counted):
    """A prefix expansion opens no shard its engine has not opened, and
    reads only the row groups whose term range overlaps the prefix."""
    from onestools_eventlog_ray.pipelines.query import expand_prefix_terms
    opens, reads = counted
    rng = np.random.default_rng(13)
    terms = _words(rng, 5 * SHARD_ROW_GROUP + 3)
    root = _index(str(tmp_path), 1, {0: (_shard_table(terms, rng),
                                         "write_shard")})
    eng = SearchEngine(root)
    assert terms[0] in eng.load_terms([terms[0]])
    del opens[:], reads[:]
    pre = terms[2 * SHARD_ROW_GROUP + 5][:3]
    want = [t for t in terms if t.startswith(pre)]
    assert expand_prefix_terms(eng, pre, 10_000) == want
    assert opens == []
    groups = {i // SHARD_ROW_GROUP for i, t in enumerate(terms)
              if t.startswith(pre)}
    assert set(reads) == groups and len(reads) == len(groups)
