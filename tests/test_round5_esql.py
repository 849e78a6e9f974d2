"""Round-5: ES|QL front end — lexer/parser shape, Arrow-kernel
evaluator semantics, the STATS partial+fold combiner (batch-split
invariance), the raw-row exact top-n, post-STATS HAVING, and the
implicit LIMIT 1000."""

import datetime

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from onestools_eventlog_ray.pipelines.esql import (EsqlError, apply_rowops,
                                                   eval_expr, parse,
                                                   run_esql)


def _events(n=200):
    rng = np.random.default_rng(7)
    types = np.asarray(["view", "click", "purchase"])[rng.integers(0, 3, n)]
    return pa.table({
        "ts": pa.array([datetime.datetime(2024, 1, 1 + i % 5, i % 24)
                        for i in range(n)], pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, 20, n), pa.int64()),
        "event_type": pa.array(types, pa.string()),
        "value": pa.array(rng.uniform(0, 100, n), pa.float64()),
    })


# ------------------------------------------------------------- parsing

def test_parse_shapes():
    cmds = parse('FROM t | WHERE a == 1 AND b LIKE "x*" | EVAL c = a + 2 '
                 '| STATS n = COUNT(*) BY c | SORT n DESC | LIMIT 5')
    assert [c[0] for c in cmds] == ["from", "where", "eval", "stats",
                                    "sort", "limit"]
    assert cmds[0][1] == ["t"]
    assert cmds[3][1] == [("n", "COUNT", None)] and cmds[3][2] == ["c"]
    assert cmds[4][1] == [("n", False)]


def test_parse_errors():
    with pytest.raises(EsqlError):
        parse('WHERE a == 1')                      # no FROM
    with pytest.raises(EsqlError):
        parse('FROM t | STATS n = MEDIAN(a)')      # unknown agg
    with pytest.raises(EsqlError):
        parse('FROM t | LIMIT 2.5')                # non-int limit
    with pytest.raises(EsqlError):
        parse('FROM t | FROB a')                   # unknown command


# ----------------------------------------------------------- evaluator

def _tbl():
    return pa.table({"a": pa.array([1, 2, 3, None], pa.int64()),
                     "s": pa.array(["foo", "Bar", None, "quux"]),
                     "x": pa.array([1.5, -2.5, 0.5, 3.0])})


def _ev(expr_text, tbl):
    cmds = parse(f"FROM t | EVAL r = {expr_text}")
    return eval_expr(cmds[1][1][0][1], tbl)


def test_eval_arithmetic_and_compare():
    t = _tbl()
    assert _ev("a * 2 + 1", t).to_pylist() == [3, 5, 7, None]
    assert _ev("a % 2", t).to_pylist() == [1, 0, 1, None]
    assert _ev("a >= 2", t).to_pylist() == [False, True, True, None]
    assert _ev("-a", t).to_pylist() == [-1, -2, -3, None]
    assert _ev("NOT (a == 2)", t).to_pylist() == [True, False, True, None]


def test_eval_float_remainder_is_fmod(ray_session):
    """``%`` on doubles is the Java/ES remainder: it takes the sign of
    the dividend, like C ``fmod`` and DuckDB's ``%`` on DOUBLE.  (DuckDB
    1.0's ``fmod()`` function floors instead, taking the divisor's sign.)"""
    import math

    import duckdb
    import ray
    x = [7.5, -7.5, 7.5, -7.5, 5.25, -0.75, 10.0, -3.0]
    y = [2.0, 2.0, -2.0, -2.0, 1.5, 0.5, 4.0, 3.0]
    tbl = pa.table({"i": pa.array(range(len(x)), pa.int64()),
                    "x": pa.array(x, pa.float64()),
                    "y": pa.array(y, pa.float64())})
    got = run_esql("FROM t | EVAL m = x % y | SORT i | KEEP m",
                   {"t": ray.data.from_arrow(tbl)})["m"].to_pylist()
    want = [r[0] for r in duckdb.connect().execute(
        "SELECT x % y FROM tbl ORDER BY i").fetchall()]
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx([math.fmod(a, b) for a, b in zip(x, y)],
                                abs=1e-12)
    assert got[1] < 0 and got[2] > 0            # sign of the dividend


def test_eval_string_kernels():
    t = _tbl()
    assert _ev('TO_UPPER(s)', t).to_pylist() == ["FOO", "BAR", None, "QUUX"]
    assert _ev('LENGTH(s)', t).to_pylist() == [3, 3, None, 4]
    assert _ev('SUBSTRING(s, 2, 2)', t).to_pylist() == ["oo", "ar", None,
                                                        "uu"]
    assert _ev('s LIKE "f*"', t).to_pylist() == [True, False, None, False]
    assert _ev('s LIKE "?ar"', t).to_pylist() == [False, True, None, False]
    assert _ev('s RLIKE "[fq].*"', t).to_pylist() == [True, False, None,
                                                      True]
    assert _ev('STARTS_WITH(s, "f")', t).to_pylist() == [True, False, None,
                                                         False]
    assert _ev('CONCAT(s, "!")', t).to_pylist() == ["foo!", "Bar!", None,
                                                    "quux!"]
    assert _ev('COALESCE(s, "zz")', t).to_pylist() == ["foo", "Bar", "zz",
                                                       "quux"]


def test_eval_misc_kernels():
    t = _tbl()
    assert _ev("ABS(x)", t).to_pylist() == [1.5, 2.5, 0.5, 3.0]
    assert _ev("ROUND(x)", t).to_pylist() == [2.0, -3.0, 1.0, 3.0]
    assert _ev('a IN (1, 3)', t).to_pylist() == [True, False, True, False]
    assert _ev("a IS NULL", t).to_pylist() == [False, False, False, True]
    assert _ev("a IS NOT NULL", t).to_pylist() == [True, True, True, False]
    assert _ev("TO_LONG(x)", t).type == pa.int64()


def test_rowops_pipeline():
    t = _tbl()
    cmds = parse('FROM t | WHERE a IS NOT NULL | EVAL b = a * 10 '
                 '| RENAME s AS name | DROP x | KEEP name, b')
    out = apply_rowops(t, cmds[1:])
    assert out.column_names == ["name", "b"]
    assert out["b"].to_pylist() == [10, 20, 30]


# ------------------------------------------------------ full execution

@pytest.fixture(scope="module")
def tables(ray_session):
    import ray.data
    return {"events": ray.data.from_arrow(_events()).repartition(7)}


def test_stats_matches_pyarrow_reference(tables):
    got = run_esql(
        'FROM events | STATS n = COUNT(*), users = COUNT_DISTINCT(user_id),'
        ' vmax = MAX(value), vsum = SUM(user_id) BY event_type '
        '| SORT event_type', tables).to_pydict()
    ev = _events()
    want = {}
    for et, uid, val in zip(ev["event_type"].to_pylist(),
                            ev["user_id"].to_pylist(),
                            ev["value"].to_pylist()):
        e = want.setdefault(et, {"n": 0, "u": set(), "m": -1.0, "s": 0})
        e["n"] += 1
        e["u"].add(uid)
        e["m"] = max(e["m"], val)
        e["s"] += uid
    keys = sorted(want)
    assert got["event_type"] == keys
    assert got["n"] == [want[k]["n"] for k in keys]
    assert got["users"] == [len(want[k]["u"]) for k in keys]
    assert got["vmax"] == [want[k]["m"] for k in keys]
    assert got["vsum"] == [want[k]["s"] for k in keys]


def test_stats_batch_split_invariance(tables, ray_session):
    """7-block dataset and 1-block dataset fold to identical results —
    the combiner's mergeability contract."""
    import ray.data
    one = {"events": ray.data.from_arrow(_events())}
    q = ('FROM events | STATS n = COUNT(*), u = COUNT_DISTINCT(user_id) '
         'BY event_type | SORT event_type')
    assert run_esql(q, tables).to_pydict() == run_esql(q, one).to_pydict()


def test_global_stats_no_by(tables):
    got = run_esql('FROM events | STATS n = COUNT(*), '
                   'u = COUNT_DISTINCT(event_type), mn = MIN(user_id)',
                   tables).to_pydict()
    assert got == {"n": [200], "u": [3], "mn": [0]}


def test_avg_agg(tables):
    got = run_esql('FROM events | STATS a = AVG(user_id)',
                   tables).to_pydict()
    uid = _events()["user_id"].to_pylist()
    assert got["a"] == [pytest.approx(sum(uid) / len(uid))]


def test_raw_topn_exact(tables):
    got = run_esql('FROM events | SORT value DESC, user_id ASC | LIMIT 7 '
                   '| KEEP user_id, value', tables).to_pydict()
    ev = _events()
    pairs = sorted(zip(ev["value"].to_pylist(), ev["user_id"].to_pylist()),
                   key=lambda p: (-p[0], p[1]))[:7]
    assert got["value"] == [p[0] for p in pairs]
    assert got["user_id"] == [p[1] for p in pairs]


def test_having_and_post_eval(tables):
    got = run_esql('FROM events | STATS n = COUNT(*) BY user_id '
                   '| WHERE n >= 10 | EVAL n2 = n * 2 '
                   '| SORT n DESC, user_id ASC | LIMIT 3', tables)
    assert got.num_rows == 3
    assert got["n2"].to_pylist() == [v * 2 for v in got["n"].to_pylist()]


def test_implicit_limit_1000(ray_session):
    import ray.data
    big = {"t": ray.data.range(5000).map_batches(
        lambda b: pa.table({"i": b["id"]}), batch_format="pyarrow")}
    assert run_esql('FROM t', big).num_rows == 1000
    assert run_esql('FROM t | LIMIT 20', big).num_rows == 20


def _sorted_filter_table(n=3000):
    rng = np.random.default_rng(11)
    return pa.table({"i": pa.array(np.arange(n), pa.int64()),
                     "x": pa.array(rng.permutation(n), pa.int64()),
                     "y": pa.array(np.arange(n) % 7, pa.int64())})


def test_where_between_sort_and_limit_runs_before_the_cut(ray_session):
    """A WHERE after SORT filters the sorted rows, not the top-n cut:
    the result equals DuckDB's WHERE -> ORDER BY -> LIMIT, with the
    explicit LIMIT and with the implicit one."""
    import duckdb
    import ray.data
    tbl = _sorted_filter_table()
    t = {"t": ray.data.from_arrow(tbl).repartition(7)}
    con = duckdb.connect()
    con.register("tbl", tbl)

    def want(sql):
        return [r[0] for r in con.execute(sql).fetchall()]

    got = run_esql("FROM t | SORT x DESC | WHERE y == 0 | LIMIT 5", t)
    assert got["i"].to_pylist() == want(
        "SELECT i FROM tbl WHERE y = 0 ORDER BY x DESC LIMIT 5")
    got = run_esql("FROM t | SORT x | EVAL z = y + 1 | WHERE z == 1 "
                   "| KEEP i, z", t)
    assert got.column_names == ["i", "z"]
    assert got["i"].to_pylist() == want(
        "SELECT i FROM tbl WHERE y = 0 ORDER BY x")
    assert got.num_rows == 429


def test_command_rewriting_sort_key_before_where_raises(ray_session):
    import ray.data
    t = {"t": ray.data.from_arrow(_sorted_filter_table(50))}
    for q in ("FROM t | SORT x | EVAL x = -x | WHERE y == 0 | LIMIT 5",
              "FROM t | SORT x | KEEP i, y | WHERE y == 0",
              "FROM t | SORT x | RENAME x AS w | WHERE y == 0"):
        with pytest.raises(EsqlError, match="sort key"):
            run_esql(q, t)
    # a row-wise command after the last WHERE still sees the sorted cut
    got = run_esql("FROM t | SORT x | WHERE y == 0 | KEEP i | LIMIT 3", t)
    assert got.column_names == ["i"] and got.num_rows == 3


def test_implicit_limit_applies_to_stats(ray_session):
    import duckdb
    import ray.data
    tbl = pa.table({"g": pa.array(np.arange(3000) % 1500, pa.int64())})
    t = {"t": ray.data.from_arrow(tbl).repartition(4)}
    got = run_esql("FROM t | STATS n = COUNT(*) BY g", t)
    assert got.num_rows == 1000
    assert set(got["n"].to_pylist()) == {2}
    got = run_esql("FROM t | STATS n = COUNT(*) BY g | SORT g | LIMIT 1200",
                   t)
    con = duckdb.connect()
    con.register("tbl", tbl)
    assert got["g"].to_pylist() == [r[0] for r in con.execute(
        "SELECT g FROM tbl GROUP BY g ORDER BY g LIMIT 1200").fetchall()]


def test_date_trunc_day(tables):
    got = run_esql('FROM events | EVAL day = DATE_TRUNC("day", ts) '
                   '| STATS n = COUNT(*) BY day | SORT day',
                   tables).to_pydict()
    assert len(got["day"]) == 5 and sum(got["n"]) == 200
    assert all(d.hour == 0 for d in got["day"])


# ------------------------------------------- ENRICH / GROK / DISSECT

def test_compile_grok_and_dissect():
    from onestools_eventlog_ray.pipelines.esql import (compile_dissect,
                                                       compile_grok)
    rx, fields = compile_grok('%{WORD:w} = %{NUMBER:n:float}')
    assert fields == [("w", "string"), ("n", "float")]
    m = __import__("re").search(rx, "abc = 4.25")
    assert m.group("w") == "abc" and m.group("n") == "4.25"
    rx2, f2 = compile_dissect("%{a}-%{b}.%{c}")
    m2 = __import__("re").match(rx2, "x-y.z.w")
    assert (m2.group("a"), m2.group("b"), m2.group("c")) == ("x", "y",
                                                             "z.w")
    with pytest.raises(EsqlError):
        compile_grok("%{NOSUCH:x}")
    with pytest.raises(EsqlError):
        compile_dissect("no keys at all")


def test_grok_typed_extraction(ray_session):
    import ray.data
    t = {"logs": ray.data.from_arrow(pa.table({
        "line": ["INFO 2024-01-01T10:00:00 took 12ms",
                 "ERROR 2024-01-02T11:30:00 took 340ms",
                 "not a log line"]}))}
    got = run_esql(
        'FROM logs | GROK line "%{LOGLEVEL:lvl} %{TIMESTAMP_ISO8601:t}'
        ' took %{INT:ms:int}ms" | WHERE lvl IS NOT NULL '
        '| KEEP lvl, ms | SORT ms ASC', t).to_pydict()
    assert got == {"lvl": ["INFO", "ERROR"], "ms": [12, 340]}


def test_dissect_extraction(ray_session):
    import ray.data
    t = {"c": ray.data.from_arrow(pa.table({
        "name": ["Customer#001", "Customer#002", "Vendor#009"]}))}
    got = run_esql('FROM c | DISSECT name "%{kind}#%{num}" '
                   '| STATS n = COUNT(*) BY kind | SORT kind',
                   t).to_pydict()
    assert got == {"kind": ["Customer", "Vendor"], "n": [2, 1]}


def test_enrich_broadcast_lookup(ray_session):
    import ray.data
    t = {"orders": ray.data.from_arrow(pa.table({
             "oid": [1, 2, 3, 4],
             "nk": [10, 20, 10, 99]})).repartition(2),
         "dim": ray.data.from_arrow(pa.table({
             "nk": [10, 20],
             "nname": ["ALPHA", "BETA"],
             "region": ["r1", "r2"]}))}
    got = run_esql('FROM orders | ENRICH dim ON nk WITH nname '
                   '| SORT oid ASC | LIMIT 10', t).to_pydict()
    assert got["nname"] == ["ALPHA", "BETA", "ALPHA", None]  # left join
    assert "region" not in got                                # WITH obeyed
    got2 = run_esql('FROM orders | ENRICH dim ON nk '
                    '| SORT oid ASC | LIMIT 10', t).to_pydict()
    assert got2["region"] == ["r1", "r2", "r1", None]  # default: all cols


def test_enrich_unknown_table_raises(ray_session):
    import ray.data
    t = {"x": ray.data.from_arrow(pa.table({"a": [1]}))}
    with pytest.raises(EsqlError):
        run_esql('FROM x | ENRICH nope ON a', t)


# --------------------------------------------- MV functions and CASE

def test_mv_expand_and_functions(ray_session):
    import ray.data
    t = {"e": ray.data.from_arrow(pa.table({
        "id": [1, 2, 3],
        "v": pa.array([[1.0, 5.0, 3.0], [], [2.0, 2.0]],
                      pa.list_(pa.float64()))}))}
    got = run_esql('FROM e | MV_EXPAND v | STATS n = COUNT(*), '
                   'mx = MAX(v) BY id | SORT id', t).to_pydict()
    # the empty list of id 2 keeps one row with a null value
    assert got == {"id": [1, 2, 3], "n": [3, 1, 2], "mx": [5.0, None, 2.0]}
    got2 = run_esql('FROM e | EVAL c = MV_COUNT(v), mn = MV_MIN(v), '
                    'mx = MV_MAX(v), s = MV_SUM(v), a = MV_AVG(v) '
                    '| KEEP id, c, mn, mx, s, a | SORT id', t).to_pydict()
    assert got2["c"] == [3, 0, 2]
    assert got2["mn"] == [1.0, None, 2.0]   # empty list -> null
    assert got2["mx"] == [5.0, None, 2.0]
    assert got2["s"] == [9.0, None, 4.0]
    assert got2["a"] == [3.0, None, 2.0]


def test_mv_expand_keeps_null_and_empty_lists(ray_session):
    """ES keeps a row whose multi-value field is null or empty, once, with
    a null value; the other columns and the row order are kept."""
    import ray.data
    t = {"e": ray.data.from_arrow(pa.table({
        "id": [1, 2, 3, 4, 5],
        "v": pa.array([None, [7, 8], [], [9], None], pa.list_(pa.int64()))}))}
    got = run_esql('FROM e | MV_EXPAND v | SORT id, v', t).to_pydict()
    assert got == {"id": [1, 2, 2, 3, 4, 5], "v": [None, 7, 8, None, 9, None]}
    none = {"e": ray.data.from_arrow(pa.table({
        "id": [1, 2], "v": pa.array([[], None], pa.list_(pa.int64()))}))}
    got = run_esql('FROM e | MV_EXPAND v | SORT id', none).to_pydict()
    assert got == {"id": [1, 2], "v": [None, None]}


def test_case_function(ray_session):
    import ray.data
    t = {"x": ray.data.from_arrow(pa.table({"v": [1, 15, 150, 99]}))}
    got = run_esql('FROM x | EVAL band = CASE(v < 10, "low", '
                   'v < 100, "mid", "high") | KEEP v, band | SORT v',
                   t).to_pydict()
    assert got["band"] == ["low", "mid", "mid", "high"]
    with pytest.raises(EsqlError):
        run_esql('FROM x | EVAL y = CASE(v < 10, "a")', t)  # no default


# ------------------------------------------------- full-text MATCH()

def test_match_predicate_index_accelerated(ray_session, small_corpus_dir,
                                           tmp_path):
    """MATCH resolves from the inverted index and must agree with a
    brute-force text scan; it composes with columnar predicates."""
    import ray.data
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.pipelines.query import SearchEngine
    from onestools_eventlog_ray.functions.analyzer import tokenize_py
    idx = str(tmp_path / "idx")
    build_index(small_corpus_dir, idx, cfg=EngineConfig(num_partitions=8))
    eng = SearchEngine(idx)
    docs = ray.data.read_parquet(small_corpus_dir)
    got = run_esql('FROM t | WHERE MATCH(content, "def import") '
                   '| STATS n = COUNT(*)', {"t": docs},
                   search_engine=eng, id_col="doc_id").to_pydict()
    # brute force over raw text (OR semantics)
    import pyarrow.parquet as pq
    from onestools_eventlog_ray.stages.normalize import add_doc_id
    from onestools_eventlog_ray.sources.corpus import CODE_CORPUS_SPEC
    raw = add_doc_id(pq.read_table(small_corpus_dir + "/part-00000.parquet"),
                     CODE_CORPUS_SPEC)
    want = sum(1 for t in raw["content"].to_pylist()
               if {"def", "import"} & set(tokenize_py(t)))
    assert got["n"] == [want] and want > 0


def test_match_requires_engine_and_shape(ray_session):
    import ray.data
    t = {"x": ray.data.from_arrow(pa.table({"doc_id": [1], "s": ["a"]}))}
    with pytest.raises(EsqlError):
        run_esql('FROM x | WHERE MATCH(s, "a")', t)   # no engine
    with pytest.raises(EsqlError):
        parse('FROM x | WHERE MATCH("lit", "a")')     # field not a col
    with pytest.raises(EsqlError):
        parse('FROM x | WHERE MATCH(s, 5)')           # query not a str


# ------------------------------------------------- empty-input edges

def test_empty_input_edges(ray_session):
    """Fully-filtered input: grouped STATS -> zero typed rows, global
    STATS -> one row (COUNT=0, MAX=NULL — SQL semantics), SORT/LIMIT
    -> zero rows with the source schema restored."""
    import ray.data
    t = {"x": ray.data.from_arrow(pa.table({"a": [1, 2, 3],
                                            "s": ["p", "q", "r"]}))}
    g = run_esql('FROM x | WHERE a > 99 | STATS n = COUNT(*), '
                 'u = COUNT_DISTINCT(s) BY s | SORT s', t)
    assert g.num_rows == 0 and g.column_names == ["s", "n", "u"]
    gl = run_esql('FROM x | WHERE a > 99 | STATS n = COUNT(*), '
                  'mx = MAX(a)', t).to_pydict()
    assert gl == {"n": [0], "mx": [None]}
    srt = run_esql('FROM x | WHERE a > 99 | SORT a | LIMIT 5', t)
    assert srt.num_rows == 0 and srt.column_names == ["a", "s"]


def test_from_wildcard_and_list(ray_session):
    import ray.data
    t1 = pa.table({"a": [1, 2], "g": ["x", "x"]})
    t2 = pa.table({"a": [3], "g": ["y"]})
    T = {"logs_01": ray.data.from_arrow(t1),
         "logs_02": ray.data.from_arrow(t2),
         "other": ray.data.from_arrow(t1)}
    got = run_esql('FROM logs_* | STATS n = COUNT(*), s = SUM(a) BY g '
                   '| SORT g', T).to_pydict()
    assert got == {"g": ["x", "y"], "n": [2, 1], "s": [3, 3]}
    # explicit list, repeated names dedup (ES: an index matches once)
    assert run_esql('FROM logs_01, logs_02, logs_01 '
                    '| STATS n = COUNT(*)', T).to_pydict() == {"n": [3]}
    with pytest.raises(EsqlError):
        run_esql('FROM nope_* | LIMIT 1', T)


def test_inlinestats_grouped_and_global(ray_session):
    import ray.data
    t = {"e": ray.data.from_arrow(pa.table({
        "u": [1, 1, 2, 2, 2], "v": [5, 9, 3, 7, 7]})).repartition(3)}
    got = run_esql('FROM e | INLINESTATS mx = MAX(v) BY u '
                   '| WHERE v == mx | SORT u, v | LIMIT 10', t).to_pydict()
    assert got == {"u": [1, 2, 2], "v": [9, 7, 7], "mx": [9, 7, 7]}
    got2 = run_esql('FROM e | INLINESTATS tot = SUM(v) '
                    '| EVAL pct = v * 100 / tot | KEEP u, v, pct '
                    '| SORT u, v | LIMIT 10', t).to_pydict()
    assert got2["pct"] == [16, 29, 9, 22, 22]   # int division, tot=31
    with pytest.raises(EsqlError):
        run_esql('FROM e | INLINESTATS m = MAX(v) BY u, v | LIMIT 1', t)


def test_module_source_compiles_without_warnings():
    """Invalid escape sequences warn at compile time (an error under
    ``-W error``); compile the source directly so a cached ``.pyc``
    cannot hide them."""
    import warnings
    from onestools_eventlog_ray.pipelines import esql
    with open(esql.__file__, encoding="utf-8") as fh:
        src = fh.read()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(src, esql.__file__, "exec")
