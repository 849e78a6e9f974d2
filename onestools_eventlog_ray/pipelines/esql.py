"""ES|QL front end — the modern Elasticsearch piped query language
(``FROM t | WHERE … | EVAL … | STATS … BY … | SORT … | LIMIT n``)
compiled onto Ray Data.

The reference's consumers query the exported rows through Kibana /
ES search APIs (`/root/reference/OneSTools.EventLog.Exporter.Core/
ElasticSearch/ElasticSearchStorage.cs`); ES|QL is the tabular query
surface modern ES puts on the same data.  This module implements a
self-contained lexer + recursive-descent parser + Arrow-kernel
evaluator, compiled to the engine's execution shapes:

- **Row-wise commands** (WHERE / EVAL / KEEP / DROP / RENAME) become
  ONE fused vectorized ``map_batches`` stage over zero-copy Arrow
  batches — every expression node maps to a ``pyarrow.compute``
  kernel, never a Python loop over rows.
- **STATS** is the classic combiner split: a per-batch partial
  aggregate (Acero ``Table.group_by``) emits key-bounded partial rows
  — sums / mins / maxes / non-null counts, plus per-batch DISTINCT
  (key, value) rows for COUNT_DISTINCT — and the driver folds the
  tiny type-table.  The full input never shuffles; the fold traffic
  is O(num_batches x |keys|), the same A3 pattern as the corpus-stats
  rollup (``stages/stats.py``).
- **SORT + LIMIT** on raw rows is an exact distributed top-n: each
  batch contributes its own ``sort_by().slice(0, n)`` partial and the
  driver merges O(num_batches x n) rows.  Like real ES|QL, every
  query carries an implicit ``LIMIT 1000`` unless an explicit LIMIT
  is given — a full unbounded sort is an anti-pattern the language
  itself refuses at 100-TB scale.
- Commands AFTER a STATS (a second WHERE = HAVING, SORT, EVAL …)
  run on the already-tiny driver table through the SAME evaluator.

Further commands:
- **ENRICH <table> ON <key> [WITH cols]** — the lookup join: the
  (small, by definition) enrich index is materialized once, ``ray.put``
  into the object store, and every batch resolves it with an
  ``index_in``/``take`` lookup; the big side never shuffles (the same
  J1 broadcast-dim pattern as the relational pipelines).  The dim's
  first column is the match field; misses yield nulls (left join).
- **GROK <col> "pattern"** — logstash-style ``%{SYNTAX:name:type}``
  patterns compiled to ONE RE2 ``extract_regex`` kernel per batch with
  typed casts (library: WORD NOTSPACE DATA GREEDYDATA INT NUMBER IP
  LOGLEVEL TIMESTAMP_ISO8601).
- **DISSECT <col> "pattern"** — positional ``%{key}`` fields between
  literal separators, compiled to an anchored non-greedy regex through
  the same vectorized extractor.
- **MV_EXPAND <col>** — explodes a list column inside the batch via
  list offsets (parent-index take), one output row per element; a row
  whose list is null or empty is kept once with a null value, as in ES.
- **INLINESTATS … BY key** — the aggregate joined back onto every
  row: STATS combiner + broadcast enrich on the BY key (global form
  appends constants) — the window-function idiom in piped form.
- **MATCH(field, "terms")** (ES 8.17 full-text function) — resolved
  ONCE on the driver to the live docs whose postings hold any term
  (shard-pruned term reads; content never scanned) and applied per
  batch as one ``is_in`` kernel on the id column; pass
  ``search_engine=`` to :func:`run_esql`.
- ``FROM a, b, logs-*`` — multi-index FROM with trailing-wildcard
  patterns: matching Datasets union without materializing (block-list
  union, zero data movement); repeated names count once, like ES.

Supported expression surface: arithmetic (+ - * / %), comparisons,
AND/OR/NOT, LIKE (ES wildcards ``*``/``?``), RLIKE, IN, IS NULL /
IS NOT NULL, CASE(...), and functions LENGTH, TO_LOWER, TO_UPPER,
SUBSTRING (1-based), ABS, ROUND, STARTS_WITH, ENDS_WITH, CONCAT,
COALESCE, DATE_TRUNC, TO_LONG, TO_DOUBLE, TO_STRING, and the
multi-value family MV_COUNT / MV_MIN / MV_MAX / MV_SUM / MV_AVG
(segmented reduces over the list layout — no expansion).  Aggregates:
COUNT(*), COUNT(expr), SUM, MIN, MAX, AVG, COUNT_DISTINCT.  Function
names and CASE arity are validated at parse time so a bad query fails
on the driver, not inside a Ray task.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


class EsqlError(ValueError):
    pass


# ---------------------------------------------------------------- lexer

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<num>\d+\.\d+|\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
      | (?P<str>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
      | (?P<op>==|!=|<=|>=|[|,()<>+\-*/%=])
    )""", re.VERBOSE)

_KEYWORDS = {"FROM", "WHERE", "EVAL", "STATS", "BY", "SORT", "LIMIT",
             "KEEP", "DROP", "RENAME", "AS", "ASC", "DESC", "AND", "OR",
             "NOT", "LIKE", "RLIKE", "IN", "IS", "NULL", "TRUE", "FALSE",
             "ENRICH", "ON", "WITH", "GROK", "DISSECT", "MV_EXPAND",
             "INLINESTATS"}


def _lex(q: str) -> list[tuple[str, object]]:
    toks, pos = [], 0
    while pos < len(q):
        m = _TOKEN_RE.match(q, pos)
        if not m or m.end() == pos:
            if q[pos:].strip() == "":
                break
            raise EsqlError(f"lex error at {q[pos:pos + 20]!r}")
        pos = m.end()
        if m.group("num") is not None:
            s = m.group("num")
            toks.append(("num", float(s) if "." in s else int(s)))
        elif m.group("ident") is not None:
            s = m.group("ident")
            if s.upper() in _KEYWORDS:
                toks.append(("kw", s.upper()))
            else:
                toks.append(("ident", s))
        elif m.group("str") is not None:
            raw = m.group("str")
            body = raw[1:-1]
            body = re.sub(r"\\(.)", r"\1", body)
            toks.append(("str", body))
        else:
            toks.append(("op", m.group("op")))
    return toks


# --------------------------------------------------------------- parser

class _P:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, kind, val=None):
        k, v = self.take()
        if k != kind or (val is not None and v != val):
            raise EsqlError(f"expected {val or kind}, got {v!r}")
        return v

    def at_kw(self, *kws):
        k, v = self.peek()
        return k == "kw" and v in kws

    def at_op(self, *ops):
        k, v = self.peek()
        return k == "op" and v in ops

    def done(self):
        return self.i >= len(self.toks)

    # expression grammar -------------------------------------------
    def expr(self):
        return self._or()

    def _or(self):
        n = self._and()
        while self.at_kw("OR"):
            self.take()
            n = ("or", n, self._and())
        return n

    def _and(self):
        n = self._not()
        while self.at_kw("AND"):
            self.take()
            n = ("and", n, self._not())
        return n

    def _not(self):
        if self.at_kw("NOT"):
            self.take()
            return ("not", self._not())
        return self._cmp()

    def _cmp(self):
        n = self._add()
        if self.at_op("==", "!=", "<", ">", "<=", ">="):
            op = self.take()[1]
            return ("bin", op, n, self._add())
        if self.at_kw("LIKE"):
            self.take()
            return ("like", n, self.expect("str"))
        if self.at_kw("RLIKE"):
            self.take()
            return ("rlike", n, self.expect("str"))
        if self.at_kw("IN"):
            self.take()
            self.expect("op", "(")
            vals = [self._literal()]
            while self.at_op(","):
                self.take()
                vals.append(self._literal())
            self.expect("op", ")")
            return ("in", n, vals)
        if self.at_kw("IS"):
            self.take()
            neg = False
            if self.at_kw("NOT"):
                self.take()
                neg = True
            self.expect("kw", "NULL")
            node = ("isnull", n)
            return ("not", node) if neg else node
        return n

    def _add(self):
        n = self._mul()
        while self.at_op("+", "-"):
            op = self.take()[1]
            n = ("bin", op, n, self._mul())
        return n

    def _mul(self):
        n = self._unary()
        while self.at_op("*", "/", "%"):
            op = self.take()[1]
            n = ("bin", op, n, self._unary())
        return n

    def _unary(self):
        if self.at_op("-"):
            self.take()
            return ("neg", self._unary())
        return self._primary()

    def _literal(self):
        k, v = self.take()
        if k in ("num", "str"):
            return v
        if k == "kw" and v in ("TRUE", "FALSE"):
            return v == "TRUE"
        if k == "kw" and v == "NULL":
            return None
        raise EsqlError(f"expected literal, got {v!r}")

    def _primary(self):
        k, v = self.peek()
        if k == "num" or k == "str":
            self.take()
            return ("lit", v)
        if k == "kw" and v in ("TRUE", "FALSE", "NULL"):
            self.take()
            return ("lit", None if v == "NULL" else v == "TRUE")
        if k == "op" and v == "(":
            self.take()
            n = self.expr()
            self.expect("op", ")")
            return n
        if k == "ident":
            self.take()
            if self.at_op("("):
                self.take()
                args = []
                if not self.at_op(")"):
                    args.append(self.expr())
                    while self.at_op(","):
                        self.take()
                        args.append(self.expr())
                self.expect("op", ")")
                return ("call", v.upper(), args)
            return ("col", v)
        raise EsqlError(f"unexpected token {v!r}")


_AGGS = {"COUNT", "SUM", "MIN", "MAX", "AVG", "COUNT_DISTINCT"}


def parse(query: str) -> list[tuple]:
    """ES|QL text -> command list.  Commands are split on top-level
    ``|`` (no expression uses that operator)."""
    toks = _lex(query)
    groups, cur = [], []
    for t in toks:
        if t == ("op", "|"):
            groups.append(cur)
            cur = []
        else:
            cur.append(t)
    groups.append(cur)
    cmds = []
    for gi, g in enumerate(groups):
        p = _P(g)
        k, v = p.take()
        if k != "kw":
            raise EsqlError(f"expected command keyword, got {v!r}")
        if v == "FROM":
            if gi != 0:
                raise EsqlError("FROM must be the first command")
            pats = []
            while True:
                name = p.expect("ident")
                if p.at_op("*"):            # trailing wildcard: idx*
                    p.take()
                    name += "*"
                pats.append(name)
                if p.at_op(","):
                    p.take()
                    continue
                break
            cmds.append(("from", pats))
        elif v == "WHERE":
            cmds.append(("where", p.expr()))
        elif v == "EVAL":
            assigns = []
            while True:
                name = p.expect("ident")
                p.expect("op", "=")
                assigns.append((name, p.expr()))
                if p.at_op(","):
                    p.take()
                    continue
                break
            cmds.append(("eval", assigns))
        elif v in ("STATS", "INLINESTATS"):
            kind = "stats" if v == "STATS" else "inlinestats"
            aggs = []
            while True:
                name = p.expect("ident")
                p.expect("op", "=")
                fk, fv = p.take()
                if fk != "ident" or fv.upper() not in _AGGS:
                    raise EsqlError(f"unknown aggregate {fv!r}")
                fn = fv.upper()
                p.expect("op", "(")
                if fn == "COUNT" and p.at_op("*"):
                    p.take()
                    arg = None
                else:
                    arg = p.expr()
                p.expect("op", ")")
                aggs.append((name, fn, arg))
                if p.at_op(","):
                    p.take()
                    continue
                break
            keys = []
            if p.at_kw("BY"):
                p.take()
                keys.append(p.expect("ident"))
                while p.at_op(","):
                    p.take()
                    keys.append(p.expect("ident"))
            cmds.append((kind, aggs, keys))
        elif v == "SORT":
            specs = []
            while True:
                col = p.expect("ident")
                asc = True
                if p.at_kw("ASC", "DESC"):
                    asc = p.take()[1] == "ASC"
                specs.append((col, asc))
                if p.at_op(","):
                    p.take()
                    continue
                break
            cmds.append(("sort", specs))
        elif v == "LIMIT":
            k2, n = p.take()
            if k2 != "num" or not isinstance(n, int):
                raise EsqlError("LIMIT needs an integer")
            cmds.append(("limit", n))
        elif v == "KEEP":
            cols = [p.expect("ident")]
            while p.at_op(","):
                p.take()
                cols.append(p.expect("ident"))
            cmds.append(("keep", cols))
        elif v == "DROP":
            cols = [p.expect("ident")]
            while p.at_op(","):
                p.take()
                cols.append(p.expect("ident"))
            cmds.append(("drop", cols))
        elif v == "ENRICH":
            tname = p.expect("ident")
            p.expect("kw", "ON")
            key = p.expect("ident")
            with_cols = None
            if p.at_kw("WITH"):
                p.take()
                with_cols = [p.expect("ident")]
                while p.at_op(","):
                    p.take()
                    with_cols.append(p.expect("ident"))
            cmds.append(("enrich", tname, key, with_cols))
        elif v == "MV_EXPAND":
            cmds.append(("mv_expand", p.expect("ident")))
        elif v in ("GROK", "DISSECT"):
            col = p.expect("ident")
            pat = p.expect("str")
            cmds.append((v.lower(), col, pat))
        elif v == "RENAME":
            pairs = []
            while True:
                old = p.expect("ident")
                p.expect("kw", "AS")
                pairs.append((old, p.expect("ident")))
                if p.at_op(","):
                    p.take()
                    continue
                break
            cmds.append(("rename", pairs))
        else:
            raise EsqlError(f"unsupported command {v}")
        if not p.done():
            raise EsqlError(f"trailing tokens in {v} command")
    if not cmds or cmds[0][0] != "from":
        raise EsqlError("query must start with FROM")
    for c in cmds:                      # fail fast on the driver
        _validate_cmd_asts(c)
    return cmds


_FUNCS = {"LENGTH", "TO_LOWER", "TO_UPPER", "SUBSTRING", "ABS", "ROUND",
          "STARTS_WITH", "ENDS_WITH", "CONCAT", "COALESCE", "DATE_TRUNC",
          "TO_LONG", "TO_DOUBLE", "TO_STRING", "CASE", "MV_COUNT",
          "MV_MIN", "MV_MAX", "MV_SUM", "MV_AVG", "MATCH"}


def _validate_ast(ast):
    if not isinstance(ast, tuple):
        return
    if ast[0] == "call":
        if ast[1] not in _FUNCS:
            raise EsqlError(f"unknown function {ast[1]}")
        if ast[1] == "CASE" and (len(ast[2]) < 3 or len(ast[2]) % 2 == 0):
            raise EsqlError("CASE needs cond/value pairs + a default")
        if ast[1] == "MATCH" and (
                len(ast[2]) != 2 or ast[2][0][0] != "col"
                or ast[2][1][0] != "lit"
                or not isinstance(ast[2][1][1], str)):
            raise EsqlError("MATCH needs (field, \"query terms\")")
        for a in ast[2]:
            _validate_ast(a)
    else:
        for a in ast[1:]:
            _validate_ast(a)


def _validate_cmd_asts(cmd):
    if cmd[0] == "where":
        _validate_ast(cmd[1])
    elif cmd[0] == "eval":
        for _, ex in cmd[1]:
            _validate_ast(ex)
    elif cmd[0] in ("stats", "inlinestats"):
        for _, _, arg in cmd[1]:
            if arg is not None:
                _validate_ast(arg)


# ------------------------------------------------------------ evaluator

def _wildcard_to_like(p: str) -> str:
    out = []
    for ch in p:
        if ch == "*":
            out.append("%")
        elif ch == "?":
            out.append("_")
        elif ch in ("%", "_", "\\"):
            out.append("\\" + ch)
        else:
            out.append(ch)
    return "".join(out)


_CMP = {"==": pc.equal, "!=": pc.not_equal, "<": pc.less,
        ">": pc.greater, "<=": pc.less_equal, ">=": pc.greater_equal}


def _remainder(l, r):
    """Java/ES ``%``: ``l - trunc(l / r) * r``, so the result takes the
    sign of the dividend.  Arrow's integer divide already truncates."""
    q = pc.divide(l, r)
    if pa.types.is_floating(q.type):
        q = pc.trunc(q)
    return pc.subtract(l, pc.multiply(q, r))


_ARITH = {"+": pc.add, "-": pc.subtract, "*": pc.multiply,
          "/": pc.divide, "%": _remainder}


def eval_expr(ast, tbl: pa.Table):
    """AST x Arrow table -> Arrow array (or python scalar for pure
    literals).  Every node is a vectorized kernel."""
    op = ast[0]
    if op == "lit":
        return ast[1]
    if op == "col":
        name = ast[1]
        if name not in tbl.column_names:
            raise EsqlError(f"unknown column {name!r}")
        c = tbl[name]
        return c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
    if op == "neg":
        return pc.negate(eval_expr(ast[1], tbl))
    if op == "not":
        return pc.invert(eval_expr(ast[1], tbl))
    if op in ("and", "or"):
        l, r = eval_expr(ast[1], tbl), eval_expr(ast[2], tbl)
        return (pc.and_kleene if op == "and" else pc.or_kleene)(l, r)
    if op == "bin":
        o, l, r = ast[1], eval_expr(ast[2], tbl), eval_expr(ast[3], tbl)
        if o in _CMP:
            return _CMP[o](l, r)
        return _ARITH[o](l, r)
    if op == "like":
        return pc.match_like(eval_expr(ast[1], tbl),
                             _wildcard_to_like(ast[2]))
    if op == "rlike":
        return pc.match_substring_regex(eval_expr(ast[1], tbl),
                                        f"^(?:{ast[2]})$")
    if op == "in":
        return pc.is_in(eval_expr(ast[1], tbl),
                        value_set=pa.array(ast[2]))
    if op == "isnull":
        return pc.is_null(eval_expr(ast[1], tbl))
    if op == "in_ids":
        if ast[1] in tbl.column_names:
            ids_col = tbl[ast[1]]
        else:
            # corpora that derive the doc id (ST2 content-keyed
            # identity) instead of storing it: recompute per batch
            from onestools_eventlog_ray.sources.corpus import \
                CODE_CORPUS_SPEC
            from onestools_eventlog_ray.stages.normalize import \
                doc_id_from_keys
            keys = CODE_CORPUS_SPEC.key_cols
            if not all(c in tbl.column_names for c in keys):
                raise EsqlError(f"MATCH id column {ast[1]!r} absent and "
                                f"key columns {keys} not present")
            ids_col = doc_id_from_keys(*[tbl[c] for c in keys])
        return pc.is_in(ids_col, value_set=pa.array(ast[2], pa.int64()))
    if op == "call":
        return _call(ast[1], ast[2], tbl)
    raise EsqlError(f"bad AST node {op}")


def _call(fn: str, args: list, tbl: pa.Table):
    a = [eval_expr(x, tbl) for x in args]
    if fn == "LENGTH":
        return pc.utf8_length(a[0])
    if fn == "TO_LOWER":
        return pc.utf8_lower(a[0])
    if fn == "TO_UPPER":
        return pc.utf8_upper(a[0])
    if fn == "SUBSTRING":          # 1-based, like ES|QL
        start = int(a[1]) - 1
        if len(a) > 2:
            return pc.utf8_slice_codeunits(a[0], start, start + int(a[2]))
        return pc.utf8_slice_codeunits(a[0], start)
    if fn == "ABS":
        return pc.abs(a[0])
    if fn == "ROUND":
        nd = int(a[1]) if len(a) > 1 else 0
        # half away from zero — matches ES|QL ROUND and DuckDB round()
        return pc.round(a[0], ndigits=nd,
                        round_mode="half_towards_infinity")
    if fn == "STARTS_WITH":
        return pc.starts_with(a[0], pattern=a[1])
    if fn == "ENDS_WITH":
        return pc.ends_with(a[0], pattern=a[1])
    if fn == "CONCAT":
        return pc.binary_join_element_wise(*a, "")
    if fn == "COALESCE":
        return pc.coalesce(*a)
    if fn == "DATE_TRUNC":
        return pc.floor_temporal(a[1], unit=a[0])
    if fn == "CASE":                   # CASE(c1, v1, c2, v2, ..., default)
        if len(a) < 3 or len(a) % 2 == 0:
            raise EsqlError("CASE needs cond/value pairs + default")
        out = a[-1]
        for j in range(len(a) - 3, -1, -2):
            out = pc.if_else(a[j], a[j + 1], out)
        return out
    if fn == "MV_COUNT":
        return pc.cast(pc.list_value_length(a[0]), pa.int64())
    if fn in ("MV_MIN", "MV_MAX", "MV_SUM", "MV_AVG"):
        arr = a[0]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(arr).to_numpy(zero_copy_only=False)
        lens = np.nan_to_num(lens.astype(np.float64)).astype(np.int64)
        parent = np.repeat(np.arange(lens.size), lens)
        if fn == "MV_SUM" or fn == "MV_AVG":
            acc = np.zeros(lens.size, dtype=np.float64)
            np.add.at(acc, parent, flat.astype(np.float64))
            res = acc / lens if fn == "MV_AVG" else acc
        else:
            init = np.inf if fn == "MV_MIN" else -np.inf
            acc = np.full(lens.size, init, dtype=np.float64)
            (np.minimum if fn == "MV_MIN" else np.maximum) \
                .at(acc, parent, flat.astype(np.float64))
            res = acc
        return pa.array(np.where(lens > 0, res, np.nan), pa.float64(),
                        mask=(lens == 0))
    if fn == "TO_LONG":                # truncates toward zero, like ES|QL
        return pc.cast(a[0], pa.int64(), safe=False)
    if fn == "TO_DOUBLE":
        return pc.cast(a[0], pa.float64())
    if fn == "TO_STRING":
        return pc.cast(a[0], pa.string())
    raise EsqlError(f"unknown function {fn}")


# GROK pattern library (the usual logstash core names, RE2-safe)
_GROK_LIB = {
    "WORD": r"\w+",
    "NOTSPACE": r"\S+",
    "DATA": r".*?",
    "GREEDYDATA": r".*",
    "INT": r"[+-]?\d+",
    "NUMBER": r"[+-]?\d+(?:\.\d+)?",
    "IP": r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}",
    "LOGLEVEL": r"(?:TRACE|DEBUG|INFO|WARN|ERROR|FATAL)",
    "TIMESTAMP_ISO8601": r"\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}:\d{2}(?:\.\d+)?",
}

_GROK_REF = re.compile(r"%\{(\w+)(?::(\w+)(?::(\w+))?)?\}")


def compile_grok(pattern: str) -> tuple[str, list[tuple[str, str]]]:
    """GROK pattern -> (RE2 regex with named groups, [(name, type)])."""
    fields: list[tuple[str, str]] = []
    out, pos = [], 0
    for m in _GROK_REF.finditer(pattern):
        out.append(re.escape(pattern[pos:m.start()]))
        syntax, name, typ = m.group(1), m.group(2), m.group(3)
        if syntax not in _GROK_LIB:
            raise EsqlError(f"unknown GROK pattern %{{{syntax}}}")
        if name:
            out.append(f"(?P<{name}>{_GROK_LIB[syntax]})")
            fields.append((name, typ or "string"))
        else:
            out.append(f"(?:{_GROK_LIB[syntax]})")
        pos = m.end()
    out.append(re.escape(pattern[pos:]))
    if not fields:
        raise EsqlError("GROK pattern captures no fields")
    return "".join(out), fields


_DISSECT_REF = re.compile(r"%\{(\w*)\}")


def compile_dissect(pattern: str) -> tuple[str, list[tuple[str, str]]]:
    """DISSECT pattern -> anchored RE2 regex (non-greedy %{} keys split
    by the literal separators, last key greedy) + field list."""
    fields: list[tuple[str, str]] = []
    out, pos = ["^"], 0
    matches = list(_DISSECT_REF.finditer(pattern))
    if not matches:
        raise EsqlError("DISSECT pattern has no %{} keys")
    for j, m in enumerate(matches):
        out.append(re.escape(pattern[pos:m.start()]))
        name = m.group(1)
        body = ".*" if j == len(matches) - 1 else ".*?"
        if name:
            out.append(f"(?P<{name}>{body})")
            fields.append((name, "string"))
        else:
            out.append(f"(?:{body})")
        pos = m.end()
    out.append(re.escape(pattern[pos:]))
    out.append("$")
    return "".join(out), fields


def _extract_fields(tbl: pa.Table, col: str, regex: str,
                    fields: list[tuple[str, str]]) -> pa.Table:
    src = tbl[col]
    if isinstance(src, pa.ChunkedArray):
        src = src.combine_chunks()
    struct = pc.extract_regex(src, pattern=regex)
    for name, typ in fields:
        arr = pc.struct_field(struct, name)
        if typ in ("int", "long"):
            arr = pc.cast(arr, pa.int64(), safe=False)
        elif typ in ("float", "double"):
            arr = pc.cast(arr, pa.float64())
        if name in tbl.column_names:
            tbl = tbl.set_column(tbl.column_names.index(name), name, arr)
        else:
            tbl = tbl.append_column(name, arr)
    return tbl


def _enrich_lookup(tbl: pa.Table, dim: pa.Table, key: str,
                   with_cols: list[str] | None) -> pa.Table:
    """Broadcast lookup join (the ES|QL ENRICH execution): the dim's
    FIRST column is the match field; misses yield nulls (left join)."""
    match_col = dim.column_names[0]
    cols = with_cols if with_cols else [c for c in dim.column_names
                                        if c != match_col]
    idx = pc.index_in(tbl[key], value_set=dim[match_col].combine_chunks()
                      if isinstance(dim[match_col], pa.ChunkedArray)
                      else dim[match_col])
    for c in cols:
        src = dim[c]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        arr = src.take(idx)
        if c in tbl.column_names:
            tbl = tbl.set_column(tbl.column_names.index(c), c, arr)
        else:
            tbl = tbl.append_column(c, arr)
    return tbl


def _resolve_match(ast, search_engine, id_col: str):
    """Rewrite MATCH(field, "terms") nodes into ("in_ids", idset)
    predicates — the ES 8.17 ES|QL full-text function.  The id set is
    resolved ONCE on the driver: the live docs whose postings hold any
    of the terms (the engine's any-term mask — content is never
    scanned), broadcast in the op closure; per batch the predicate is a
    single ``is_in`` kernel on the id column."""
    if not isinstance(ast, tuple):
        return ast
    if ast[0] == "call" and ast[1] == "MATCH":
        if search_engine is None:
            raise EsqlError("MATCH needs a search_engine")
        terms = [t for t in re.split(r"\s+", ast[2][1][1].lower()) if t]
        return ("in_ids", id_col,
                search_engine.docs[search_engine._hits(terms) > 0])
    return tuple(ast[:1]) + tuple(
        _resolve_match(a, search_engine, id_col) if isinstance(a, tuple)
        else a for a in ast[1:])


def _as_array(v, n: int):
    if isinstance(v, (pa.Array, pa.ChunkedArray)):
        return v
    return pa.array([v] * n)


def apply_rowops(tbl: pa.Table, ops: list[tuple]) -> pa.Table:
    """WHERE / EVAL / KEEP / DROP / RENAME on one Arrow table — shared
    by the distributed map_batches stage and the post-STATS driver
    path."""
    for op in ops:
        kind = op[0]
        if kind == "where":
            mask = eval_expr(op[1], tbl)
            tbl = tbl.filter(pc.fill_null(mask, False))
        elif kind == "eval":
            for name, ex in op[1]:
                col = _as_array(eval_expr(ex, tbl), tbl.num_rows)
                if name in tbl.column_names:
                    tbl = tbl.set_column(
                        tbl.column_names.index(name), name, col)
                else:
                    tbl = tbl.append_column(name, col)
        elif kind == "keep":
            tbl = tbl.select(op[1])
        elif kind == "drop":
            tbl = tbl.drop_columns(op[1])
        elif kind == "rename":
            names = list(tbl.column_names)
            for old, new in op[1]:
                names[names.index(old)] = new
            tbl = tbl.rename_columns(names)
        elif kind in ("grok", "dissect"):
            compiled = (compile_grok if kind == "grok"
                        else compile_dissect)(op[2])
            tbl = _extract_fields(tbl, op[1], *compiled)
        elif kind == "mv_expand":
            col = op[1]
            arr = tbl[col]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            lens = pc.list_value_length(arr).to_numpy(
                zero_copy_only=False)
            lens = np.nan_to_num(
                lens.astype(np.float64)).astype(np.int64)
            # a null or empty list keeps its row once, with a null value
            parent = np.repeat(np.arange(lens.size), np.maximum(lens, 1))
            idx = pa.array(parent, pa.int64())
            vpos = (np.cumsum(lens) - lens)[parent] + np.arange(parent.size) \
                - np.searchsorted(parent, parent)   # index into flatten()
            vidx = pa.array(vpos, pa.int64(), mask=(lens == 0)[parent])
            cols = {}
            for c in tbl.column_names:
                if c == col:
                    cols[c] = arr.flatten().take(vidx)
                else:
                    src_c = tbl[c]
                    if isinstance(src_c, pa.ChunkedArray):
                        src_c = src_c.combine_chunks()
                    cols[c] = src_c.take(idx)
            tbl = pa.table(cols)
        elif kind == "enrich_tbl":
            dim = op[1]
            if not isinstance(dim, pa.Table):   # broadcast ObjectRef
                import ray
                dim = ray.get(dim)
            tbl = _enrich_lookup(tbl, dim, op[2], op[3])
        else:
            raise EsqlError(f"not a row op: {kind}")
    return tbl


# ----------------------------------------------------- STATS execution

_GKEY = "__esql_g"


def _stats_partial(aggs, keys):
    """Per-batch combiner: ONE partial table holding scalar partials
    (row_kind=0) and DISTINCT (key, value) rows per COUNT_DISTINCT
    (row_kind = 1 + agg index), schema-aligned with nulls."""
    def fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        base = pa.table({k: batch[k] for k in keys} if keys else
                        {_GKEY: pa.array(np.zeros(n, np.int8))})
        gk = list(base.column_names)
        work = base
        specs = []
        out_schema_cols = []
        for i, (name, fn_name, arg) in enumerate(aggs):
            if fn_name == "COUNT" and arg is None:
                work = work.append_column(f"__a{i}",
                                          pa.array(np.ones(n, np.int64)))
                specs.append((f"__a{i}", "sum", f"__p{i}"))
            elif fn_name == "COUNT_DISTINCT":
                continue
            else:
                col = _as_array(eval_expr(arg, batch), n)
                work = work.append_column(f"__a{i}", col)
                if fn_name in ("SUM", "MIN", "MAX"):
                    specs.append((f"__a{i}", fn_name.lower(), f"__p{i}"))
                elif fn_name == "COUNT":
                    specs.append((f"__a{i}", "count", f"__p{i}"))
                elif fn_name == "AVG":
                    specs.append((f"__a{i}", "sum", f"__p{i}s"))
                    specs.append((f"__a{i}", "count", f"__p{i}c"))
        agg_list = [(c, f) for c, f, _ in specs]
        grouped = work.group_by(gk, use_threads=False).aggregate(agg_list)
        # group_by names outputs "<col>_<fn>"; rename to partial names
        ren = {f"{c}_{f}": out for c, f, out in specs}
        grouped = grouped.rename_columns(
            [ren.get(c, c) for c in grouped.column_names])
        parts = []
        kind0 = grouped.append_column(
            "__row_kind", pa.array(np.zeros(grouped.num_rows, np.int32)))
        parts.append(kind0)
        for i, (name, fn_name, arg) in enumerate(aggs):
            if fn_name != "COUNT_DISTINCT":
                continue
            col = _as_array(eval_expr(arg, batch), n)
            dt = base.append_column(f"__d{i}", col)
            dt = dt.group_by(gk + [f"__d{i}"],
                             use_threads=False).aggregate([])
            dt = dt.append_column(
                "__row_kind",
                pa.array(np.full(dt.num_rows, i + 1, np.int32)))
            parts.append(dt)
        return pa.concat_tables(parts, promote_options="default")
    return fn


def _stats_fold(partials: pa.Table, aggs, keys) -> pa.Table:
    """Driver fold of the key-bounded partial rows -> final table with
    BY keys first, aggregates in declaration order."""
    gk = keys if keys else [_GKEY]
    scal = partials.filter(pc.equal(partials["__row_kind"], 0))
    specs = []
    for i, (name, fn_name, arg) in enumerate(aggs):
        if fn_name in ("COUNT",):
            specs.append((f"__p{i}", "sum", name))
        elif fn_name in ("SUM",):
            specs.append((f"__p{i}", "sum", name))
        elif fn_name == "MIN":
            specs.append((f"__p{i}", "min", name))
        elif fn_name == "MAX":
            specs.append((f"__p{i}", "max", name))
        elif fn_name == "AVG":
            specs.append((f"__p{i}s", "sum", f"__f{i}s"))
            specs.append((f"__p{i}c", "sum", f"__f{i}c"))
    out = scal.group_by(gk, use_threads=False).aggregate(
        [(c, f) for c, f, _ in specs]) if specs else None
    if out is not None:
        ren = {f"{c}_{f}": o for c, f, o in specs}
        out = out.rename_columns(
            [ren.get(c, c) for c in out.column_names])
        for i, (name, fn_name, arg) in enumerate(aggs):
            if fn_name == "AVG":
                avg = pc.divide(
                    pc.cast(out[f"__f{i}s"], pa.float64()),
                    pc.cast(out[f"__f{i}c"], pa.float64()))
                out = out.append_column(name, avg)
                out = out.drop_columns([f"__f{i}s", f"__f{i}c"])
    for i, (name, fn_name, arg) in enumerate(aggs):
        if fn_name != "COUNT_DISTINCT":
            continue
        d = partials.filter(pc.equal(partials["__row_kind"], i + 1))
        d = d.select(gk + [f"__d{i}"])
        d = d.group_by(gk + [f"__d{i}"], use_threads=False).aggregate([])
        cnt = d.group_by(gk, use_threads=False).aggregate(
            [(f"__d{i}", "count")])
        cnt = cnt.rename_columns(
            [name if c == f"__d{i}_count" else c
             for c in cnt.column_names])
        out = cnt if out is None else out.join(cnt, keys=gk,
                                               join_type="full outer")
    # fill COUNT-family nulls from the outer join with 0
    for name, fn_name, _ in aggs:
        if fn_name in ("COUNT", "COUNT_DISTINCT"):
            idx = out.column_names.index(name)
            out = out.set_column(
                idx, name, pc.fill_null(pc.cast(out[name], pa.int64()), 0))
    cols = (keys if keys else []) + [a[0] for a in aggs]
    out = out.select(cols) if keys else out.drop_columns([_GKEY]).select(cols)
    return out


# -------------------------------------------------------------- runner

DEFAULT_IMPLICIT_LIMIT = 1000


def run_esql(query: str, tables: dict, search_engine=None,
             id_col: str = "doc_id") -> pa.Table:
    """Execute an ES|QL query over named Ray ``Dataset``s.

    ``tables`` maps FROM names to ``ray.data.Dataset``.  Returns a
    ``pyarrow.Table`` (ES|QL results are bounded: implicit LIMIT
    1000, exactly like the real language).

    ``search_engine`` (a ``SearchEngine`` over the FROM table's
    corpus) enables the ES 8.17 full-text function ``MATCH(field,
    "terms")``: the predicate resolves ONCE on the driver to the live
    docs whose postings hold any of the terms (content is never
    scanned) and every batch applies a single ``is_in`` kernel on
    ``id_col``."""
    cmds = parse(query)
    cmds = [_resolve_cmd_match(c, search_engine, id_col) for c in cmds]
    ds = _resolve_from(cmds[0][1], tables)
    i = 1
    rowops = []
    # phase 1: row ops until STATS / SORT / LIMIT
    while i < len(cmds) and cmds[i][0] in ("where", "eval", "keep",
                                           "drop", "rename", "grok",
                                           "dissect", "enrich",
                                           "mv_expand", "inlinestats"):
        c = cmds[i]
        if c[0] == "inlinestats":
            # ES|QL INLINESTATS: aggregate, then join the (tiny)
            # result back onto every row — executed as the STATS
            # combiner followed by a broadcast enrich on the BY key
            _, aggs, keys = c
            if len(keys) > 1:
                raise EsqlError("INLINESTATS supports at most 1 BY key")
            if rowops:
                ops0 = list(rowops)
                ds = ds.map_batches(lambda b, _o=ops0: apply_rowops(b, _o),
                                    batch_format="pyarrow")
                rowops = []
            stat_tbl = _run_stats(ds, aggs, keys)
            if keys:
                import ray
                dim = stat_tbl.select(keys + [a[0] for a in aggs])
                c = ("enrich_tbl", ray.put(dim), keys[0],
                     [a[0] for a in aggs])
            else:
                c = ("eval", [(n, ("lit", stat_tbl[n][0].as_py()))
                              for n, _, _ in aggs])
            rowops.append(c)
            i += 1
            continue
        if c[0] == "enrich":
            # materialize the (small, by definition) enrich index once
            # and broadcast it via the object store — the J1 pattern
            if c[1] not in tables:
                raise EsqlError(f"unknown enrich table {c[1]!r}")
            dim = pa.concat_tables(_collect_tables(tables[c[1]]),
                                   promote_options="default")
            import ray
            c = ("enrich_tbl", ray.put(dim), c[2], c[3])
        rowops.append(c)
        i += 1
    if rowops:
        ops = list(rowops)
        ds = ds.map_batches(lambda b: apply_rowops(b, ops),
                            batch_format="pyarrow")
    if i < len(cmds) and cmds[i][0] == "stats":
        _, aggs, keys = cmds[i]
        i += 1
        tbl = _run_stats(ds, aggs, keys)
        tbl = _finish_on_table(tbl, cmds[i:])
        if not any(c[0] == "limit" for c in cmds[i:]):
            tbl = tbl.slice(0, DEFAULT_IMPLICIT_LIMIT)
        return tbl
    # raw-row path: distributed exact top-n.  A WHERE between SORT and
    # its LIMIT (or the implicit one) changes which rows the cut keeps,
    # so it and the commands before it run BEFORE the cut; they commute
    # with the sort as long as they keep its keys intact.  Row-wise
    # commands after the last such WHERE commute with the cut itself.
    sort_specs = None
    limit = None
    pre, post = [], []
    for c in cmds[i:]:
        if c[0] == "sort" and sort_specs is None and limit is None:
            sort_specs = c[1]
        elif c[0] == "limit" and limit is None:
            limit = c[1]
        else:
            post.append(c)
            if c[0] == "where" and sort_specs is not None and limit is None:
                pre, post = pre + post, []
    if pre:
        for c in pre:
            _check_keeps_sort_keys(c, [col for col, _ in sort_specs])
        ds = ds.map_batches(lambda b: apply_rowops(b, pre),
                            batch_format="pyarrow")
    n = limit if limit is not None else DEFAULT_IMPLICIT_LIMIT
    if sort_specs:
        arrow_specs = [(c, "ascending" if asc else "descending")
                       for c, asc in sort_specs]
        topn = ds.map_batches(
            lambda b: b.sort_by(arrow_specs).slice(0, n),
            batch_format="pyarrow")
        tbl = pa.concat_tables(_collect_tables(topn),
                               promote_options="default")
        tbl = _restore_schema_if_empty(tbl, ds)
        tbl = tbl.sort_by(arrow_specs).slice(0, n)
    else:
        tbl = pa.concat_tables(
            _collect_tables(ds.limit(n)), promote_options="default")
        tbl = _restore_schema_if_empty(tbl, ds)
        tbl = tbl.slice(0, n)
    return _finish_on_table(tbl, post)


def _check_keeps_sort_keys(cmd: tuple, keys: list[str]) -> None:
    """``cmd`` sits between SORT and a WHERE before the LIMIT, so it
    runs before the top-n cut, ahead of the sort; one that drops or
    rewrites a sort key cannot, so it is rejected."""
    kind = cmd[0]
    if kind == "where":
        return
    if kind == "eval":
        hit = [n for n, _ in cmd[1] if n in keys]
    elif kind == "keep":
        hit = [k for k in keys if k not in cmd[1]]
    elif kind == "drop":
        hit = [k for k in keys if k in cmd[1]]
    elif kind == "rename":
        hit = [k for old, new in cmd[1] for k in (old, new) if k in keys]
    else:
        raise EsqlError(f"{kind.upper()} between SORT and WHERE is not "
                        "supported")
    if hit:
        raise EsqlError(f"{kind.upper()} between SORT and WHERE drops or "
                        f"rewrites sort key(s) {hit}")


def _restore_schema_if_empty(tbl: pa.Table, ds) -> pa.Table:
    """A fully-filtered dataset collects as a schemaless empty table;
    rebuild the typed empty table from the source schema so SORT /
    KEEP still resolve columns."""
    if tbl.num_columns > 0:
        return tbl
    sch = ds.schema()
    return pa.schema(list(zip(sch.names, sch.types))).empty_table()


def _run_stats(ds, aggs, keys) -> pa.Table:
    parts = ds.map_batches(_stats_partial(aggs, keys),
                           batch_format="pyarrow")
    partial_tbl = pa.concat_tables(_collect_tables(parts),
                                   promote_options="default")
    if ("__row_kind" not in partial_tbl.column_names
            or partial_tbl.num_rows == 0):
        return _empty_stats_result(ds, aggs, keys)
    return _stats_fold(partial_tbl, aggs, keys)


def _resolve_from(patterns, tables):
    """FROM index list with trailing-``*`` wildcards (the ES
    time-partitioned-indices idiom, ``FROM logs-2024-*``): matching
    Datasets union WITHOUT materializing — union of block lists, zero
    data movement."""
    names = []
    for pat in patterns:
        if pat.endswith("*"):
            hits = sorted(n for n in tables if n.startswith(pat[:-1]))
            if not hits:
                raise EsqlError(f"no index matches {pat!r}")
            names.extend(h for h in hits if h not in names)
        else:
            if pat not in tables:
                raise EsqlError(f"unknown index {pat!r}")
            if pat not in names:
                names.append(pat)
    ds = tables[names[0]]
    return ds.union(*[tables[n] for n in names[1:]]) \
        if len(names) > 1 else ds


def _resolve_cmd_match(cmd, search_engine, id_col):
    if cmd[0] == "where":
        return ("where", _resolve_match(cmd[1], search_engine, id_col))
    if cmd[0] == "eval":
        return ("eval", [(n, _resolve_match(e, search_engine, id_col))
                         for n, e in cmd[1]])
    return cmd


def _empty_stats_result(ds, aggs, keys) -> pa.Table:
    """STATS over zero input rows — SQL semantics: grouped -> zero
    rows (keys typed from the source schema); global -> ONE row with
    COUNT/COUNT_DISTINCT = 0 and SUM/MIN/MAX/AVG = NULL."""
    def agg_type(fn):
        return pa.int64() if fn in ("COUNT", "COUNT_DISTINCT") \
            else pa.float64()
    if keys:
        sch = ds.schema()
        ktypes = dict(zip(sch.names, sch.types))
        fields = [(k, ktypes.get(k, pa.string())) for k in keys]
        fields += [(n, agg_type(f)) for n, f, _ in aggs]
        return pa.schema(fields).empty_table()
    cols = {}
    for n, f, _ in aggs:
        cols[n] = pa.array(
            [0] if f in ("COUNT", "COUNT_DISTINCT") else [None],
            agg_type(f))
    return pa.table(cols)


def _collect_tables(ds) -> list[pa.Table]:
    out = [pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch)
           else b
           for b in ds.iter_batches(batch_format="pyarrow",
                                    batch_size=None)]
    return out or [pa.table({})]


def _finish_on_table(tbl: pa.Table, cmds: list[tuple]) -> pa.Table:
    """Post-aggregation commands on the (small) driver table."""
    for c in cmds:
        if c[0] in ("where", "eval", "keep", "drop", "rename"):
            tbl = apply_rowops(tbl, [c])
        elif c[0] == "sort":
            tbl = tbl.sort_by([(col, "ascending" if asc else "descending")
                               for col, asc in c[1]])
        elif c[0] == "limit":
            tbl = tbl.slice(0, c[1])
        elif c[0] == "stats":
            raise EsqlError("only one STATS per query is supported")
        else:
            raise EsqlError(f"unsupported post command {c[0]}")
    return tbl
