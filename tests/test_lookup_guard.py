"""Structural guard of the engine's one lookup rule: a term's doc
ordinals come from the weight cache, tf/dl from the one postings
helper, tombstones from the ``live`` mask, and index files are read
through the handles the engine's readers opened.  The package AST is
walked, so a second blob decode, a tombstone ``np.isin``, a per-call
file read or a second ``where`` builder added anywhere fails here.  The
index lifecycle has the same shape: one module links, copies and hashes
index files, and shrink and split share one shard writer."""

import ast
import os

import onestools_eventlog_ray
from onestools_eventlog_ray.pipelines import dsl, esql, query

_PKG = os.path.dirname(onestools_eventlog_ray.__file__)
_DECODERS = {("functions/bm25.py", "term_weights"),
             ("pipelines/query.py", "SearchEngine._term_postings")}
_NO_TOMBSTONE_ISIN = ("pipelines/query.py", "pipelines/dsl.py",
                      "pipelines/esql.py", "pipelines/multifield.py",
                      "pipelines/lateinteraction.py")
# engine-side modules: files are opened by the readers' constructors only
_RESIDENT_READS = ("pipelines/query.py", "pipelines/dsl.py",
                   "pipelines/phrase.py", "pipelines/multifield.py",
                   "pipelines/lateinteraction.py")
_OPENERS = {"DocStore.__init__", "PhraseEngine.__init__"}


def _modules():
    for d, _, files in os.walk(_PKG):
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(d, f)
                with open(path) as fh:
                    yield os.path.relpath(path, _PKG), ast.parse(fh.read())


def _scoped(tree):
    """(node, qualified name of its enclosing def/class) for every node."""
    stack = [(tree, "")]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        stack.extend((c, scope) for c in ast.iter_child_nodes(node))


def _names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_decode_posting_is_read_in_two_places_only():
    users = set()
    for path, tree in _modules():
        for node, scope in _scoped(tree):
            if isinstance(node, ast.Attribute) and node.attr == "decode_posting" \
                    or isinstance(node, ast.Name) and node.id == "decode_posting" \
                    or isinstance(node, ast.alias) and node.name == "decode_posting":
                users.add((path, scope))
    assert users == _DECODERS


def test_no_tombstone_isin_in_the_query_families():
    found = []
    for path, tree in _modules():
        if path not in _NO_TOMBSTONE_ISIN:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "isin" \
                    and any("deleted" in _names(a) for a in node.args):
                found.append((path, node.lineno))
    assert found == []


def test_old_posting_id_helpers_are_gone():
    assert not hasattr(dsl, "_posting_ids")
    assert not hasattr(esql, "_match_posting_ids")


def test_index_files_are_read_through_the_readers_handles():
    """No ``pq.read_table``, ``pads.dataset`` or ``glob.glob`` call in
    the engine-side modules outside the readers' constructors
    (``ray.data.read_parquet`` scans are distributed jobs, not engine
    reads)."""
    found = []
    for path, tree in _modules():
        if path not in _RESIDENT_READS:
            continue
        for node, scope in _scoped(tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("read_table", "dataset", "glob") \
                    and scope not in _OPENERS:
                found.append((path, scope, node.func.attr))
    assert found == []
    assert not hasattr(query, "_part_range")
    assert not hasattr(query, "_expand_prefix")
    assert not hasattr(query, "load_doc_ids")


def test_where_expr_is_the_one_where_builder():
    """Only ``where_expr`` tells a ``(lo, hi)`` range from an equality
    value in the engine-side modules."""
    found = []
    for path, tree in _modules():
        if path not in _RESIDENT_READS:
            continue
        for node, scope in _scoped(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "isinstance" \
                    and "tuple" in _names(node.args[1]):
                found.append((path, scope))
    assert found == [("pipelines/query.py", "where_expr")]


def test_one_per_worker_engine_cache():
    """The batch query stages share ``runtime.worker_engine``: no stage
    module keeps its own ``*_CACHE`` dict, the actor-pool scorer and its
    ``score_queries`` options are gone, and ``count_bool`` evaluates
    through ``dsl._qs_match_mask`` with no private evaluator."""
    import inspect
    from onestools_eventlog_ray.pipelines import ann, phrase
    for mod in (query, phrase, ann):
        tree = ast.parse(inspect.getsource(mod))
        caches = [t.id for node in tree.body
                  if isinstance(node, (ast.Assign, ast.AnnAssign))
                  for t in (node.targets if isinstance(node, ast.Assign)
                            else [node.target])
                  if isinstance(t, ast.Name) and t.id.endswith("_CACHE")
                  and isinstance(node.value, ast.Dict)]
        assert caches == [], mod.__name__
    assert not hasattr(query, "QueryScorer")
    assert not hasattr(query, "_engine_for")
    params = inspect.signature(query.score_queries).parameters
    assert "impl" not in params and "concurrency" not in params
    fn = ast.parse(inspect.getsource(query.count_bool)).body[0]
    assert not [n for n in ast.walk(fn) if n is not fn and isinstance(
        n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]


def test_one_bm25_scorer_over_one_or_more_generations():
    """``SearchEngine`` is the one BM25 scorer: its ``_term_parts`` is
    the only caller of ``bm25.term_weights``, ``incremental`` keeps no
    class that searches or scores (a root opens as a ``SearchEngine``),
    and the serving tier computes no idf (its shard engines score under
    the global stats set at open)."""
    import inspect
    from onestools_eventlog_ray.pipelines import incremental, serving
    callers = set()
    for path, tree in _modules():
        for node, scope in _scoped(tree):
            if isinstance(node, ast.Call) \
                    and "term_weights" in _names(node.func):
                callers.add((path, scope))
    assert callers == {("pipelines/query.py", "SearchEngine._term_parts")}
    scorers = [(node.name, fn.name)
               for node in ast.parse(inspect.getsource(incremental)).body
               if isinstance(node, ast.ClassDef) for fn in node.body
               if isinstance(fn, ast.FunctionDef)
               and fn.name in ("search", "score")]
    assert scorers == []
    assert incremental.GenerationalSearchEngine is query.SearchEngine
    tree = ast.parse(inspect.getsource(serving))
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and _names(node.func) & {"idf", "idf_fn"}
                or isinstance(node, ast.alias) and node.name == "idf"]


def test_one_file_walk_for_the_index_lifecycle():
    """``state/snapshot.py`` is the one module that links, copies and
    hashes index files: ``os.link``, ``shutil.copy2`` and the streaming
    ``hashlib.sha256()`` file hash appear nowhere else; ``incremental``
    defines no snapshot format of its own; and ``shrink_index`` and
    ``split_index`` share one shard writer, ``_reshard``."""
    import inspect
    from onestools_eventlog_ray.pipelines import incremental
    found = set()
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and (node.func.attr in ("link", "copy2")
                         or node.func.attr == "sha256" and not node.args):
                found.add((path, node.func.attr))
    assert found == {("state/snapshot.py", "link"),
                     ("state/snapshot.py", "copy2"),
                     ("state/snapshot.py", "sha256")}
    tree = ast.parse(inspect.getsource(incremental))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"snapshot_index", "restore_index",
                          "SnapshotCorruptError"}
    writers = {scope for node, scope in _scoped(tree)
               if isinstance(node, ast.Call)
               and "write_shard" in _names(node.func)}
    assert writers == {"_reshard.write_target"}
    for fn in (incremental.shrink_index, incremental.split_index):
        assert "_reshard" in _names(ast.parse(inspect.getsource(fn)))
