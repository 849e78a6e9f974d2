"""Spans around the calls into each layer, recorded from the benchmark.

The package carries no instrumentation, so the traced run wraps the
public functions the query path calls (``SearchEngine.load_terms``,
``codec.decode_posting``, ``codec.bm25_impact``, ``pick_topk``) and the
TAAT core that contains them.  Spans nest, so a layer's self time is its
duration minus that of its children: the self time of ``_taat_arrays``
is the accumulate and tombstone mask.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import json
import time

_T = time.perf_counter


class Tracer:
    def __init__(self):
        # [request, name, parent index or -1, start, end]
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.request = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str):
        return _Span(self, name)

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + n

    def timed(self, fn, name: str):
        def call(*args, **kwargs):
            with _Span(self, name):
                return fn(*args, **kwargs)
        return call

    # ---- patching ---------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def install_query_layers(self) -> None:
        """Wrap the query path's layer boundaries (process-wide until
        :meth:`restore`)."""
        from onestools_eventlog_ray.functions import codec
        from onestools_eventlog_ray.functions.hashing import term_partition_one
        from onestools_eventlog_ray.pipelines import incremental, query

        tracer = self
        load = query.SearchEngine.load_terms

        def load_terms(eng, terms):
            # hits: terms already in the engine's blob cache; shard reads:
            # distinct shards the misses hash to
            miss = [t for t in terms if t not in eng._cache]
            tracer.count("load.terms", len(terms))
            tracer.count("load.hits", len(terms) - len(miss))
            tracer.count("load.shard_reads",
                         len({term_partition_one(t, eng.P) for t in miss}))
            with _Span(tracer, "pipelines.query.load"):
                out = load(eng, terms)
            tracer.count("postings_scored", sum(df for df, _ in out.values()))
            return out

        def pick(orig):
            def pick_topk(tie):
                return tracer.timed(orig(tie), "functions.bm25.topk")
            return pick_topk

        self.patch(query.SearchEngine, "load_terms", load_terms)
        self.patch(query.SearchEngine, "_taat_arrays",
                   self.timed(query.SearchEngine._taat_arrays,
                              "pipelines.query.accumulate"))
        self.patch(codec, "decode_posting",
                   self.timed(codec.decode_posting, "functions.codec.decode"))
        self.patch(codec, "bm25_impact",
                   self.timed(codec.bm25_impact, "functions.codec.impact"))
        self.patch(query, "pick_topk", pick(query.pick_topk))
        self.patch(incremental, "pick_topk", pick(incremental.pick_topk))

    # ---- reading ----------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(duration, self time) in seconds summed per span name."""
        dur: dict[str, float] = {}
        child: dict[int, float] = {}
        for i, (_, name, parent, t0, t1) in enumerate(self.spans):
            d = t1 - t0
            dur[name] = dur.get(name, 0.0) + d
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + d
        own: dict[str, float] = {}
        for i, (_, name, _p, t0, t1) in enumerate(self.spans):
            own[name] = own.get(name, 0.0) + (t1 - t0) - child.get(i, 0.0)
        return dur, own

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["request", "name", "parent", "start_s",
                                  "end_s"],
                       "spans": self.spans, "counts": self.counts}, fh)


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.idx = len(tr.spans)
        tr.spans.append([tr.request, self.name,
                         tr._stack[-1] if tr._stack else -1, _T(), 0.0])
        tr._stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.idx][4] = _T()
        tr._stack.pop()
        return False
