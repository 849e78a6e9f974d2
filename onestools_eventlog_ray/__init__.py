"""onestools_eventlog_ray — a Ray-Data-native full-text index + BM25 engine.

A from-scratch re-expression of the capabilities of
``akpaevj/OneSTools.EventLog`` (parse -> normalize -> enrich -> batch ->
searchable full-text store with resumable checkpointed ingestion, see
``/root/reference``) as idiomatic Ray Data pipelines over Parquet tables
of source-code repositories:

- ``pipelines.build.build_index``  — inverted-index construction
  (tokenize -> skew-salted groupby shuffle -> delta/varint-compressed
  posting shards with block-max metadata -> per-partition checkpoint
  manifest).
- ``pipelines.query.SearchEngine`` — BM25 top-k over the shards
  (exhaustive TAAT scorer).
- ``pipelines.text/dedup/similarity`` — training-data-pipeline
  operators (quality scoring, exact + MinHash-LSH dedup, brute-force /
  LSH ANN).

The reference's record-at-a-time C# execution model is deliberately NOT
ported; every stage here is a vectorized Arrow batch transform scheduled
by Ray Data's streaming executor.
"""

from onestools_eventlog_ray.config import EngineConfig

# Ray 2.49 emits a spurious schema-divergence warning for the zero-row
# zero-column bundles its own sort shuffle builds for empty partitions;
# adopt the operator's established schema for those instead (see
# functions/raycompat.py — real divergence still warns).
from onestools_eventlog_ray.functions import raycompat as _raycompat

_raycompat.install()

__all__ = ["EngineConfig"]
__version__ = "0.1.0"
