"""Doc-id assignment — the analog of the reference's serial id assignment
(``OneSTools.EventLog/EventLogReader.cs:105-106``),
re-expressed as a stateless vectorized Arrow transform: batch in,
(doc_id, content) out, no cross-batch state, so any number of copies
run in parallel with deterministic output.  The docstore projection
itself is written by the build's map task (stages/exchange.py).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from onestools_eventlog_ray.functions.hashing import doc_id_from_keys
from onestools_eventlog_ray.sources.corpus import CorpusSpec


def add_doc_id(batch: pa.Table, spec: CorpusSpec) -> pa.Table:
    """corpus batch -> (doc_id, content): the spec's id column cast to
    int64, else the deterministic 63-bit hash of its key columns."""
    if spec.id_col:
        doc_id = pc.cast(batch[spec.id_col], pa.int64())
    else:
        doc_id = doc_id_from_keys(*[batch[c] for c in spec.key_cols])
    return pa.table({"doc_id": doc_id, "content": batch[spec.content_col]})
