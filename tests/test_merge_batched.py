"""The build merge (``postings.make_merge_and_write``) run in-process on a
hand-made runs table: single-run, small fragmented and large spliced
terms must each come out as ``encode_posting`` of the plain-Python
posting, without one ``decode_posting`` call, and overlapping runs must
raise instead of being sorted together."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from onestools_eventlog_ray.functions import codec
from onestools_eventlog_ray.stages.postings import (RUN_SCHEMA,
                                                    make_merge_and_write)

BLOCK = 4            # encode and re-encode block size: small means df < 256


def _runs_table(terms: dict[str, list[list[tuple[int, int, int]]]]) -> pa.Table:
    """term -> runs (salt order) of (doc_id, tf, dl) rows -> RUN_SCHEMA rows,
    shuffled as the exchange may deliver them."""
    rows = []
    for term, runs in terms.items():
        for salt, run in enumerate(runs):
            ids, tfs, dls = (np.asarray(c, dtype=np.int64) for c in zip(*run))
            rows.append((term, salt, len(run), int(tfs.sum()),
                         codec.encode_posting(ids, tfs, dls, block_size=BLOCK)))
    rows = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
    term, salt, df, cf, blob = zip(*rows)
    return pa.table({"pkey": pa.array([3] * len(rows), pa.int32()),
                     "term": list(term), "salt": pa.array(salt, pa.int32()),
                     "df_run": df, "cf_run": cf,
                     "blob": pa.array(blob, pa.large_binary())},
                    schema=RUN_SCHEMA)


def _run(lo: int, n: int, step: int = 3) -> list[tuple[int, int, int]]:
    return [(lo + step * i, 1 + i % 5, 100 + i % 300) for i in range(n)]


def _terms():
    return {
        "solo": [_run(5, 9)],
        "tiny": [_run(0, 1)],
        # small fragmented: run sizes not a multiple of BLOCK, so only a
        # re-encode gives encode_posting's blocks
        "frag": [_run(0, 3), _run(1000, 2), _run(2000, 5), _run(3000, 1)],
        "frag2": [_run(7, 1), _run(1 << 40, 6)],
        "été": [_run(2**62, 2), _run(2**62 + 100, 1)],
        "Zed": [_run(1, 2, step=1), _run(3, 2, step=1)],
        # large: 320 >= 64 * BLOCK, runs of whole blocks -> header splice
        "big": [_run(0, 160), _run(10_000, 160)],
    }


def _merge(tmp_path, table):
    make_merge_and_write(str(tmp_path), "fp", BLOCK)(table)
    return pq.read_table(tmp_path / "shards" / "part-00003.parquet")


def test_merge_equals_reference_encode_without_decode_posting(tmp_path,
                                                               monkeypatch):
    def no_decode(_blob):
        raise AssertionError("the merge must not decode one blob at a time")
    monkeypatch.setattr(codec, "decode_posting", no_decode)
    terms = _terms()
    shard = _merge(tmp_path, _runs_table(terms))
    assert shard["term"].to_pylist() == sorted(terms)
    for term, df, cf, blob in zip(*(shard[c].to_pylist() for c in
                                    ("term", "df", "cf", "posting"))):
        ids, tfs, dls = (np.asarray(c, dtype=np.int64) for c in
                         zip(*sorted(r for run in terms[term] for r in run)))
        assert (df, cf) == (ids.size, int(tfs.sum())), term
        assert blob == codec.encode_posting(ids, tfs, dls,
                                            block_size=BLOCK), term


def test_merge_rejects_overlapping_runs(tmp_path):
    terms = _terms()
    terms["frag"] = [_run(0, 3), _run(3, 2)]     # ids 0,3,6 then 3,6
    with pytest.raises(ValueError, match="overlap"):
        _merge(tmp_path, _runs_table(terms))
