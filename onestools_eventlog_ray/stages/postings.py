"""Posting-build stages: run encoding, salted-run merge, and the term
shard layout's writer and reader.

THE wide operation of the engine (SURVEY.md §2.6 A1, §7.3) co-locates
each term's (doc_id, tf, dl) rows.  Zipf-hot terms (``def``, ``the``,
license boilerplate) have df ≈ N, so grouping by term alone would put a
whole-corpus-sized group on one task — the skew called out by the
north_rule.  The exchange (stages/exchange.py) handles it without any
df estimate:

- every triple's final shard is ``pkey = md5(term) % P``;
- every term is split into runs by **doc_id range** (salt = the
  doc_id's top ``log2(S)`` bits) and its build group is
  ``hash(term, salt) % G``, so a hot term's runs encode on different
  tasks;
- each run is encoded independently into the block codec
  (``make_encode_runs``); because salts are doc_id RANGES, a term's runs
  cover disjoint ascending id ranges, so the merge grouped by ``pkey``
  (``make_merge_and_write``) needs no sort: the small fragmented terms
  of a partition are ONE batched decode (``codec.decode_many``) plus ONE
  re-encode (``codec.encode_run_group``), and only large terms are
  header-spliced one by one (``codec.concat_postings``).

Posting blobs and terms stay Arrow columns from encode to shard: the
encoder returns one ``large_binary`` column per group, and the merge
sorts, takes and concatenates columns, with no Python object per run or
term except in the large-term splice.

Postings are equal for every salt fan-out
(tests/test_salt_equivalence.py).

A term shard is term-sorted rows in row groups of ``SHARD_ROW_GROUP``
terms (``write_shard``), each with its ``term`` min/max in the footer.
``TermShards`` is the read side: it opens a shard once, keeps those
ranges resident and reads only the row group that can hold a probed
term, or the groups that overlap a term range (prefix expansion) — a
resident index over on-disk term blocks, like Lucene's block-tree terms
dictionary.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from onestools_eventlog_ray.functions import codec
from onestools_eventlog_ray.state import checkpoint as ckpt

RUN_SCHEMA = pa.schema([
    ("pkey", pa.int32()),
    ("term", pa.string()),
    ("salt", pa.int32()),
    ("df_run", pa.int64()),
    ("cf_run", pa.int64()),
    ("blob", pa.large_binary()),
])

# terms per row group of a term shard: the unit one cold probe reads
SHARD_ROW_GROUP = 128


def write_shard(table: pa.Table, path: str) -> None:
    """Write term-sorted shard rows atomically in row groups of
    ``SHARD_ROW_GROUP`` rows.  Terms are unique within a shard, so
    dictionary pages are pure overhead, and statistics on the posting
    blobs would dominate the footer: only ``term`` keeps its min/max,
    the range :class:`TermShards` prunes row groups by."""
    ckpt.atomic_write_bytes(path, lambda tmp: pq.write_table(
        table, tmp, row_group_size=SHARD_ROW_GROUP, compression="zstd",
        use_dictionary=False, write_statistics=["term"]))


class TermShards:
    """Term probes over term-sorted parquet files ``path.format(pkey)``:
    the one read path of the term shards and of the sidecars keyed by
    term.

    A file is opened at most once, at its first probe, as a
    ``pq.ParquetFile``; the ``(min, max)`` term of each row group is read
    from its footer statistics and stays resident.  A probe reads only
    the row groups whose range holds a probed term — one group per term
    in a :func:`write_shard` file.  A group without a term range (no
    statistics, or a max too long for them) may hold any term, so a
    one-group file of an older writer reads whole.

    The open handle is a snapshot: a file replaced on disk after it was
    opened (``ckpt.atomic_write_bytes`` renames a new file over it) is
    still read from the file that was opened.  A missing file is not
    remembered, so one written later is found."""

    def __init__(self, path: str):
        self.path = path
        self._open: dict[int, tuple] = {}

    def _file(self, pkey: int) -> tuple | None:
        f = self._open.get(pkey)
        if f is None:
            try:
                pf = pq.ParquetFile(self.path.format(pkey))
            except FileNotFoundError:
                return None
            md = pf.metadata
            col = pf.schema_arrow.get_field_index("term")
            lo = np.full(md.num_row_groups, "", dtype=object)
            hi = np.full(md.num_row_groups, "", dtype=object)
            every = np.ones(md.num_row_groups, dtype=bool)
            for i in range(md.num_row_groups):
                st = md.row_group(i).column(col).statistics
                # a bound longer than the writer's statistics size limit
                # is dropped and reads back as "": an empty min still
                # bounds the group from below, an empty max bounds nothing
                if st is not None and st.has_min_max and st.max != "":
                    lo[i], hi[i], every[i] = st.min, st.max, False
            f = self._open[pkey] = (pf, lo, hi, every)
        return f

    def read(self, pkey: int, terms: list[str] | None,
             columns: list[str] | None = None) -> pa.Table | None:
        """The rows of file ``pkey`` whose term is in ``terms`` (every
        row when ``terms`` is None), in file order; None when the file
        is missing or no row group can hold any of ``terms``."""
        f = self._file(pkey)
        if f is None:
            return None
        pf, lo, hi, every = f
        if terms is None:
            return pf.read(columns=columns, use_threads=False)
        groups = every.copy()
        for t in terms:
            groups |= (lo <= t) & (hi >= t)
        tbl = _read_groups(pf, groups, columns)
        return None if tbl is None else tbl.filter(
            pc.is_in(tbl["term"], value_set=pa.array(terms, pa.string())))

    def read_range(self, pkey: int, lo: str, hi: str,
                   columns: list[str] | None = None) -> pa.Table | None:
        """As :meth:`read`, for the rows with ``lo <= term < hi``: only
        the row groups whose term range overlaps ``[lo, hi)`` are read."""
        f = self._file(pkey)
        if f is None:
            return None
        pf, glo, ghi, every = f
        tbl = _read_groups(pf, every | ((ghi >= lo) & (glo < hi)), columns)
        return None if tbl is None else tbl.filter(
            pc.and_(pc.greater_equal(tbl["term"], lo),
                    pc.less(tbl["term"], hi)))

    def close(self) -> None:
        """Close every open file.  A later probe opens its file again,
        so it sees a file replaced since the first open."""
        for pf, *_ in self._open.values():
            pf.close()
        self._open.clear()


def _read_groups(pf: pq.ParquetFile, groups: np.ndarray,
                 columns: list[str] | None) -> pa.Table | None:
    """The row groups of ``pf`` set in the mask ``groups``, or None."""
    tbls = [pf.read_row_group(int(i), columns=columns, use_threads=False)
            for i in np.flatnonzero(groups)]
    return pa.concat_tables(tbls) if tbls else None


def make_encode_runs(block_size: int):
    """Encoder for one build group's triples: encode every (term, salt)
    run in the group.  Codec v3 stores (max_tf, min_dl) block bounds, so
    encoding needs NO corpus stats — encode tasks never wait on the stats
    fold."""

    def encode_runs(group: pa.Table) -> pa.Table:
        from onestools_eventlog_ray.functions.runtime import \
            pin_worker_threads
        pin_worker_threads()
        n = group.num_rows
        if n == 0:
            return RUN_SCHEMA.empty_table()
        term_col = group["term"]
        if isinstance(term_col, pa.ChunkedArray):
            term_col = term_col.combine_chunks()
        d = term_col.dictionary_encode()
        tidx = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        doc_ids = group["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        tfs = group["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        dls = group["dl"].to_numpy(zero_copy_only=False).astype(np.int64)
        salts = group["salt"].to_numpy(zero_copy_only=False).astype(np.int64)
        pkeys = group["pkey"].to_numpy(zero_copy_only=False).astype(np.int64)

        order = np.lexsort((doc_ids, salts, tidx))
        tidx, doc_ids, tfs, dls, salts, pkeys = \
            (a[order] for a in (tidx, doc_ids, tfs, dls, salts, pkeys))
        # run boundaries on (term, salt)
        change = np.empty(tidx.size, dtype=bool)
        change[0] = True
        np.logical_or(np.diff(tidx) != 0, np.diff(salts) != 0, out=change[1:])
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], tidx.size)

        return pa.table({
            "pkey": pa.array(pkeys[starts].astype(np.int32), pa.int32()),
            "term": d.dictionary.take(pa.array(tidx[starts])),
            "salt": pa.array(salts[starts].astype(np.int32), pa.int32()),
            "df_run": pa.array((ends - starts).astype(np.int64), pa.int64()),
            "cf_run": pa.array(np.add.reduceat(tfs, starts).astype(np.int64),
                               pa.int64()),
            "blob": codec.encode_run_group(starts, doc_ids, tfs, dls,
                                           block_size),
        }, schema=RUN_SCHEMA)

    return encode_runs


def make_merge_and_write(index_dir: str, fingerprint: str,
                         reencode_block_size: int):
    """Merger for one partition's runs: join each term's salted runs
    into one posting, write the shard parquet atomically, emit the
    checkpoint record (lineage + metrics) for the partition.

    Per-term df/cf, the term classes and the re-encode are array
    operations over the partition's (term, salt)-sorted runs:

    - a single-run term keeps its run's blob (one ``take`` for all);
    - a SMALL but fragmented term (metadata bloat from universal
      fixed-range salting: min(df, S) runs each with their own block
      headers) is re-encoded with ``reencode_block_size``; all such
      terms of the partition go through ONE ``codec.decode_many`` and
      ONE ``codec.encode_run_group``;
    - a large term merges by zero-copy header splice
      (``codec.concat_postings``), the only per-term Python left.

    The three kinds' blob columns are concatenated and put in term
    order by one ``take``.

    Salts are ascending doc_id ranges, so a term's runs in salt order are
    already id-sorted; runs that overlap raise ``ValueError``."""

    def merge_and_write(group: pa.Table) -> pa.Table:
        from onestools_eventlog_ray.functions.runtime import \
            pin_worker_threads
        pin_worker_threads()
        pkey = int(group["pkey"][0].as_py())
        term_col = group["term"]
        if isinstance(term_col, pa.ChunkedArray):
            term_col = term_col.combine_chunks()
        d = term_col.dictionary_encode()
        # UTF-8 byte order is code-point order: the order of sorted(str)
        torder = pc.sort_indices(d.dictionary).to_numpy()
        rank = np.empty(torder.size, dtype=np.int64)
        rank[torder] = np.arange(torder.size)
        tkey = rank[d.indices.to_numpy(zero_copy_only=False)]
        salts = group["salt"].to_numpy(zero_copy_only=False)
        order = np.lexsort((salts, tkey))
        starts = np.flatnonzero(np.diff(tkey[order], prepend=-1))
        runs = np.diff(np.append(starts, order.size))
        df = np.add.reduceat(group["df_run"].to_numpy(zero_copy_only=False)[order], starts)
        cf = np.add.reduceat(group["cf_run"].to_numpy(zero_copy_only=False)[order], starts)
        blobs = group["blob"].combine_chunks().take(pa.array(order))

        # the posting column = [single-run blobs][re-encoded][spliced],
        # put back in term order by one take
        is_small = (runs > 1) & (df < 64 * reencode_block_size)
        single = np.flatnonzero(runs == 1)
        small = np.flatnonzero(is_small)
        large = np.flatnonzero((runs > 1) & ~is_small)
        pieces = [blobs.take(pa.array(starts[single]))]
        if small.size:
            ids, tfs, dls = codec.decode_many(
                blobs.filter(pa.array(np.repeat(is_small, runs))))
            re_starts = np.cumsum(df[small]) - df[small]
            ascending = np.diff(ids) > 0
            ascending[re_starts[1:] - 1] = True  # term boundaries
            if ids.size != df[small].sum() or not ascending.all():
                raise ValueError("merge: runs overlap, are out of order or miscount df")
            pieces.append(codec.encode_run_group(re_starts, ids, tfs, dls,
                                                 reencode_block_size))
        pieces.append(pa.array(
            [codec.concat_postings(
                blobs.slice(int(starts[t]), int(runs[t])).to_pylist())
             for t in large], pa.large_binary()))
        where = np.empty(starts.size, dtype=np.int64)
        where[np.concatenate([single, small, large])] = np.arange(starts.size)

        shard = pa.table({
            "term": d.dictionary.take(pa.array(torder)),
            "df": pa.array(df, pa.int64()),
            "cf": pa.array(cf, pa.int64()),
            "posting": pa.concat_arrays(pieces).take(pa.array(where)),
        })
        shard_path = os.path.join(index_dir, "shards", f"part-{pkey:05d}.parquet")
        write_shard(shard, shard_path)
        rec = ckpt.PartitionRecord(
            partition_id=pkey, input_fingerprint=fingerprint,
            output_path=shard_path, n_terms=shard.num_rows,
            n_postings=int(df.sum()), status="done")
        ckpt.write_record(index_dir, rec)
        return pa.table({
            "partition_id": pa.array([pkey], pa.int64()),
            "n_terms": pa.array([shard.num_rows], pa.int64()),
            "n_postings": pa.array([rec.n_postings], pa.int64()),
        })

    return merge_and_write
