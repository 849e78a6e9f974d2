"""Delta + varint posting-list codec with block-skip and block-max metadata.

The bespoke binary state of the engine (SURVEY.md §7.4): the analog of
the reference's sink-side column codecs (``DoubleDelta``/``ZSTD`` in
``/root/reference/OneSTools.EventLog.Exporter.Core/ClickHouse/ClickHouseStorage.cs:151-182``)
and of the inverted index ElasticSearch builds for the analyzed ``text``
fields (``ElasticSearchStorage.cs:217,227,231``) — here we build it
ourselves.

Layout v3 (little-endian)::

    [u8 version=3][u32 n_blocks][u64 n_docs_total]
    n_blocks * block header:
        u64 first_doc_id | u64 last_doc_id | u32 n_docs
        | u32 gap_end | u32 tf_end | u32 dl_end      (cumulative byte offsets
                                                      into each varint section)
        | u32 max_tf | u32 min_dl
    three COLUMNAR varint sections: all doc_id gaps | all tfs | all dls
    (each block's first gap is 0; ids are relative to its first_doc_id)

The columnar-section layout lets one vectorized varint pass encode or
decode an entire posting (no per-block Python loop), while the per-block
section offsets keep blocks independently decodable for block-skip.

Key properties:

- **Blocks are self-contained** (absolute ``first_doc_id`` per block), so
  two postings covering disjoint ascending doc_id ranges concatenate by
  splicing headers + payloads with NO re-encoding — this is what makes
  salted hot-term runs (salt = doc_id range bucket) cheap to merge.
- **Per-block ``(max_tf, min_dl)``** give the BM25 score upper bound
  ``idf * impact(max_tf, min_dl)`` at QUERY time (impact is monotone
  increasing in tf and decreasing in dl) — the block-max skip
  bound.  Storing the raw extrema instead of a precomputed impact makes
  encoding **independent of the corpus stats** (avgdl): encode tasks
  need no stats barrier, and postings stay valid when avgdl drifts
  across incremental generations.
- Encode and decode are vectorized NumPy (no per-value Python loop).
  The build moves blobs as one Arrow ``large_binary`` column, never as
  a Python object per posting: ``encode_run_group`` encodes every run
  of a group with one varint pass per section and lays all blobs into
  one buffer by segmented copies; ``decode_many`` reads a binary column
  at its offsets with segmented gathers and decodes every blob with one
  varint pass per section and one cumsum (blocks are self-contained, so
  the sections of all blobs join into one buffer).  A single blob, the
  query path's cold term, decodes through ``decode_posting``: one
  varint pass over its three contiguous sections.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

_VERSION = 3
_FIXED = struct.Struct("<BIQ")           # version, n_blocks, n_docs_total
_FIXED_DT = np.dtype([("version", "u1"), ("n_blocks", "<u4"),
                      ("n_docs", "<u8")])  # packed: the same 13 bytes
_BLOCK_DT = np.dtype([("first_doc", "<u8"), ("last_doc", "<u8"),
                      ("n_docs", "<u4"), ("gap_end", "<u4"),
                      ("tf_end", "<u4"), ("dl_end", "<u4"),
                      ("max_tf", "<u4"), ("min_dl", "<u4")])


# --------------------------------------------------------------------------
# vectorized varint
# --------------------------------------------------------------------------

def varint_encode(values: np.ndarray) -> bytes:
    """LEB128-encode an array of non-negative ints (vectorized)."""
    return varint_encode_with_lengths(values)[0]


def varint_encode_with_lengths(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """LEB128-encode an array of non-negative ints (vectorized) -> (bytes,
    per-value byte lengths, for section offsets).

    For each value the bytes are ``(v >> 7j) & 0x7f`` with the high bit
    set on all but the last byte.  The loop below runs once per *byte
    position* (<= 10 iterations), not per value.
    """
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b"", np.empty(0, dtype=np.int64)
    nbits = np.zeros(v.shape, dtype=np.int64)
    tmp = v.copy()
    nz = tmp > 0
    while nz.any():
        nbits[nz] += 1
        tmp >>= np.uint64(7)
        nz = tmp > 0
    nbytes = np.maximum(nbits, 1)
    offsets = np.zeros(v.size + 1, dtype=np.int64)
    np.cumsum(nbytes, out=offsets[1:])
    out = np.zeros(offsets[-1], dtype=np.uint8)
    for j in range(int(nbytes.max())):
        mask = nbytes > j
        pos = offsets[:-1][mask] + j
        byte = ((v[mask] >> np.uint64(7 * j)) & np.uint64(0x7F)).astype(np.uint8)
        cont = (nbytes[mask] - 1 > j)
        out[pos] = byte | (cont.astype(np.uint8) << 7)
    return out.tobytes(), nbytes


def varint_decode(buf: bytes | np.ndarray, count: int | None = None) -> np.ndarray:
    """Decode a varint byte run back to uint64 (vectorized via reduceat);
    raise ``ValueError`` unless it holds exactly ``count`` whole values."""
    return _varint_decode(buf, count)[0]


def _varint_decode(buf: bytes | np.ndarray, count: int | None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`varint_decode` -> (values, index of each value's last byte)."""
    b = np.frombuffer(buf, dtype=np.uint8) if not isinstance(buf, np.ndarray) else buf
    ends = np.flatnonzero((b & 0x80) == 0)         # last byte of each value
    if count is not None and ends.size != count:
        raise ValueError(f"varint_decode: expected {count} values, got {ends.size}")
    if b.size == 0:
        return np.empty(0, dtype=np.uint64), ends
    if ends.size == 0 or ends[-1] != b.size - 1:
        raise ValueError("varint_decode: the run ends inside a value")
    starts = np.zeros(ends.size, dtype=np.int64)   # first byte of each value
    starts[1:] = ends[:-1] + 1
    j = np.arange(b.size, dtype=np.int64)
    j -= np.repeat(starts, ends - starts + 1)      # byte position within its value
    contrib = (b & np.uint8(0x7F)).astype(np.uint64) << (np.uint64(7) * j.astype(np.uint64))
    return np.add.reduceat(contrib, starts), ends


# --------------------------------------------------------------------------
# posting encode / decode / concat
# --------------------------------------------------------------------------

@dataclass
class Posting:
    doc_ids: np.ndarray   # int64, strictly increasing
    tfs: np.ndarray       # int64
    dls: np.ndarray       # int64

    @property
    def df(self) -> int:
        return int(self.doc_ids.size)


def _check_u32(*section_bytes: int) -> None:
    """Posting section offsets are u32: refuse to build a posting whose
    varint section exceeds 4 GiB instead of silently wrapping the header
    offsets (plausible for df~1e9 hot terms at 100 TB scale — raising
    here turns corruption into an explicit 'raise salt fan-out' signal)."""
    for nb in section_bytes:
        if nb > 0xFFFFFFFF:
            raise ValueError(
                f"posting varint section {nb} bytes exceeds the u32 header "
                "limit; increase salt fan-out so runs stay under 4 GiB")


def bm25_impact(tf: np.ndarray, dl: np.ndarray, avgdl: float,
                k1: float, b: float) -> np.ndarray:
    tf = np.asarray(tf, dtype=np.float64)
    dl = np.asarray(dl, dtype=np.float64)
    return tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))


def encode_posting(doc_ids: np.ndarray, tfs: np.ndarray, dls: np.ndarray,
                   block_size: int = 128) -> bytes:
    """Encode one term's posting (``doc_ids`` strictly increasing): the
    one-run case of :func:`encode_run_group`."""
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.int64)
    if doc_ids.size == 0:
        return _FIXED.pack(_VERSION, 0, 0)
    if not (np.diff(doc_ids) > 0).all():
        raise ValueError("doc_ids must be strictly increasing")
    return encode_run_group(np.zeros(1, dtype=np.int64), doc_ids, tfs, dls,
                            block_size)[0].as_py()


def _segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Byte positions of the segments ``[starts[i], starts[i] + lengths[i])``,
    concatenated in order: one ``np.repeat`` of (segment start - its start
    in the concatenation) plus one ``arange``.  Indexing a buffer with it
    is a segmented gather; assigning through it a segmented scatter."""
    lengths = np.asarray(lengths, dtype=np.int64)
    shift = np.asarray(starts, dtype=np.int64) - (np.cumsum(lengths) - lengths)
    return np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(shift, lengths)


def encode_run_group(run_starts: np.ndarray, doc_ids: np.ndarray,
                     tfs: np.ndarray, dls: np.ndarray,
                     block_size: int = 128) -> pa.LargeBinaryArray:
    """Encode MANY runs at once -> one posting blob per run, as one Arrow
    ``large_binary`` column (no Python object per run).

    ``run_starts``: start index of each (non-empty) run in the run-major,
    doc_id-ascending-within-run arrays.  One varint pass per section
    encodes the whole group; each run's blob size follows from its block
    count and section byte counts, and each of the five parts of a blob
    (fixed header, block headers, gap, tf and dl varints) is laid into
    the output buffer by one segmented copy over all runs."""
    n = doc_ids.size
    if n == 0:
        return pa.array([], pa.large_binary())
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.int64)
    run_starts = np.asarray(run_starts, dtype=np.int64)
    run_ends = np.append(run_starts[1:], n)
    tfs = np.asarray(tfs, dtype=np.int64)
    dls = np.asarray(dls, dtype=np.int64)
    u_ids = doc_ids.astype(np.uint64)

    # block starts: every block_size-th element within its run
    run_id = np.zeros(n, dtype=np.int64)
    run_id[run_starts[1:]] = 1
    run_id = np.cumsum(run_id)
    offset_in_run = np.arange(n, dtype=np.int64) - run_starts[run_id]
    bstarts = np.flatnonzero((offset_in_run % block_size) == 0)
    bends = np.append(bstarts[1:], n)
    block_run = run_id[bstarts]                 # run of each block

    gaps = np.empty(n, dtype=np.uint64)
    gaps[0] = 0
    np.subtract(u_ids[1:], u_ids[:-1], out=gaps[1:])
    gaps[bstarts] = 0                           # ids relative to block first_doc

    headers = np.empty(bstarts.size, dtype=_BLOCK_DT)
    headers["first_doc"] = u_ids[bstarts]
    headers["last_doc"] = u_ids[bends - 1]
    headers["n_docs"] = (bends - bstarts).astype(np.uint32)
    headers["max_tf"] = np.maximum.reduceat(tfs, bstarts).astype(np.uint32)
    headers["min_dl"] = np.minimum.reduceat(dls, bstarts).astype(np.uint32)
    sections = []
    for field, values in (("gap_end", gaps), ("tf_end", tfs), ("dl_end", dls)):
        buf, lens = varint_encode_with_lengths(values.astype(np.uint64))
        cum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=cum[1:])
        size = cum[run_ends] - cum[run_starts]  # the run's section bytes
        _check_u32(int(size.max()))
        # cumulative byte ends, local to the block's run
        headers[field] = (cum[bends] - cum[run_starts[block_run]]).astype(np.uint32)
        sections.append((np.frombuffer(buf, dtype=np.uint8), size))

    n_blocks = np.bincount(block_run, minlength=run_starts.size)
    fixed = np.empty(run_starts.size, dtype=_FIXED_DT)
    fixed["version"] = _VERSION
    fixed["n_blocks"] = n_blocks
    fixed["n_docs"] = run_ends - run_starts
    parts = [(fixed.view(np.uint8), np.full(run_starts.size, _FIXED.size)),
             (headers.view(np.uint8), n_blocks * _BLOCK_DT.itemsize)] + sections
    offsets = np.zeros(run_starts.size + 1, dtype=np.int64)
    np.cumsum(sum(size for _, size in parts), out=offsets[1:])
    out = np.empty(int(offsets[-1]), dtype=np.uint8)
    at = offsets[:-1].copy()                    # next free byte of each blob
    for src, size in parts:
        out[_segments(at, size)] = src
        at += size
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), run_starts.size,
        [None, pa.py_buffer(offsets), pa.py_buffer(out)])


def read_header(blob: bytes) -> tuple[np.ndarray, int, int]:
    """-> (block header struct array, total docs, payload start offset)."""
    version, n_blocks, n_docs = _FIXED.unpack_from(blob, 0)
    if version != _VERSION:
        raise ValueError(f"bad posting version {version}")
    hdr_off = _FIXED.size
    headers = np.frombuffer(blob, dtype=_BLOCK_DT, count=n_blocks, offset=hdr_off)
    return headers, n_docs, hdr_off + n_blocks * _BLOCK_DT.itemsize


def _sections(blob: bytes, headers: np.ndarray, payload_off: int):
    g_end = int(headers["gap_end"][-1])
    t_end = int(headers["tf_end"][-1])
    d_end = int(headers["dl_end"][-1])
    buf = np.frombuffer(blob, dtype=np.uint8, offset=payload_off,
                        count=g_end + t_end + d_end)
    return buf[:g_end], buf[g_end:g_end + t_end], buf[g_end + t_end:]


def _ids_from_gaps(gaps: np.ndarray, headers: np.ndarray) -> np.ndarray:
    counts = headers["n_docs"].astype(np.int64)
    starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    csum = np.cumsum(gaps, dtype=np.uint64)
    base = headers["first_doc"] - csum[starts]      # uint64 wraparound-safe
    return (csum + np.repeat(base, counts)).astype(np.int64)


def decode_many(blobs: pa.Array | pa.ChunkedArray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a binary Arrow column of postings (sliced or chunked) ->
    their (doc_ids, tfs, dls), each concatenated in blob order.

    Blocks are self-contained, so every blob's block headers and each of
    its varint sections join into one buffer: the fixed headers and last
    section ends are read at the column's offsets, each part is one
    segmented gather, and one varint pass per section plus one cumsum
    decode all blobs (the per-call NumPy cost is paid once, not once per
    blob).  Raises ``ValueError`` on a null, on a bad version byte and
    on a blob whose length disagrees with its header (a truncated blob
    would otherwise read its neighbour's bytes)."""
    if isinstance(blobs, pa.ChunkedArray):
        blobs = blobs.combine_chunks()
    z = np.empty(0, dtype=np.int64)
    if len(blobs) == 0:
        return z, z.copy(), z.copy()
    if blobs.null_count:
        raise ValueError("decode_many: null posting blob")
    off_dt = np.int64 if pa.types.is_large_binary(blobs.type) else np.int32
    _, off_buf, data_buf = blobs.buffers()
    offs = np.frombuffer(off_buf, dtype=off_dt, count=blobs.offset + len(blobs) + 1
                         )[blobs.offset:].astype(np.int64)
    data = np.frombuffer(data_buf, dtype=np.uint8) if data_buf else \
        np.empty(0, dtype=np.uint8)
    starts, length = offs[:-1], np.diff(offs)
    short = np.flatnonzero(length < _FIXED.size)
    if short.size:
        raise ValueError(f"posting blob {short[0]} is shorter than its header")
    fixed = data[_segments(starts, np.full(starts.size, _FIXED.size))].view(_FIXED_DT)
    bad = np.flatnonzero(fixed["version"] != _VERSION)
    if bad.size:
        raise ValueError(f"bad posting version {fixed['version'][bad[0]]}")
    n_blocks = fixed["n_blocks"].astype(np.int64)
    head = _FIXED.size + n_blocks * _BLOCK_DT.itemsize
    ends = np.zeros((starts.size, 3), dtype=np.int64)   # gap, tf, dl bytes
    has = np.flatnonzero((n_blocks > 0) & (length >= head))
    if has.size:                # a blob's section sizes: its last block's ends
        last = data[_segments(starts[has] + head[has] - _BLOCK_DT.itemsize,
                              np.full(has.size, _BLOCK_DT.itemsize))].view(_BLOCK_DT)
        ends[has] = np.stack([last["gap_end"], last["tf_end"], last["dl_end"]], axis=1)
    wrong = np.flatnonzero(head + ends.sum(axis=1) != length)
    if wrong.size:
        i = wrong[0]
        raise ValueError(f"posting blob {i} has {length[i]} bytes, its header "
                         f"says {head[i] + ends[i].sum()}")
    n_total = int(fixed["n_docs"].sum())
    if n_total == 0:
        return z, z.copy(), z.copy()
    at = starts + _FIXED.size
    headers = data[_segments(at, head - _FIXED.size)].view(_BLOCK_DT)
    at = starts + head
    cols = []
    for j in range(3):
        cols.append(varint_decode(data[_segments(at, ends[:, j])], count=n_total))
        at = at + ends[:, j]
    return (_ids_from_gaps(cols[0], headers), cols[1].astype(np.int64),
            cols[2].astype(np.int64))


def decode_posting(blob: bytes) -> Posting:
    """Decode one posting: one vectorized varint pass over its three
    contiguous sections + one cumsum.  The scalar path of a cold term
    probe (no gather set-up).  Each section must hold exactly its
    ``n_docs`` values: a value that crosses a section end raises
    ``ValueError``."""
    headers, n_docs, payload_off = read_header(blob)
    if n_docs == 0:
        z = np.empty(0, dtype=np.int64)
        return Posting(z, z.copy(), z.copy())
    g_end = int(headers["gap_end"][-1])
    t_end = g_end + int(headers["tf_end"][-1])
    buf = np.frombuffer(blob, dtype=np.uint8, offset=payload_off,
                        count=t_end + int(headers["dl_end"][-1]))
    vals, ends = _varint_decode(buf, 3 * n_docs)
    if ends[n_docs - 1] != g_end - 1 or ends[2 * n_docs - 1] != t_end - 1:
        raise ValueError("decode_posting: a varint section does not hold "
                         f"its {n_docs} values")
    return Posting(_ids_from_gaps(vals[:n_docs], headers),
                   vals[n_docs:2 * n_docs].astype(np.int64),
                   vals[2 * n_docs:].astype(np.int64))


def concat_postings(blobs: list[bytes]) -> bytes:
    """Concatenate postings over DISJOINT ascending doc_id ranges (hot-term
    salted runs): per-section memcpy splice + vectorized header offset
    shifts — no varint re-encoding."""
    parts = [read_header(b) + (b,) for b in blobs]
    parts = [(h, n, off, b) for (h, n, off, b) in parts if n > 0]
    if not parts:
        return _FIXED.pack(_VERSION, 0, 0)
    if len(parts) == 1:
        return parts[0][3]
    firsts = np.concatenate([h["first_doc"] for (h, _, _, _) in parts]).astype(np.int64)
    lasts = np.concatenate([h["last_doc"] for (h, _, _, _) in parts]).astype(np.int64)
    if not (firsts[1:] > lasts[:-1]).all():
        raise ValueError("concat_postings: runs overlap or are out of order")

    headers = np.concatenate([h for (h, _, _, _) in parts]).copy()
    n_total = 0
    gap_parts, tf_parts, dl_parts = [], [], []
    g_off = t_off = d_off = 0
    row = 0
    for (h, n, off, b) in parts:
        gap_s, tf_s, dl_s = _sections(b, h, off)
        nb = h.size
        headers["gap_end"][row:row + nb] += np.uint32(g_off)
        headers["tf_end"][row:row + nb] += np.uint32(t_off)
        headers["dl_end"][row:row + nb] += np.uint32(d_off)
        g_off += gap_s.size
        t_off += tf_s.size
        d_off += dl_s.size
        _check_u32(g_off, t_off, d_off)
        gap_parts.append(gap_s)
        tf_parts.append(tf_s)
        dl_parts.append(dl_s)
        n_total += n
        row += nb
    return (_FIXED.pack(_VERSION, len(headers), n_total) + headers.tobytes()
            + b"".join(p.tobytes() for p in gap_parts + tf_parts + dl_parts))


def block_max_scores(blob: bytes, idf: float, avgdl: float,
                     k1: float, b: float) -> np.ndarray:
    """Per-block BM25 upper bounds ``idf * impact(max_tf, min_dl)`` —
    block-max skip bounds, computed at query time from the CURRENT corpus
    stats (impact is monotone in tf up / dl down, so this dominates
    every posting in the block)."""
    headers, _, _ = read_header(blob)
    return idf * bm25_impact(headers["max_tf"].astype(np.float64),
                             headers["min_dl"].astype(np.float64),
                             avgdl, k1, b)


def decode_block(blob: bytes, block_idx: int) -> Posting:
    """Decode a single block (the block-skip read path)."""
    headers, n_docs, payload_off = read_header(blob)
    if not (0 <= block_idx < headers.size):
        raise IndexError(block_idx)
    gap_s, tf_s, dl_s = _sections(blob, headers, payload_off)
    g0 = int(headers["gap_end"][block_idx - 1]) if block_idx else 0
    t0 = int(headers["tf_end"][block_idx - 1]) if block_idx else 0
    d0 = int(headers["dl_end"][block_idx - 1]) if block_idx else 0
    c = int(headers["n_docs"][block_idx])
    gaps = varint_decode(gap_s[g0:int(headers["gap_end"][block_idx])], count=c)
    tfs = varint_decode(tf_s[t0:int(headers["tf_end"][block_idx])], count=c)
    dls = varint_decode(dl_s[d0:int(headers["dl_end"][block_idx])], count=c)
    ids = (np.cumsum(gaps, dtype=np.uint64)
           + headers["first_doc"][block_idx]).astype(np.int64)
    return Posting(ids, tfs.astype(np.int64), dls.astype(np.int64))
