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
  ``decode_many`` decodes many postings with one varint pass per
  section and one cumsum (blocks are self-contained, so the sections of
  all blobs join into one buffer): the build merge's decode of a
  partition's small fragmented terms, at one NumPy call cost for all.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

_VERSION = 3
_FIXED = struct.Struct("<BIQ")           # version, n_blocks, n_docs_total
_BLOCK_DT = np.dtype([("first_doc", "<u8"), ("last_doc", "<u8"),
                      ("n_docs", "<u4"), ("gap_end", "<u4"),
                      ("tf_end", "<u4"), ("dl_end", "<u4"),
                      ("max_tf", "<u4"), ("min_dl", "<u4")])
# the last 20 bytes of a block header: gap_end, tf_end, dl_end (+ max_tf, min_dl)
_SECTION_ENDS = struct.Struct("<III8x")


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
    b = np.frombuffer(buf, dtype=np.uint8) if not isinstance(buf, np.ndarray) else buf
    ends = np.flatnonzero((b & 0x80) == 0)         # last byte of each value
    if count is not None and ends.size != count:
        raise ValueError(f"varint_decode: expected {count} values, got {ends.size}")
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    if ends.size == 0 or ends[-1] != b.size - 1:
        raise ValueError("varint_decode: the run ends inside a value")
    starts = np.zeros(ends.size, dtype=np.int64)   # first byte of each value
    starts[1:] = ends[:-1] + 1
    j = np.arange(b.size, dtype=np.int64)
    j -= np.repeat(starts, ends - starts + 1)      # byte position within its value
    contrib = (b & np.uint8(0x7F)).astype(np.uint64) << (np.uint64(7) * j.astype(np.uint64))
    return np.add.reduceat(contrib, starts)


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
    """Encode one term's (sorted-by-doc_id) posting — fully vectorized:
    three varint passes over the whole posting, no per-block loop.
    Needs NO corpus stats (block bounds store raw (max_tf, min_dl))."""
    doc_ids = np.ascontiguousarray(doc_ids, dtype=np.int64)
    n = doc_ids.size
    if n == 0:
        return _FIXED.pack(_VERSION, 0, 0)
    if n > 1 and not (np.diff(doc_ids) > 0).all():
        raise ValueError("doc_ids must be strictly increasing")
    tfs = np.asarray(tfs, dtype=np.int64)
    dls = np.asarray(dls, dtype=np.int64)

    n_blocks = (n + block_size - 1) // block_size
    starts = np.arange(n_blocks, dtype=np.int64) * block_size
    ends = np.minimum(starts + block_size, n)

    u_ids = doc_ids.astype(np.uint64)
    gaps = np.empty(n, dtype=np.uint64)
    gaps[0] = 0
    np.subtract(u_ids[1:], u_ids[:-1], out=gaps[1:])
    gaps[starts] = 0                      # ids are relative to block first_doc

    gap_b, gap_len = varint_encode_with_lengths(gaps)
    tf_b, tf_len = varint_encode_with_lengths(np.asarray(tfs, dtype=np.uint64))
    dl_b, dl_len = varint_encode_with_lengths(np.asarray(dls, dtype=np.uint64))

    _check_u32(len(gap_b), len(tf_b), len(dl_b))
    headers = np.empty(n_blocks, dtype=_BLOCK_DT)
    headers["first_doc"] = u_ids[starts]
    headers["last_doc"] = u_ids[ends - 1]
    headers["n_docs"] = (ends - starts).astype(np.uint32)
    headers["gap_end"] = np.cumsum(gap_len)[ends - 1].astype(np.uint32)
    headers["tf_end"] = np.cumsum(tf_len)[ends - 1].astype(np.uint32)
    headers["dl_end"] = np.cumsum(dl_len)[ends - 1].astype(np.uint32)
    headers["max_tf"] = np.maximum.reduceat(tfs, starts).astype(np.uint32)
    headers["min_dl"] = np.minimum.reduceat(dls, starts).astype(np.uint32)

    return (_FIXED.pack(_VERSION, n_blocks, n) + headers.tobytes()
            + gap_b + tf_b + dl_b)


def encode_run_group(run_starts: np.ndarray, doc_ids: np.ndarray,
                     tfs: np.ndarray, dls: np.ndarray,
                     block_size: int = 128) -> list[bytes]:
    """Encode MANY runs at once (one varint pass over the whole group).

    ``run_starts``: start index of each run in the (run-major,
    doc_id-ascending-within-run) arrays.  Returns one posting blob per
    run, byte-identical to calling :func:`encode_posting` per run — the
    per-run Python overhead (the cost driver when universal range
    salting fragments terms into many small runs) collapses to a few
    slices per run."""
    n = doc_ids.size
    if n == 0:
        return []
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
    block_start = (offset_in_run % block_size) == 0
    bstarts = np.flatnonzero(block_start)
    bends = np.append(bstarts[1:], n)

    gaps = np.empty(n, dtype=np.uint64)
    gaps[0] = 0
    np.subtract(u_ids[1:], u_ids[:-1], out=gaps[1:])
    gaps[bstarts] = 0

    gap_b, gap_len = varint_encode_with_lengths(gaps)
    tf_b, tf_len = varint_encode_with_lengths(np.asarray(tfs, dtype=np.uint64))
    dl_b, dl_len = varint_encode_with_lengths(np.asarray(dls, dtype=np.uint64))
    gap_cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(gap_len, out=gap_cum[1:])
    tf_cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(tf_len, out=tf_cum[1:])
    dl_cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(dl_len, out=dl_cum[1:])

    headers = np.empty(bstarts.size, dtype=_BLOCK_DT)
    headers["first_doc"] = u_ids[bstarts]
    headers["last_doc"] = u_ids[bends - 1]
    headers["n_docs"] = (bends - bstarts).astype(np.uint32)
    headers["max_tf"] = np.maximum.reduceat(tfs, bstarts).astype(np.uint32)
    headers["min_dl"] = np.minimum.reduceat(dls, bstarts).astype(np.uint32)
    # global byte ends per block (made run-local below)
    g_end = gap_cum[bends]
    t_end = tf_cum[bends]
    d_end = dl_cum[bends]

    block_run = run_id[bstarts]                 # run of each block
    run_first_block = np.searchsorted(block_run, np.arange(run_starts.size))
    out: list[bytes] = []
    mv_gap, mv_tf, mv_dl = memoryview(gap_b), memoryview(tf_b), memoryview(dl_b)
    for r in range(run_starts.size):
        b0 = run_first_block[r]
        b1 = run_first_block[r + 1] if r + 1 < run_starts.size else bstarts.size
        h = headers[b0:b1].copy()
        s, e = run_starts[r], run_ends[r]
        _check_u32(int(gap_cum[e] - gap_cum[s]), int(tf_cum[e] - tf_cum[s]),
                   int(dl_cum[e] - dl_cum[s]))
        h["gap_end"] = (g_end[b0:b1] - gap_cum[s]).astype(np.uint32)
        h["tf_end"] = (t_end[b0:b1] - tf_cum[s]).astype(np.uint32)
        h["dl_end"] = (d_end[b0:b1] - dl_cum[s]).astype(np.uint32)
        out.append(_FIXED.pack(_VERSION, b1 - b0, e - s) + h.tobytes()
                   + bytes(mv_gap[gap_cum[s]:gap_cum[e]])
                   + bytes(mv_tf[tf_cum[s]:tf_cum[e]])
                   + bytes(mv_dl[dl_cum[s]:dl_cum[e]]))
    return out


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


def decode_many(blobs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode many postings at once -> their (doc_ids, tfs, dls), each
    concatenated in blob order.  Blocks are self-contained, so the block
    headers and each varint section join into one buffer: one varint
    pass per section and one cumsum for all blobs, whatever their number
    (the per-call NumPy cost is paid once, not once per blob)."""
    heads, gaps, tfs, dls = [], [], [], []
    n_total = 0
    for blob in blobs:
        version, n_blocks, n_docs = _FIXED.unpack_from(blob, 0)
        if version != _VERSION:
            raise ValueError(f"bad posting version {version}")
        if n_docs == 0:
            continue
        mv = memoryview(blob)
        h = _FIXED.size + n_blocks * _BLOCK_DT.itemsize
        g, t, d = _SECTION_ENDS.unpack_from(blob, h - _SECTION_ENDS.size)
        heads.append(mv[_FIXED.size:h])
        gaps.append(mv[h:h + g])
        tfs.append(mv[h + g:h + g + t])
        dls.append(mv[h + g + t:h + g + t + d])
        n_total += n_docs
    if n_total == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z.copy(), z.copy()
    headers = np.frombuffer(b"".join(heads), dtype=_BLOCK_DT)
    return (_ids_from_gaps(varint_decode(b"".join(gaps), count=n_total), headers),
            varint_decode(b"".join(tfs), count=n_total).astype(np.int64),
            varint_decode(b"".join(dls), count=n_total).astype(np.int64))


def decode_posting(blob: bytes) -> Posting:
    """Decode a full posting: three vectorized varint passes + one cumsum."""
    return Posting(*decode_many([blob]))


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
