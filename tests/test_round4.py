"""Round-4 additions: Bloom semi-join (driver-memory-bounded verified
pairs), adaptive salt ranges, stats-fold vectorization."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray
import ray.data

from onestools_eventlog_ray.functions.bloom import (Bloom, bloom_from_dataset,
                                                    membership_mask)
from onestools_eventlog_ray.pipelines import dedup as dedup_mod
from onestools_eventlog_ray.sources.corpus import DOCUMENTS_SPEC


# ---------------------------------------------------------------------------
# Bloom primitive
# ---------------------------------------------------------------------------

def test_bloom_no_false_negatives_and_low_fp():
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 1 << 62, size=20_000, dtype=np.int64)
    b = Bloom.sized_for(keys.size)
    b.add(keys)
    assert b.contains(keys).all()                       # no false negatives
    probe = rng.integers(0, 1 << 62, size=50_000, dtype=np.int64)
    probe = probe[~np.isin(probe, keys)]
    fp = b.contains(probe).mean()
    assert fp < 0.01, fp                                # 16 bits/key, k=8

    # membership_mask dispatches on type
    assert membership_mask(b, keys[:5]).all()
    assert membership_mask(np.sort(keys), keys[:5]).all()


def test_bloom_from_dataset_matches_direct_add(ray_session):
    rng = np.random.default_rng(11)
    keys = rng.integers(0, 1 << 62, size=5_000, dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({"k": keys})).repartition(8)
    b = bloom_from_dataset(ds, "k", keys.size)
    direct = Bloom.empty(b.m_bits, b.k)
    direct.add(keys)
    assert np.array_equal(b.words, direct.words)
    assert b.contains(keys).all()


# ---------------------------------------------------------------------------
# verified pairs: nothing O(candidates) crosses the driver
# ---------------------------------------------------------------------------

def _dup_corpus(tmp_path, n_docs: int, name: str) -> str:
    """Corpus where every doc has an exact duplicate -> every doc is an
    LSH candidate (worst case for driver candidate materialization)."""
    base = [f"alpha beta gamma delta epsilon zeta eta theta doc{i} "
            f"iota kappa lambda mu nu xi omicron pi rho sigma"
            for i in range(n_docs // 2)]
    texts = base + base
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["s"] * len(texts)),
        "n_chars": pa.array([len(x) for x in texts], pa.int64()),
    })
    p = str(tmp_path / f"{name}.parquet")
    pq.write_table(t, p)
    return p


def test_verified_pairs_driver_broadcast_is_fixed_size(
        ray_session, tmp_path, monkeypatch):
    put_objs = []
    real_put = ray.put

    def recording_put(obj, *a, **kw):
        put_objs.append(obj)
        return real_put(obj, *a, **kw)

    monkeypatch.setattr(dedup_mod.ray, "put", recording_put)

    sizes = {}
    for n in (80, 240):
        put_objs.clear()
        path = _dup_corpus(tmp_path, n, f"c{n}")
        ds = ray.data.read_parquet(path)
        pairs = dedup_mod.minhash_verified_pairs(
            ds, DOCUMENTS_SPEC, min_jaccard=0.9).to_pandas()
        # every base doc pairs with its duplicate at jaccard 1.0
        assert len(pairs) >= n // 2
        blooms = [o for o in put_objs if isinstance(o, Bloom)]
        assert len(blooms) == 2, [type(o) for o in put_objs]
        # NO raw id arrays broadcast, only the two Bloom summaries
        assert not any(isinstance(o, np.ndarray) for o in put_objs)
        sizes[n] = sum(b.nbytes for b in blooms)
    # 16 bits/key until the hard cap — 4x below a raw int64 broadcast
    # here, O(1) asymptotically (sized_for caps at MAX_BITS)
    from onestools_eventlog_ray.functions.bloom import MAX_BITS
    assert all(s <= 2 * MAX_BITS // 8 for s in sizes.values()), sizes
    assert sizes[240] <= 2 * sizes[80], sizes       # sublinear in corpus
    assert Bloom.sized_for(10**12).m_bits == MAX_BITS   # bounded forever


# ---------------------------------------------------------------------------
# distributed connected components == driver union-find
# ---------------------------------------------------------------------------

def test_components_distributed_matches_union_find(ray_session):
    """Planted graph: a 7-node chain (stresses O(diameter) rounds), a
    5-node star, one isolated pair, with big 63-bit-ish node ids."""
    B = 1 << 60
    chain = [(B + i, B + i + 1) for i in range(6)]
    star = [(7 * B, 7 * B + j) for j in (3, 9, 27, 81)]
    pair = [(5 * B + 123, 5 * B + 7)]
    edges = chain + star + pair
    t = pa.table({"doc_a": pa.array([a for a, _ in edges], pa.int64()),
                  "doc_b": pa.array([b for _, b in edges], pa.int64())})
    got = dedup_mod._components_distributed(
        ray.data.from_arrow(t)).to_pandas()

    # reference: driver union-find semantics (rep = component min)
    comp = {}
    for a, b in edges:
        ca = comp.get(a, {a})
        cb = comp.get(b, {b})
        merged = ca | cb
        for x in merged:
            comp[x] = merged
    want = sorted((x, min(c)) for x, c in comp.items())
    assert list(map(tuple, got[["doc_id", "rep_id"]].itertuples(index=False))) \
        == want


def test_dedup_clusters_impls_agree(ray_session, tmp_path):
    path = _dup_corpus(tmp_path, 60, "cc")
    ds = ray.data.read_parquet(path)
    drv = dedup_mod.dedup_clusters(ds, DOCUMENTS_SPEC, impl="driver").to_pandas()
    ds2 = ray.data.read_parquet(path)
    dist = dedup_mod.dedup_clusters(ds2, DOCUMENTS_SPEC,
                                    impl="distributed").to_pandas()
    assert drv.sort_values("doc_id").reset_index(drop=True).equals(
        dist.sort_values("doc_id").reset_index(drop=True))
    assert len(drv) == 60          # every doc has a duplicate


# ---------------------------------------------------------------------------
# DST-correct local dates
# ---------------------------------------------------------------------------

def test_events_by_localdate_tz_across_dst_boundary(ray_session):
    """Planted instants straddling the 2024 US spring-forward and
    fall-back: the DST-aware bucketing must match DuckDB AT TIME ZONE
    exactly, and must DIFFER from any fixed-offset variant."""
    import duckdb
    from onestools_eventlog_ray.pipelines import relational

    iso = ["2024-03-10 06:59:59", "2024-03-10 07:00:00",   # spring forward
           "2024-11-03 05:59:59", "2024-11-03 06:00:00",   # fall back
           "2024-03-10 04:30:00", "2024-07-01 04:30:00",
           "2024-01-15 04:59:00"]
    ts = pa.array([np.datetime64(s.replace(" ", "T"), "us") for s in iso],
                  pa.timestamp("us"))
    t = pa.table({"event_type": pa.array(["e"] * len(iso)), "ts": ts})

    got = relational.events_by_localdate_tz(
        ray.data.from_arrow(t), zone="America/New_York").to_pandas()
    got = got.sort_values(["event_type", "local_date"]).reset_index(drop=True)

    con = duckdb.connect()
    con.register("events", t)
    want = con.sql("""
        SELECT event_type,
               CAST(CAST(((ts AT TIME ZONE 'UTC')
                          AT TIME ZONE 'America/New_York') AS DATE)
                    AS VARCHAR) AS local_date,
               count(*) AS n
        FROM events GROUP BY ALL ORDER BY event_type, local_date""").df()
    assert got.equals(want), (got, want)

    # no single fixed offset reproduces this (-5h flips the 2024-07-01
    # 04:30 UTC row to June 30; -4h flips the 2024-01-15 04:59 UTC row
    # to Jan 15)
    for off in (-5 * 3600, -4 * 3600):
        fixed = relational.events_by_localdate(
            ray.data.from_arrow(t), tz_offset_s=off).to_pandas()
        fixed = fixed.sort_values(["event_type", "local_date"]) \
                     .reset_index(drop=True)
        assert not fixed.equals(want), off


def test_zone_transitions_match_zoneinfo_pointwise():
    from datetime import datetime, timezone
    from zoneinfo import ZoneInfo
    from onestools_eventlog_ray.pipelines.relational import zone_transitions

    trans = zone_transitions("Europe/Berlin", 2020, 2026)
    trans_us = np.asarray([t for t, _ in trans], dtype=np.int64)
    offs = np.asarray([o for _, o in trans], dtype=np.int64)
    tz = ZoneInfo("Europe/Berlin")
    rng = np.random.default_rng(3)
    secs = rng.integers(int(datetime(2020, 6, 1, tzinfo=timezone.utc).timestamp()),
                        int(datetime(2025, 6, 1, tzinfo=timezone.utc).timestamp()),
                        size=500)
    for s in secs.tolist():
        i = np.searchsorted(trans_us, s * 1_000_000, side="right") - 1
        want = int(datetime.fromtimestamp(s, tz).utcoffset().total_seconds())
        assert offs[i] == want, s


# ---------------------------------------------------------------------------
# event-driven continuous ingestion (CorpusWatcher)
# ---------------------------------------------------------------------------

def test_corpus_watcher_end_to_end(ray_session, tmp_path, small_corpus):
    """Drop a new parquet file -> next sync indexes it as a generation ->
    search returns its docs -> compaction preserves rank identity."""
    import pyarrow.parquet as pq
    from onestools_eventlog_ray import synth
    from onestools_eventlog_ray.config import EngineConfig
    from onestools_eventlog_ray.functions.hashing import doc_id_from_keys
    from onestools_eventlog_ray.pipelines.build import build_index
    from onestools_eventlog_ray.pipelines.incremental import (
        CorpusWatcher, compact_generations, list_generations)
    from onestools_eventlog_ray.pipelines.query import SearchEngine

    cfg = EngineConfig(num_partitions=8)
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    half = small_corpus.num_rows // 2
    pq.write_table(small_corpus.slice(0, half), str(corpus_dir / "p0.parquet"))

    w = CorpusWatcher(str(corpus_dir), str(tmp_path / "idx"), cfg=cfg)
    r1 = w.sync()
    assert r1["indexed_files"] == ["p0.parquet"]
    assert len(list_generations(str(tmp_path / "idx"))) == 1
    assert w.sync()["indexed_files"] == []          # noop round

    # drop a new partition file -> next sync picks it up automatically
    pq.write_table(small_corpus.slice(half), str(corpus_dir / "p1.parquet"))
    r2 = w.sync()
    assert r2["indexed_files"] == ["p1.parquet"]
    assert r2["generation_dir"].endswith("gen-0001")

    eng = SearchEngine(str(tmp_path / "idx"))
    new_ids = set(doc_id_from_keys(
        small_corpus.slice(half)["repo"], small_corpus.slice(half)["path"],
        small_corpus.slice(half)["commit"]).to_pylist())
    hits = {d for d, _ in eng.search(["def", "import"], 50)}
    assert hits & new_ids                           # new docs searchable

    # modifying an indexed file in place is refused (append-only contract)
    pq.write_table(small_corpus.slice(0, half + 3),
                   str(corpus_dir / "p0.parquet"))
    with pytest.raises(ValueError, match="append-only"):
        w.sync()
    pq.write_table(small_corpus.slice(0, half), str(corpus_dir / "p0.parquet"))

    # compaction: rank identity with the generational engine
    comp = compact_generations(str(tmp_path / "idx"),
                               str(tmp_path / "compact"), cfg=cfg)
    assert comp["n_generations"] == 2
    ce = SearchEngine(str(tmp_path / "compact"))
    for q in synth.reference_queries(small_corpus, n_queries=12):
        assert [d for d, _ in ce.search(q["terms"], q["k"])] \
            == [d for d, _ in eng.search(q["terms"], q["k"])], q


# ---------------------------------------------------------------------------
# leakage-safe split
# ---------------------------------------------------------------------------

def test_leakage_safe_split_keeps_twins_together(ray_session, tmp_path):
    """Every near-dup pair must land wholly inside one split — checked
    directly on the per-doc assignment rule against the cluster map."""
    from onestools_eventlog_ray.functions.fasthash import md5_lower64_one
    from onestools_eventlog_ray.pipelines.dedup import dedup_clusters
    from onestools_eventlog_ray.pipelines.mix import leakage_safe_split

    path = _dup_corpus(tmp_path, 120, "split")
    ds = ray.data.read_parquet(path)
    rep = leakage_safe_split(ds, DOCUMENTS_SPEC, min_jaccard=0.9).to_pandas()
    assert rep["n_docs"].sum() == 120
    # every doc is in a 2-doc cluster here
    assert rep["n_clustered_docs"].sum() == 120

    clusters = dedup_clusters(ray.data.read_parquet(path), DOCUMENTS_SPEC,
                              min_jaccard=0.9).to_pandas()
    # twins share rep_id -> share split key -> same split by construction;
    # verify the hash rule really groups them (no off-by-one in the map)
    by_rep = clusters.groupby("rep_id")["doc_id"].apply(list)
    for rep_id, members in by_rep.items():
        splits = {(md5_lower64_one(str(int(rep_id))) >> 1) % 10
                  for _ in members}
        assert len(splits) == 1
    # and the split totals follow the 80/10/10 hash rule exactly
    h = [(md5_lower64_one(str(int(r))) >> 1) % 10
         for r in clusters["rep_id"]]
    want_train = sum(1 for x in h if x < 8)
    got_train = int(rep.set_index("split")["n_docs"].get("train", 0))
    assert got_train == want_train


# ---------------------------------------------------------------------------
# PII scrubbing
# ---------------------------------------------------------------------------

def test_pii_scrub_planted(ray_session):
    from onestools_eventlog_ray.pipelines.text import pii_scrub

    docs = [
        "contact bob.smith+x@corp.example.com or call +1 (415) 555-0123",
        "server at 10.0.0.1 and 192.168.100.254; no mail",
        "two mails a@b.co c@d.io and ip 8.8.8.8",
        "nothing sensitive here",
    ]
    t = pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": pa.array(docs),
        "lang": pa.array(["en"] * 4),
        "source": pa.array(["s"] * 4),
        "n_chars": pa.array([len(d) for d in docs], pa.int64()),
    })
    out = pii_scrub(ray.data.from_arrow(t)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert list(out["text"]) == [
        "contact <EMAIL> or call <PHONE>",
        "server at <IP> and <IP>; no mail",
        "two mails <EMAIL> <EMAIL> and ip <IP>",
        "nothing sensitive here",
    ]
    assert list(out["n_email"]) == [1, 0, 2, 0]
    assert list(out["n_ipv4"]) == [0, 2, 1, 0]
    assert list(out["n_phone"]) == [1, 0, 0, 0]


# ---------------------------------------------------------------------------
# recursive JSON flatten
# ---------------------------------------------------------------------------

def test_json_flatten_recursive_paths(ray_session):
    from onestools_eventlog_ray.pipelines.relational import json_flatten
    docs = [
        '{"a": 1, "b": {"c": [2, {"d": "x"}, [3, 4]], "e": true}, "n": null}',
        '"bare"',                       # scalar root
        '{"empty_obj": {}, "empty_arr": []}',
        'not json at all',              # malformed -> no rows
        None,                           # NULL -> no rows
        '[10, [20, [30]]]',             # array root, deep nesting
    ]
    t = pa.table({"event_id": pa.array(range(len(docs)), pa.int64()),
                  "props": pa.array(docs, pa.string())})
    out = json_flatten(ray.data.from_arrow(t)).to_pandas()
    got = sorted(map(tuple, out.itertuples(index=False)))
    assert got == sorted([
        (0, "$.a", "1"), (0, "$.b.c[0]", "2"), (0, "$.b.c[1].d", '"x"'),
        (0, "$.b.c[2][0]", "3"), (0, "$.b.c[2][1]", "4"),
        (0, "$.b.e", "true"),
        (1, "$", '"bare"'),
        (5, "$[0]", "10"), (5, "$[1][0]", "20"), (5, "$[1][1][0]", "30"),
    ])


# ---------------------------------------------------------------------------
# real multimodal decoders (BMP / WAV) behind the Codec protocol
# ---------------------------------------------------------------------------

def test_struct_codec_bmp_hand_computed():
    from onestools_eventlog_ray.stages.multimodal import StructCodec, make_bmp
    # 3x2 RGB: known pixels, width 3 not divisible by 4 -> row padding
    px = np.array([[[255, 0, 0], [0, 255, 0], [0, 0, 255]],
                   [[0, 0, 0], [255, 255, 255], [128, 128, 128]]],
                  dtype=np.uint8)
    d = StructCodec().decode(make_bmp(px), "image")
    assert (d["width"], d["height"], d["n_frames"]) == (3, 2, 1)
    # decoded pixels round-trip exactly (BGR order, top-down)
    assert np.array_equal(d["pixels"][..., ::-1], px)
    f = d["feature"]
    want_b = (0 + 0 + 255 + 0 + 255 + 128) / 6 / 255   # blue channel mean
    assert abs(float(f[0]) - want_b) < 1e-6
    assert float(f[4]) == 0.0 and float(f[5]) == 1.0


def test_struct_codec_wav_hand_computed():
    from onestools_eventlog_ray.stages.multimodal import StructCodec, make_wav
    samples = np.array([0, 16384, -16384, 32767, -32768, 0, 8192, -8192],
                       dtype=np.int16)
    d = StructCodec().decode(make_wav(samples, rate=8000), "audio")
    assert (d["width"], d["height"]) == (-1, -1)
    assert d["n_frames"] == 8 and d["sample_rate"] == 8000
    assert np.array_equal(d["samples"], samples)
    f = d["feature"]
    s = samples.astype(np.float64) / 32768.0
    assert abs(float(f[1]) - np.sqrt((s * s).mean())) < 1e-6
    assert abs(float(f[7]) - 0.08) < 1e-7                 # rate/1e5 (f32)

    # video is a real decoder since round 5 (animated GIF); garbage
    # payloads fail the container check, unknown kinds stay explicit
    with pytest.raises(ValueError):
        StructCodec().decode(b"????", "video")
    with pytest.raises(NotImplementedError):
        StructCodec().decode(b"????", "hologram")


def test_media_pipeline_with_real_codec(ray_session):
    """media_features plumbing over planted BMP/WAV payloads with the
    REAL decoder — dims/frames come from actual header+body parses."""
    from onestools_eventlog_ray.stages.multimodal import (
        StructCodec, extract_media_features, make_bmp, make_wav)
    rng = np.random.default_rng(5)
    rows = []
    for i in range(6):
        if i % 2 == 0:
            w, h = 5 + i, 3 + i
            payload = make_bmp(rng.integers(0, 256, size=(h, w, 3),
                                            dtype=np.uint8))
            rows.append((i, "image", payload, w, h, 1))
        else:
            n = 100 + 7 * i
            payload = make_wav(rng.integers(-3000, 3000, size=n,
                                            dtype=np.int16))
            rows.append((i, "audio", payload, -1, -1, n))
    t = pa.table({
        "media_id": pa.array([r[0] for r in rows], pa.int64()),
        "kind": pa.array([r[1] for r in rows]),
        "payload": pa.array([r[2] for r in rows], pa.large_binary()),
        "source_path": pa.array([f"m/{r[0]}" for r in rows]),
    })
    out = extract_media_features(ray.data.from_arrow(t), batch_size=2,
                                 codec_factory=StructCodec).to_pandas() \
        .sort_values("media_id").reset_index(drop=True)
    assert list(out["width"]) == [r[3] for r in rows]
    assert list(out["height"]) == [r[4] for r in rows]
    assert list(out["n_frames"]) == [r[5] for r in rows]
    assert "payload" not in out.columns            # dropped at the boundary


def test_verified_pairs_values_exact_on_known_dups(ray_session, tmp_path):
    """3x duplicated doc -> all 3 pairs at jaccard_e6 == 1_000_000."""
    texts = ["one two three four five six seven eight nine ten"] * 3 + \
            ["completely different words here about another topic entirely"]
    t = pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * 4),
        "source": pa.array(["s"] * 4),
        "n_chars": pa.array([len(x) for x in texts], pa.int64()),
    })
    p = str(tmp_path / "tri.parquet")
    pq.write_table(t, p)
    pairs = dedup_mod.minhash_verified_pairs(
        ray.data.read_parquet(p), DOCUMENTS_SPEC, min_jaccard=0.5).to_pandas()
    got = {(a, b): j for a, b, j in
           zip(pairs["doc_a"], pairs["doc_b"], pairs["jaccard_e6"])}
    assert got == {(0, 1): 1_000_000, (0, 2): 1_000_000, (1, 2): 1_000_000}
