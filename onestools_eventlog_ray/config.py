"""Engine configuration.

Analog of the reference's ``EventLogExporterSettings``
(``/root/reference/OneSTools.EventLog.Exporter.Core/EventLogExporterSettings.cs:6-17``
— Portion, WritingMaxDop, CollectedFactor, ...): one dataclass holding
every knob of the build/query pipelines, so tests and bench runs are
fully reproducible from a config value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Any


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75


@dataclass(frozen=True)
class EngineConfig:
    # ---- analyzer ----------------------------------------------------
    # Canonical code tokenizer: lowercase, split on runs of characters
    # outside [a-z0-9_], drop empty tokens.  Must stay in lock-step with
    # the DuckDB oracle expression in __ray_entry__.oracle_sql().
    token_split_pattern: str = r"[^a-z0-9_]+"

    # ---- index layout ------------------------------------------------
    num_partitions: int = 32          # P: posting shards = hash(term) % P
    block_size: int = 128             # docs per posting block (block-skip unit)

    # ---- skew handling (north_rule: explicit salting of hot terms) ---
    # Prepass-free UNIVERSAL fixed-range salting: every term is split
    # into up to S doc_id-high-bit ranges (S a power of two), so a hot
    # term spreads over S encode tasks with no df estimate at all; small
    # fragmented postings are re-encoded at merge.  ``salt_ranges`` is
    # the floor of S; with a corpus row estimate S scales up to
    # ceil(N / salt_target_run), capped at ``max_salts``.  (Dense
    # externally-supplied doc_ids occupy the low end of the 63-bit
    # space, so range salting degenerates to one run — only the
    # hash-derived id path gets spreading.)
    salt_ranges: int = 4
    salt_target_run: int = 100_000
    max_salts: int = 64

    # ---- scoring -----------------------------------------------------
    bm25: Bm25Params = field(default_factory=Bm25Params)

    # ---- docstore ----------------------------------------------------
    store_content: bool = True        # keep raw content in the docstore
                                      # (needed for the sha256 per-row invariant audit)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "EngineConfig":
        d = dict(d)
        bm25 = d.pop("bm25", None)
        cfg = EngineConfig(**d) if bm25 is None else EngineConfig(**d, bm25=Bm25Params(**bm25))
        return cfg
