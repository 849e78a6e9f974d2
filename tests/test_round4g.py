"""Round-4g: ES point-in-time (PIT) search over tombstone snapshots.

The reference's ElasticSearch sink exposes PIT search (consistent view
across paginated queries while deletes land concurrently).  Our shards
and docstore are immutable and tombstone files are content-named and
append-only, so a PIT is just the pinned tombstone-file listing —
deletes after the PIT add files the PIT never reads.
"""

import numpy as np
import pytest

from onestools_eventlog_ray.config import EngineConfig
from onestools_eventlog_ray.pipelines.build import build_index
from onestools_eventlog_ray.pipelines.query import SearchEngine, search_pit
from onestools_eventlog_ray.state.tombstones import (
    PitInvalidError, clear_tombstones, delete_docs, load_tombstones_at,
    open_pit)

CFG = EngineConfig(num_partitions=8)


@pytest.fixture(scope="module")
def pit_index(tmp_path_factory, small_corpus_dir):
    index_dir = str(tmp_path_factory.mktemp("pit_index"))
    build_index(small_corpus_dir, index_dir, cfg=CFG)
    return index_dir


def test_pit_on_fresh_index_is_empty(pit_index):
    pit = open_pit(pit_index)
    assert pit == {"tombstone_files": []}
    assert load_tombstones_at(pit_index, pit).size == 0


def test_pit_pins_delete_state(pit_index):
    terms = ["def", "import"]
    eng = SearchEngine(pit_index)
    before = eng.search(terms, 10)
    assert before

    pit0 = open_pit(pit_index)           # snapshot BEFORE any delete
    victims = [before[0][0], before[1][0]]
    delete_docs(pit_index, victims)

    # live search (fresh engine) excludes the victims
    live = SearchEngine(pit_index).search(terms, 10)
    assert not set(victims) & {d for d, _ in live}

    # PIT search time-travels: identical to the pre-delete ranking
    assert search_pit(pit_index, pit0, terms, 10) == before

    # a PIT opened AFTER the delete sees it
    pit1 = open_pit(pit_index)
    assert len(pit1["tombstone_files"]) == 1
    assert search_pit(pit_index, pit1, terms, 10) == live
    assert np.array_equal(
        load_tombstones_at(pit_index, pit1),
        np.unique(np.asarray(victims, dtype=np.int64)))

    # the old PIT keeps working while MORE deletes land (append-only)
    delete_docs(pit_index, [live[0][0]])
    assert search_pit(pit_index, pit0, terms, 10) == before
    assert search_pit(pit_index, pit1, terms, 10) == live


def test_pit_invalidated_by_compaction(pit_index):
    pit = open_pit(pit_index)
    assert pit["tombstone_files"]
    clear_tombstones(pit_index)          # the segment-merge analog
    with pytest.raises(PitInvalidError):
        load_tombstones_at(pit_index, pit)
    with pytest.raises(PitInvalidError):
        search_pit(pit_index, pit, ["def"], 5)
    # a fresh PIT over the compacted state is valid again
    assert load_tombstones_at(pit_index, open_pit(pit_index)).size == 0
