"""Lineage-metric registry tests: dispatch + error model (the reference's
hash-dispatcher discipline, /root/reference/ir:126-227), selection DSL over
the registry, and end-to-end XML emission."""

from __future__ import annotations

import pyarrow as pa
import pytest

from image_report_ray.codec import rle_decode
from image_report_ray.functions.metrics import (
    METRIC_CATEGORIES,
    METRIC_REGISTRY,
    MetricResult,
    compute_metrics,
    select_metrics,
)
from image_report_ray.state.merge import changes_to_state_rows


def _state(rows) -> pa.Table:
    changes = pa.Table.from_pylist(rows)
    return changes_to_state_rows(changes)


STATE = _state(
    [
        {"lsn": 1, "op": "I", "conv_id": "a", "turn_idx": 0, "role": "user",
         "text": "hello world", "tool": None, "ts": None},
        {"lsn": 2, "op": "I", "conv_id": "a", "turn_idx": 1, "role": "assistant",
         "text": "hi", "tool": None, "ts": None},
        {"lsn": 3, "op": "I", "conv_id": "b", "turn_idx": 0, "role": "tool",
         "text": "out", "tool": "search", "ts": None},
        {"lsn": 4, "op": "D", "conv_id": "b", "turn_idx": 1, "role": None,
         "text": None, "tool": None, "ts": None},
    ]
)


def test_selection_grammar_over_registry():
    assert select_metrics("all") == set(METRIC_REGISTRY)
    assert select_metrics("none") == set()
    assert select_metrics("profiles") == METRIC_CATEGORIES["profiles"]
    assert select_metrics("all,-profiles,turn_profile") == (
        set(METRIC_REGISTRY) - METRIC_CATEGORIES["profiles"] | {"turn_profile"}
    )


def test_turn_profile_counts_live_rows_only():
    res, computed, failed = compute_metrics(STATE, {"turn_profile"})
    assert failed == 0 and computed == 1
    prof = rle_decode(res["turn_profile"].text)
    assert prof == [2, 1]  # turn 0: a+b live; turn 1: only a (b tombstoned)


def test_live_row_metrics_ignore_tombstoned_rows():
    """Every metric that reads live rows reads the same on the state and
    on its live rows alone, whichever way the live filter is applied;
    only the two over all keys (lsn span, live ratio) differ."""
    import pyarrow.compute as pc

    from image_report_ray.sources.synth import gen_epoch
    from image_report_ray.state.merge import merge_state_with_changes

    state, _ = merge_state_with_changes(
        None, gen_epoch(0, 600, seed=3, n_convs=20, max_turns=6)
    )
    live = state.filter(pc.invert(state.column("_deleted")))
    assert 0 < live.num_rows < state.num_rows
    names = set(METRIC_REGISTRY) - {"lsn_span", "live_ratio"}
    got, _, failed = compute_metrics(state, names)
    want, _, _ = compute_metrics(live, names)
    assert failed == 0
    assert {n: (r.text, r.attrs) for n, r in got.items()} == {
        n: (r.text, r.attrs) for n, r in want.items()
    }


def test_role_and_tool_counts():
    res, _, _ = compute_metrics(STATE, {"role_counts", "tool_counts"})
    assert res["role_counts"].text == "assistant:1 tool:1 user:1"
    assert res["tool_counts"].text == "search:1"


def test_scalars():
    res, _, _ = compute_metrics(STATE, {"lsn_span", "live_ratio"})
    assert res["lsn_span"].attrs == {"min": 1, "max": 4}
    assert res["live_ratio"].attrs == {"bp": 7500}


def test_empty_state_sentinels_counted_as_failures():
    empty = STATE.slice(0, 0)
    res, computed, failed = compute_metrics(empty, {"lsn_span", "text_digest_xor"})
    assert computed == 0 and failed == 2
    assert res["lsn_span"].attrs["status"].startswith("failed: lsn_span_empty")


def test_unexpected_exception_recorded_not_raised(monkeypatch):
    def boom(state):
        raise RuntimeError("kaboom")

    monkeypatch.setitem(METRIC_REGISTRY, "turn_profile", boom)
    res, computed, failed = compute_metrics(STATE, {"turn_profile", "lsn_span"})
    assert failed == 1 and computed == 1
    assert "kaboom" in res["turn_profile"].attrs["status"]


def test_metrics_flow_into_lineage_xml(ray_session, tmp_path):
    from image_report_ray.config import EngineConfig
    from image_report_ray.pipelines.cdc import run_job
    from image_report_ray.sources.synth import write_wal
    from image_report_ray.state.manifest import Lake
    from image_report_ray.xmlreport import read_report

    wal = str(tmp_path / "wal")
    write_wal(wal, n_epochs=1, epoch_size=300, seed=13, n_convs=20, max_turns=6)
    lake_dir = str(tmp_path / "lake")
    run_job(lake_dir, wal, EngineConfig(num_partitions=2, metrics="all,-digests"))
    lake = Lake(lake_dir)
    pid = next(iter(lake.current_entries()))
    root = read_report(lake.lineage_path(0, pid))
    msec = root.find("metrics")
    assert msec is not None
    names = {m.get("name") for m in msec.findall("metric")}
    assert names == set(METRIC_REGISTRY) - METRIC_CATEGORIES["digests"]
    assert int(msec.get("computed_count")) + int(msec.get("failed_count")) == len(names)
    tp = [m for m in msec.findall("metric") if m.get("name") == "turn_profile"][0]
    assert tp.get("encoding") == "rle"
    assert rle_decode(tp.text)  # decodable, non-empty


def test_textmetrics_registered_and_selectable():
    from image_report_ray.functions.metrics import (
        METRIC_CATEGORIES,
        METRIC_REGISTRY,
        select_metrics,
    )

    assert {"simhash_digest", "minhash_digest", "fingerprint_digest",
            "token_totals"} <= set(METRIC_REGISTRY)
    assert select_metrics("textmetrics") == METRIC_CATEGORIES["textmetrics"]
    # not part of the default basic selection (commit-time cost is opt-in)
    assert not (select_metrics("basic") & METRIC_CATEGORIES["textmetrics"])
    assert "simhash_digest" in select_metrics("all,-profiles")


def test_textmetrics_deterministic_and_order_independent():
    import pyarrow as pa

    from image_report_ray.functions.metrics import compute_metrics

    state = pa.table(
        {
            "conv_id": pa.array(["a", "b", "c"]),
            "turn_idx": pa.array([0, 0, 0], pa.int32()),
            "text": pa.array(["the quick brown fox jumps over it",
                              "pack my box with five dozen jugs",
                              "sphinx of black quartz judge my vow"]),
            "_lsn": pa.array([1, 2, 3], pa.int64()),
            "_deleted": pa.array([False, False, True]),
        }
    )
    sel = {"simhash_digest", "minhash_digest", "fingerprint_digest", "token_totals"}
    res, computed, failed = compute_metrics(state, sel)
    assert computed == 4 and failed == 0
    perm = state.take(pa.array([1, 0, 2]))
    res2, _, _ = compute_metrics(perm, sel)
    for name in sel:
        assert res[name].text == res2[name].text, name
        assert res[name].attrs == res2[name].attrs, name
    # tombstoned row excluded: token totals cover live rows only
    assert res["token_totals"].attrs["tokens"] == 14


def test_textmetrics_empty_state_fails_softly():
    import pyarrow as pa

    from image_report_ray.functions.metrics import compute_metrics

    state = pa.table(
        {"conv_id": pa.array([], pa.string()),
         "turn_idx": pa.array([], pa.int32()),
         "text": pa.array([], pa.string()),
         "_lsn": pa.array([], pa.int64()),
         "_deleted": pa.array([], pa.bool_())}
    )
    res, computed, failed = compute_metrics(
        state, {"simhash_digest", "minhash_digest", "fingerprint_digest"}
    )
    assert failed == 3
    assert all("empty_input" in r.attrs.get("status", "") for r in res.values())
