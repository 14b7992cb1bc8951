"""Shared fixtures. Ray is initialised ONCE per pytest session."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session", autouse=True)
def _private_cache_root(tmp_path_factory):
    """Every cache entry the suite builds lands in a fresh directory: no
    test passes on a warm entry left by an earlier run or by bench.py,
    and the shared temp-dir root is never written."""
    from image_report_ray import cache

    root = cache.ROOT
    cache.ROOT = str(tmp_path_factory.mktemp("irr-cache"))
    yield
    cache.ROOT = root


@pytest.fixture(scope="session")
def ray_session():
    import os

    import ray

    # see bench.py: numpy's hugepage madvise stalls on THP compaction
    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def views_match_state():
    """``check(root, names)``: every partition of the lake at ``root``
    carries each view in ``names``, staged with its composition's base
    file and equal to a full recompute from it (the base is the whole
    committed state unless merge-on-read deltas follow it, whose entries
    carry the base's view)."""
    import os

    import pyarrow.parquet as pq

    from image_report_ray.state.manifest import Lake, read_composition
    from image_report_ray.state.views import maintain_view

    def check(root: str, names) -> None:
        lake = Lake(root)
        sets = lake.current_file_sets()
        assert sets, root
        stage = lambda p: os.path.basename(os.path.dirname(p))  # noqa: E731
        for name in names:
            views = lake.current_view_files(name)
            assert sorted(views) == sorted(sets), (root, name)
            for pid, path in views.items():
                assert stage(path) == stage(sets[pid][0]), (root, name, pid)
                want = maintain_view(name, read_composition(sets[pid][:1]))
                assert pq.read_table(path).equals(want), (root, name, pid)

    return check
