"""The cache module's publish and eviction rules, with a trivial build
(one marker file) — no Ray needed."""

import os
import time

import pytest

from image_report_ray import cache


@pytest.fixture
def root(tmp_path, monkeypatch):
    r = str(tmp_path / "root")
    monkeypatch.setattr(cache, "ROOT", r)
    return r


def _corpus(tmp_path, name: str, payload: bytes) -> str:
    d = tmp_path / name
    d.mkdir(exist_ok=True)
    (d / "t.parquet").write_bytes(payload)
    return str(d)


def _publish(sf_dir: str, family: str = "fam") -> str:
    """Build (or reuse) the corpus's entry; returns its path."""
    path = cache.entry(family, sf_dir, "t.parquet", "p=1")

    def build(tmp):
        with open(os.path.join(tmp, "marker"), "w") as f:
            f.write(path)
        return "built"

    cache.get_or_build(path, build, lambda p: "loaded")
    return path


def _backdate(path: str, seconds: float) -> None:
    t = time.time() - seconds
    os.utime(path, (t, t))


def _names(root: str) -> set:
    return set(os.listdir(root))


def test_entry_fingerprints_content_and_params(tmp_path, root):
    sf = _corpus(tmp_path, "a", b"v1")
    e = cache.entry("fam", sf, "t.parquet", "p=1")
    assert os.path.dirname(e) == root
    assert e == cache.entry("fam", sf, "t.parquet", "p=1")
    assert e != cache.entry("fam", sf, "t.parquet", "p=2")
    # a directory of parts fingerprints every part
    parts = tmp_path / "a" / "d.parquet"
    parts.mkdir()
    (parts / "part-0.parquet").write_bytes(b"x")
    d1 = cache.entry("fam", sf, "d.parquet", "p=1")
    (parts / "part-1.parquet").write_bytes(b"y")
    assert cache.entry("fam", sf, "d.parquet", "p=1") != d1


def test_get_or_build_loads_a_published_entry(tmp_path, root):
    sf = _corpus(tmp_path, "a", b"v1")
    path = cache.entry("fam", sf, "t.parquet", "p=1")
    calls = []

    def build(tmp):
        calls.append(tmp)
        open(os.path.join(tmp, "marker"), "w").close()
        return "built"

    assert cache.get_or_build(path, build, lambda p: "loaded") == "built"
    assert cache.get_or_build(path, build, lambda p: "loaded") == "loaded"
    assert len(calls) == 1 and os.path.exists(os.path.join(path, "marker"))


def test_superseded_entry_waits_for_successor_age(tmp_path, root):
    sf = _corpus(tmp_path, "a", b"v1")
    old = _publish(sf)
    _corpus(tmp_path, "a", b"v2-regenerated")
    new = _publish(sf)
    assert old != new
    # the successor is fresh: readers of the old entry may be in flight
    assert os.path.isdir(old) and os.path.isdir(new)

    other = _publish(_corpus(tmp_path, "b", b"other"))
    _backdate(other, 5 * cache.STALE_S)  # old, but its corpus's newest
    _backdate(old, 3 * cache.STALE_S)
    _backdate(new, 2 * cache.STALE_S)
    _publish(_corpus(tmp_path, "c", b"third"))  # any publish sweeps
    assert not os.path.exists(old)
    assert os.path.isdir(new)
    assert os.path.isdir(other)


def test_stale_build_dirs_are_swept(tmp_path, root):
    os.makedirs(os.path.join(root, ".build-fam-fresh"))
    os.makedirs(os.path.join(root, ".build-fam-old"))
    _backdate(os.path.join(root, ".build-fam-old"), cache.STALE_S + 60)
    path = _publish(_corpus(tmp_path, "a", b"v1"))
    assert _names(root) == {".build-fam-fresh", os.path.basename(path)}


def test_failed_build_leaves_nothing(tmp_path, root):
    sf = _corpus(tmp_path, "a", b"v1")
    path = cache.entry("fam", sf, "t.parquet", "p=1")

    def build(tmp):
        open(os.path.join(tmp, "half-written"), "w").close()
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        cache.get_or_build(path, build, lambda p: "loaded")
    assert _names(root) == set()


def test_lost_rename_race_keeps_the_winner(tmp_path, root):
    sf = _corpus(tmp_path, "a", b"v1")
    path = cache.entry("fam", sf, "t.parquet", "p=1")

    def build(tmp):
        # a concurrent builder publishes first
        os.makedirs(path)
        with open(os.path.join(path, "winner"), "w") as f:
            f.write("w")
        open(os.path.join(tmp, "loser"), "w").close()
        return "built"

    assert cache.get_or_build(path, build, lambda p: "loaded") == "built"
    assert _names(root) == {os.path.basename(path)}
    assert os.listdir(path) == ["winner"]


def test_purge_drops_only_that_corpus(tmp_path, root):
    a = _corpus(tmp_path, "a", b"v1")
    b = _corpus(tmp_path, "b", b"v1")
    ea, ea2, eb = _publish(a), _publish(a, "fam2"), _publish(b)
    cache.purge(a)
    assert not os.path.exists(ea) and not os.path.exists(ea2)
    assert os.path.isdir(eb)
