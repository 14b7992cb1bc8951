"""The one cache for derived artifacts the queries keep between calls:
replayed lakes, kmeans centroids and assignments, verified pair graphs
and the four physical indexes (ivf, ndlsh, pq, textidx).

An entry is a directory ``ROOT/<family>-<path-hash>-<content-hash>``.
The path hash names the corpus directory, so eviction can stay inside
one corpus. The content hash covers :data:`FORMAT_VERSION`, the
family's parameters and ``(basename, size, mtime_ns)`` of every parquet
file of the source table, so regenerating a corpus in place yields a
new entry instead of serving a stale one.

An entry becomes visible only through one atomic ``os.rename`` of a
private build directory (:func:`get_or_build`) and is never written
again. After every publish one sweep over the root removes:

- a superseded entry (same family and corpus, not the newest) once its
  successor has been published for more than :data:`STALE_S`, so
  readers holding lazy refs into it from before the successor appeared
  can finish;
- ``.build-*`` directories older than :data:`STALE_S`, which only a
  killed builder leaves behind (live builds are minutes old).

Other corpora's entries are never touched, and sweep errors are
ignored: housekeeping never fails a query.
"""

from __future__ import annotations

import glob
import hashlib
import os
import shutil
import tempfile
import time

ROOT = os.path.join(tempfile.gettempdir(), "irr-cache")
FORMAT_VERSION = 1  # bump when the entry layout changes
STALE_S = 3600


def _path_hash(sf_dir: str) -> str:
    return hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:10]


def entry(family: str, sf_dir: str, source: str, params: str) -> str:
    """Path of the entry for ``family`` built from the table ``source``
    (a parquet file or a directory of parts) under ``sf_dir``, with
    every kernel parameter baked into the result in ``params``."""
    src = os.path.join(sf_dir, source)
    files = [src] if os.path.isfile(src) else sorted(
        glob.glob(os.path.join(src, "*.parquet")))
    h = hashlib.sha1(f"{FORMAT_VERSION}|{params}".encode())
    for p in files:
        st = os.stat(p)
        h.update(f"|{os.path.basename(p)}:{st.st_size}:{st.st_mtime_ns}".encode())
    return os.path.join(
        ROOT, f"{family}-{_path_hash(sf_dir)}-{h.hexdigest()[:12]}")


def get_or_build(path: str, build, load):
    """``load(path)`` if the entry exists. Otherwise ``build(tmp)``
    fills a private directory that is then renamed to ``path``, and
    build's return value is returned (no re-read). A builder that loses
    the rename race to a concurrent one discards its directory; a build
    that raises leaves nothing behind."""
    if os.path.isdir(path):
        return load(path)
    root = os.path.dirname(path)
    family = os.path.basename(path).rsplit("-", 2)[0]
    os.makedirs(root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f".build-{family}-", dir=root)
    try:
        out = build(tmp)
        try:
            os.rename(tmp, path)
            os.utime(path)  # the publish time the sweep's age gate reads
        except OSError:  # a concurrent builder won the publish race
            shutil.rmtree(tmp, ignore_errors=True)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    _sweep(root)
    return out


def _sweep(root: str) -> None:
    now = time.time()
    try:
        names = os.listdir(root)
    except OSError:
        return
    groups: dict[str, list] = {}
    for name in names:
        path = os.path.join(root, name)
        try:
            mtime = os.stat(path).st_mtime
        except OSError:
            continue
        if name.startswith(".build-"):
            if now - mtime > STALE_S:
                shutil.rmtree(path, ignore_errors=True)
        else:  # group key: <family>-<path-hash>
            groups.setdefault(name.rsplit("-", 1)[0], []).append((mtime, path))
    for group in groups.values():
        group.sort()
        for (_, old), (published, _) in zip(group, group[1:]):
            if now - published > STALE_S:
                shutil.rmtree(old, ignore_errors=True)


def purge(sf_dir: str) -> None:
    """Drop every entry built from ``sf_dir`` (fresh-route timing)."""
    tag = f"-{_path_hash(sf_dir)}-"
    try:
        names = os.listdir(ROOT)
    except OSError:
        return
    for name in names:
        if tag in name and not name.startswith("."):
            shutil.rmtree(os.path.join(ROOT, name), ignore_errors=True)


# ---- partition refs at rest: one parquet shard per ref, in ref order ----
# Parquet round-trips int64/float64 bit-exactly and shard order is the
# ref order, so cached and fresh refs are bit-identical downstream.


def _read_part(path: str):
    import pyarrow.parquet as pq

    return pq.read_table(path)


def _write_part(t, path: str) -> None:
    import pyarrow.parquet as pq

    from .state.manifest import PARQUET_OPTS

    pq.write_table(t, path, **PARQUET_OPTS)


_REMOTES: dict = {}


def _remote(fn):
    if fn not in _REMOTES:
        import ray

        _REMOTES[fn] = ray.remote(fn)
    return _REMOTES[fn]


def write_refs(refs: list, out_dir: str) -> list:
    """Write each ref's table to ``out_dir/part-NNNNN.parquet``; returns
    ``refs`` so a build callback can hand them straight back."""
    import ray

    write = _remote(_write_part)
    ray.get([write.remote(r, os.path.join(out_dir, f"part-{i:05d}.parquet"))
             for i, r in enumerate(refs)])
    return refs


def read_refs(in_dir: str) -> list:
    """Lazy refs over the shards :func:`write_refs` wrote, in order."""
    read = _remote(_read_part)
    names = sorted(n for n in os.listdir(in_dir) if n.endswith(".parquet"))
    return [read.remote(os.path.join(in_dir, n)) for n in names]
