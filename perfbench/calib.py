"""A fixed reference computation that measures how fast the host runs
right now.

On a shared virtual machine the CPU time one piece of work takes drifts by
a quarter or more over minutes, with the load of other guests (cache,
memory bandwidth, sibling hyperthreads). It also swings by a quarter from one
tenth of a second to the next. The benchmark therefore runs this
reference, which is benchmark code and never changes with the engine,
right before each engine operation it measures, and reports each engine
cost in *reference units*: the operation's CPU seconds divided by the
mean CPU seconds of the reference ops nearest to it in time (those run
just before it and a few on either side). A slower host slows both and the
ratio stays put; a slower engine moves only the numerator. Medians
(ingest) and interquartile means (reads) of these per-operation ratios
are the benchmark's cost metrics.

One reference op has two parts, because the engine's cost swings with
the host far more than one thread's compute does: much of it is Ray's
messaging between processes, which a busy host slows most.

* local: in one thread of the benchmark process, the kinds of work the
  engine's hot paths do -- a Parquet decode and encode, an Arrow sort,
  take and group-by, and a Python loop over row dicts building strings
  (about 60 ms of CPU on a 2020s server core);
* fan-out: 16 small Ray tasks, each sorting a 5000-row table from the
  object store, and their results gathered; timed as CPU of the
  benchmark process and its Ray processes, like the engine's operations
  (about 0.1 s).
"""

from __future__ import annotations

import gc
import io
import statistics
import time

from session import TreeCpu

_N = 20_000
_INPUT: bytes | None = None
_FANOUT_TASKS = 16
_SORT_SLICE = None


def _input() -> bytes:
    """The reference's Parquet input, built once per process, untimed."""
    global _INPUT
    if _INPUT is None:
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        rng = np.random.default_rng(20201)
        conv = rng.integers(0, 4_000, _N)
        t = pa.table({
            "conv_id": pa.array([f"conv-{c:06d}" for c in conv]),
            "turn_idx": pa.array(rng.integers(0, 32, _N), pa.int32()),
            "lsn": pa.array(rng.permutation(_N), pa.int64()),
            "score": pa.array(rng.random(_N)),
            "text": pa.array([f"turn {i} of {c}" for i, c in enumerate(conv)]),
        })
        sink = io.BytesIO()
        pq.write_table(t, sink)
        _INPUT = sink.getvalue()
    return _INPUT


def reference_op() -> int:
    """One reference op; returns a checksum so no step can be skipped."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    t = pq.read_table(io.BytesIO(_input()), use_threads=False)
    idx = pc.sort_indices(t, sort_keys=[("conv_id", "ascending"),
                                        ("turn_idx", "ascending"),
                                        ("lsn", "descending")])
    t = t.take(idx)
    g = t.group_by(["conv_id", "turn_idx"], use_threads=False).aggregate(
        [("lsn", "max"), ("score", "sum")])
    sink = io.BytesIO()
    pq.write_table(g, sink)
    latest: dict = {}
    for r in t.slice(0, _N // 4).to_pylist():
        latest[(r["conv_id"], r["turn_idx"])] = f"<turn lsn='{r['lsn']}'>{r['text']}</turn>"
    return g.num_rows + len(latest) + sink.tell()


def _sort_slice():
    global _SORT_SLICE
    if _SORT_SLICE is None:
        import ray

        @ray.remote
        def sort_slice(t):
            import pyarrow.compute as pc

            return t.take(pc.sort_indices(t, sort_keys=[("k", "ascending")])).slice(0, 100)

        _SORT_SLICE = sort_slice
    return _SORT_SLICE


class Reference:
    """CPU seconds of the reference ops a run makes. Each op
    is timed on the calling thread's own clock, so the Ray threads of
    this process are not counted, with the garbage collector off, so a
    collection of the engine's garbage is not either."""

    def __init__(self) -> None:
        self.cpu_s: list[float] = []
        self._table = None
        _input()
        reference_op()  # warm imports and allocator

    def new_session(self) -> None:
        """Put the fan-out input into a fresh Ray session's object store
        and warm the task up."""
        import numpy as np
        import pyarrow as pa
        import ray

        rng = np.random.default_rng(20202)
        self._table = ray.put(pa.table({"k": rng.integers(0, 1000, 5000),
                                        "v": rng.random(5000)}))
        for _ in range(2):
            self._op()

    def _op(self) -> float:
        import ray

        gc.disable()
        try:
            c0 = time.thread_time()
            reference_op()
            local = time.thread_time() - c0
        finally:
            gc.enable()
        cpu = TreeCpu()
        cpu.start()
        task = _sort_slice()
        ray.get([task.remote(self._table) for _ in range(_FANOUT_TASKS)])
        return local + cpu.stop()

    def run(self, n: int = 1) -> tuple[int, int]:
        """Run ``n`` reference ops; returns their index range in
        ``cpu_s``."""
        first = len(self.cpu_s)
        for _ in range(n):
            self.cpu_s.append(self._op())
        return first, len(self.cpu_s)

    def around(self, span: tuple[int, int], reach: int = 2) -> float:
        """Mean CPU seconds of the reference ops in ``span`` and ``reach``
        more on either side: the reference for an operation measured
        right after ``span``."""
        first, end = span
        return statistics.mean(self.cpu_s[max(0, first - reach):end + reach])
