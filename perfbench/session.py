"""Ray session lifetime and process accounting for the benchmark.

Every set-up starts a fresh local Ray session sized to the CPUs this
process may run on, with a capped object store and its temp directory
inside the benchmark's own directory. Stopping a session waits until every
process it started has exited. Process data comes from ``/proc``.
"""

from __future__ import annotations

import os
import signal
import sys
import tempfile
import threading
import time

OBJECT_STORE_BYTES = 256 * 1024 * 1024
# Ray's socket paths add ~64 bytes under the temp dir; AF_UNIX allows 107.
_SOCKET_SUFFIX = 64


def host_cpus() -> int:
    return len(os.sched_getaffinity(0))


def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies summed over all CPUs, from ``/proc/stat``.
    Steal is time the hypervisor gave this machine's CPUs to others."""
    with open("/proc/stat") as f:
        vals = [int(x) for x in f.readline().split()[1:9]]
    return vals[7], sum(vals)


def steal_frac(t0: tuple[int, int], t1: tuple[int, int]) -> float:
    return (t1[0] - t0[0]) / max(t1[1] - t0[1], 1)


def _proc_cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def _pids() -> list[int]:
    return [int(p) for p in os.listdir("/proc") if p.isdigit()]


def _ppid(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[1])
    except (OSError, IndexError, ValueError):
        return 0


def _ancestors(pid: int) -> set[int]:
    """``pid`` and every process above it."""
    out = set()
    while pid > 0 and pid not in out:
        out.add(pid)
        pid = _ppid(pid)
    return out


def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for pid in _pids():
        children.setdefault(_ppid(pid), []).append(pid)
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def process_cpu_s(pid: int) -> float | None:
    """CPU seconds all threads of ``pid`` have run, from the kernel's
    per-process CPU clock (``MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)``).
    With paravirtual time accounting this leaves out time the hypervisor
    gave to other guests, and it never counts time spent waiting for a
    CPU. None once the process has gone."""
    try:
        return time.clock_gettime((~pid << 3) | 2)
    except OSError:
        return None


def _engine_process(pid: int) -> bool:
    """A Ray process that does the engine's work: a worker (``ray::``
    title), the raylet or the GCS. Ray's helper processes (log monitor,
    agents, autoscaler monitor) only poll, so they are left out."""
    cmd = _proc_cmdline(pid)
    exe = os.path.basename(cmd.split(" ", 1)[0])
    return cmd.startswith("ray::") or exe in ("raylet", "gcs_server")


class TreeCpu:
    """CPU seconds used between ``start()`` and ``stop()`` by this process
    and the Ray processes below it that do the engine's work. A process
    born in between counts from its birth. Each end reads this process's
    own clock on the inside of the ``/proc`` walk, so the walk is not
    counted."""

    def start(self) -> None:
        self._t0 = {p: process_cpu_s(p) for p in _descendants(os.getpid())
                    if _engine_process(p)}
        self._me0 = time.process_time()

    def stop(self) -> float:
        total = time.process_time() - self._me0
        for p in _descendants(os.getpid()):
            if _engine_process(p):
                c = process_cpu_s(p)
                if c is not None:
                    total += c - (self._t0.get(p) or 0.0)
        return total


def _pss_bytes(pid: int) -> int:
    """Proportional set size: resident bytes with each shared page split
    between its sharers, so a sum over processes counts it once."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Session:
    """One benchmark process's Ray sessions (started and stopped in turn)."""

    def __init__(self, bench_dir: str, repo_root: str) -> None:
        self.repo_root = repo_root
        self.num_cpus = host_cpus()
        tmp = os.path.join(bench_dir, ".ray")
        self._own_tmp = None
        if len(tmp) + _SOCKET_SUFFIX > 107:
            # the checkout path is too long for Unix sockets under it
            self._own_tmp = tempfile.mkdtemp(prefix="pbray")
            tmp = self._own_tmp
            print(f"perfbench: Ray temp dir {tmp} (checkout path too long)",
                  file=sys.stderr)
        self.temp_dir = tmp
        # Loading Ray's modules (~1 s) is a cost of the process, paid once,
        # not of a session: done here, every timed set-up does the same work.
        import ray.data  # noqa: F401

    def _kill_stale(self) -> None:
        """Kill processes of an earlier session under our temp dir (a
        crashed run in this checkout), so every session starts fresh."""
        mine = _ancestors(os.getpid())  # a shell may name the dir too
        stale = [p for p in _pids()
                 if p not in mine and self.temp_dir in _proc_cmdline(p)]
        for p in stale:
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
        self._wait_gone(stale, 10.0)

    def start(self) -> None:
        import ray

        os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
        self._kill_stale()
        os.makedirs(self.temp_dir, exist_ok=True)
        # Workers inherit this process's environment: with the repo root on
        # PYTHONPATH they import the engine from any working directory, and
        # the workers Ray prestarts stay usable (a runtime_env would not).
        paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if self.repo_root not in paths:
            os.environ["PYTHONPATH"] = os.pathsep.join(
                p for p in [self.repo_root, *paths] if p)
        ray.init(
            address="local",
            num_cpus=self.num_cpus,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            _temp_dir=self.temp_dir,
        )
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False

    def stop(self) -> None:
        import ray

        if ray.is_initialized():
            ray.shutdown()
        left = _descendants(os.getpid())
        if not self._wait_gone(left, 20.0):
            for p in left:
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
            self._wait_gone(left, 10.0)
        for p in left:  # reap our own zombie children
            try:
                os.waitpid(p, os.WNOHANG)
            except ChildProcessError:
                pass

    @staticmethod
    def _wait_gone(pids: list[int], timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for p in pids:
                try:
                    os.waitpid(p, os.WNOHANG)
                except ChildProcessError:
                    pass
            if not any(_alive(p) for p in pids):
                return True
            time.sleep(0.05)
        return False

    def close(self) -> None:
        self.stop()
        if self._own_tmp:
            import shutil

            shutil.rmtree(self._own_tmp, ignore_errors=True)


class RssSampler:
    """Peak resident memory of this process plus its Ray worker processes
    (descendants whose process title starts with ``ray::``), summed as
    proportional set sizes so pages they share (the object store, shared
    libraries) count once."""

    def __init__(self, period: float = 0.2) -> None:
        self.period = period
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> int:
        me = os.getpid()
        total = _pss_bytes(me)
        for p in _descendants(me):
            if _proc_cmdline(p).startswith("ray::"):
                total += _pss_bytes(p)
        return total

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, self._sample())
            self._stop.wait(self.period)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self._sample())
