"""Self-test of the benchmark: tiny versions of both workloads.

    python3 perfbench/selftest.py

Runs every workload with ``--tiny`` at ``--trace 0`` and ``--trace 1``
from a working directory that is not the repo root (so Ray workers must
find the engine through the benchmark's own set-up), and checks that the
result line names every metric of ``BENCHMARK.json`` with its unit and
that no op failed. Then it plants a wrong oracle digest and checks that
the affected reads are counted as failed ops. Exits non-zero on failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def _expected(trace: int) -> dict[str, str]:
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        cfg = json.load(f)
    return {m["name"]: m["unit"] for m in cfg["per_layer" if trace else "end_to_end"]}


def check_cli(workload: str, trace: int, cwd: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    tag = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{tag}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    errs = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"{tag}: result keys {sorted(res)}")
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        errs.append(f"{tag}: correct={res['correct']} failed={res['failed']} "
                    f"attempted={res['attempted']}")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != _expected(trace):
        errs.append(f"{tag}: metrics/units differ from BENCHMARK.json: "
                    f"missing {sorted(set(_expected(trace)) - set(got))}, "
                    f"extra {sorted(set(got) - set(_expected(trace)))}, "
                    f"units {[(k, u) for k, u in got.items() if _expected(trace).get(k) not in (None, u)]}")
    return errs


def check_planted_digest() -> list[str]:
    sys.path[:0] = [HERE, REPO]
    import run
    from workloads import SPECS

    spec = run.tiny(SPECS["follow-small"])
    head = str(spec["n_epochs"] - 1)

    def plant(oracle: dict) -> None:
        oracle["snap_digest"][head] = "0" * 16

    res = run.bench(spec, 3, 2.0, False, oracle_hook=plant)
    if res["correct"] or res["failed"] < 1:
        return [f"planted wrong digest not counted: {res}"]
    return []


def main() -> int:
    cwd = os.path.join(HERE, ".work", "selftest-cwd")
    os.makedirs(cwd, exist_ok=True)
    errs = []
    for workload in ("replay-hot", "follow-small"):
        for trace in (0, 1):
            errs += check_cli(workload, trace, cwd)
            print(f"selftest: {workload} --trace {trace} done", file=sys.stderr)
    errs += check_planted_digest()
    for e in errs:
        print("FAIL", e)
    print("selftest:", "FAILED" if errs else "OK")
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main())
