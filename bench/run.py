"""The qshift benchmark: one command, five workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --quick [--seed N]

A run starts fresh interpreters (bench/worker.py): several that only set
up (import the package, load the catalog), then timed passes of the
workload until the passes' timed work adds up to --seconds, at least
one pass.  Every pass checks its outputs after its timed region; the
first pass also runs the oracle and mutation checks.  With --trace 1 one
more pass runs with every layer traced, and the run reports per-layer
metrics and the tracing overhead instead of the end-to-end ones.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it carries the machine
details, which are also written with every pass's figures to
bench/out/BENCH_<workload>_seed<N>_trace<T>.json.

--quick runs every workload once at small orders (base 16 only for the
searches), then a negative control: verify with one catalog entry
swapped for a mutant, which must show a failed operation.  It exits 0
only when the five workloads pass and the control fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

WORKLOADS = ("verify-1000", "verify-3000", "classify-300", "search-found",
             "search-empty")
SETUP_SAMPLES = 10
CHILD_TIMEOUT_S = 150
# start no pass after this much of a run has gone, so a run ends well
# within three minutes
PASS_DEADLINE_S = 100


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str]) -> dict:
    cmd = [sys.executable, str(WORKER)] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(args)} ran over {CHILD_TIMEOUT_S}s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{' '.join(args)} exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine(numpy_version: str) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": commit, "platform": platform.platform()}


def measure(workload: str, seed: int, seconds: int, trace: bool) -> int:
    base = ["--workload", workload, "--seed", str(seed)]
    started = time.monotonic()
    # set-up samples bracket the passes, so that they see the same spells
    # of a busy host as the timed work does
    setups = [run_child(base + ["--setup-only"])
              for _ in range(SETUP_SAMPLES // 2)]
    passes = []
    while True:
        passes.append(run_child(base + ["--full-checks", str(int(not passes))]))
        if sum(p["wall_s"] for p in passes) >= seconds:
            break
        if time.monotonic() - started > PASS_DEADLINE_S:
            break
    setups += [run_child(base + ["--setup-only"])
               for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    traced = None
    if trace:
        spans = OUT / f"spans_{workload}_seed{seed}.json"
        traced = run_child(base + ["--trace", "1", "--full-checks", "0",
                                   "--spans", str(spans)])

    def ref(p):
        return p["wall_s"] / p["ref_s"]

    wall_ref = statistics.median(ref(p) for p in passes)
    if traced is None:
        metrics = {
            "setup_s": (statistics.median([s["setup_s"] for s in setups]
                                          + [p["setup_s"] for p in passes]), "s"),
            "wall_ref": (wall_ref, "ref"),
            "peak_rss_mib": (statistics.median(
                [p["peak_rss_mib"] for p in passes]), "MiB"),
        }
    else:
        metrics = {name: tuple(v) for name, v in traced["layers"].items()}
        metrics["host.wall_s"] = (statistics.median(
            p["wall_s"] for p in passes), "s")
        metrics["host.ref_us"] = (1e6 * statistics.median(
            p["ref_s"] for p in passes), "us")
        metrics["trace.wall_s"] = (traced["wall_s"], "s")
        metrics["trace.overhead"] = (ref(traced) / wall_ref, "ratio")

    checked = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in checked)
    failed = sum(p["failed"] for p in checked)
    for p in checked:
        for f in p["failures"]:
            print(f"check failed: {f}", file=sys.stderr)
    info = machine(setups[0]["numpy"])
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": info, "setups": setups,
              "passes": passes, "traced": traced,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"BENCH_{workload}_seed{seed}_trace{int(trace)}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"machine": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


def quick(seed: int) -> int:
    ok = True
    for workload in WORKLOADS:
        r = run_child(["--workload", workload, "--seed", str(seed),
                       "--quick", "1"])
        for f in r["failures"]:
            print(f"check failed: {workload}: {f}", file=sys.stderr)
        ok &= r["failed"] == 0
        print(json.dumps({workload: {k: r[k] for k in
                                     ("wall_s", "items", "attempted", "failed")}}))
    control = run_child(["--workload", "verify-1000", "--seed", str(seed),
                         "--quick", "1", "--mutate-one", "1"])
    ok &= control["failed"] > 0
    print(json.dumps({"negative-control": {"failed": control["failed"],
                                           "failures": control["failures"]}}))
    print(json.dumps({"quick_ok": ok}))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description="qshift benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "qshift" / "__init__.py").is_file():
        print(f"no qshift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    try:
        if args.quick:
            return quick(args.seed)
        if args.workload is None:
            ap.error("--workload is required unless --quick is given")
        return measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
