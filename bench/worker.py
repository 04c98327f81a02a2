"""One benchmark pass in a fresh interpreter.

run.py starts this file once per pass, so every pass pays what a qshift
invocation pays: the package import, the catalog load and cold
in-process caches such as theta.atom_series.  It prints one JSON object
on its last stdout line.

    python3 bench/worker.py --workload NAME --seed N [--trace 0|1]
        [--full-checks 0|1] [--quick 0|1] [--mutate-one 0|1]
        [--setup-only] [--spans PATH]
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--full-checks", type=int, choices=(0, 1), default=1)
    ap.add_argument("--quick", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mutate-one", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    # set-up: what every qshift invocation pays before its first check
    started = time.perf_counter()
    import qshift.cli  # imports every library module, and numpy
    from qshift import corpus, theta
    if not Path(qshift.cli.__file__).resolve().is_relative_to(SRC):
        print(f"qshift imported from {qshift.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    entries = corpus.load_corpus()
    setup_s = time.perf_counter() - started
    if args.setup_only:
        import numpy
        print(json.dumps({"setup_s": setup_s, "numpy": numpy.__version__}))
        return 0

    from workloads import PARAMS, QUICK_PARAMS, WORKLOADS, Checks
    wl = WORKLOADS[args.workload]
    params = dict((QUICK_PARAMS if args.quick else PARAMS)[args.workload],
                  mutate_one=bool(args.mutate_one))
    inputs = wl.prepare(entries, params, random.Random(args.seed))

    from hostspeed import Sampler
    with Sampler(wl.host_kernel) as host:
        started = time.perf_counter()
        outputs = wl.run(inputs)
        wall_s = time.perf_counter() - started
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"setup_s": setup_s, "wall_s": wall_s,
              "ref_s": host.mean_s(), "ref_samples": len(host.samples),
              "items": wl.items(outputs), "peak_rss_mib": peak_rss_mib}
    if tracer is not None:
        layers = tracer.metrics(theta.atom_series.cache_info())
        result["layers"] = {name: list(v) for name, v in layers.items()}
        if args.spans:
            tracer.dump(Path(args.spans))

    checks = Checks()
    wl.check(inputs, outputs, checks, bool(args.full_checks))
    result.update(attempted=checks.attempted, failed=checks.failed,
                  failures=checks.failures[:20])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
