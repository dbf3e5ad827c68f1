#!/usr/bin/env python3
"""adslab benchmark: pinned workloads timed through the library's public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mf_mixed_depth --seed 0 --seconds 35 --trace 0

``--trace 0`` times untraced program calls and prints the end-to-end
metrics; ``--trace 1`` makes a warm-up, an untraced and a traced call and
prints the per-layer metrics. The metric names and units are the ones listed in
BENCHMARK.json at the checkout root. The last line of standard output is
the JSON result; the lines before it give the environment, every timed
call, the records digest and a table of the metrics. Inputs and
experiment directories live under .perfbench_work/ and are removed at the
end; spans and results are kept under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

SRC = os.path.join(os.getcwd(), "src")
BENCHMARK_JSON = os.path.join(os.getcwd(), "BENCHMARK.json")
WORK_ROOT = os.path.join(os.getcwd(), ".perfbench_work")
OUT_ROOT = os.path.join(os.getcwd(), ".perfbench_out")


def _import_program() -> None:
    """Put the checkout's own sources first on the path; never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "adslab", "__init__.py")):
        print("perfbench: no adslab sources under ./src; run this from the root of a "
              "checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true",
                    help="pin this seed's report numbers in perfbench/reference.json")
    args = ap.parse_args(argv)

    _import_program()
    from adslab.harness import ENV_DATA_ROOT, ENV_WORKERS
    # the workloads pin their worker count and data directory; these variables
    # would override both without any check noticing
    for var in (ENV_WORKERS, ENV_DATA_ROOT):
        if os.environ.pop(var, None) is not None:
            print(f"perfbench: ignoring {var} from the environment", file=sys.stderr)
    from checks import REFERENCE_PATH, environment, load_reference
    from inputs import WORKLOADS
    from measure import Bench, measure_end_to_end, measure_per_layer

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    with open(BENCHMARK_JSON) as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    w = WORKLOADS[args.workload]
    bench = Bench(w, args.seed, WORK_ROOT)
    env = environment(bench.workers)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    try:
        if args.trace:
            values = measure_per_layer(
                bench, os.path.join(OUT_ROOT, f"spans-{w.name}-s{args.seed}.jsonl"))
        else:
            values = measure_end_to_end(bench, args.seconds)
        bench.check_reference()
    finally:
        bench.close()

    if args.update_reference and bench.numbers is not None:
        ref = load_reference()
        ref.setdefault(w.name, {})[str(args.seed)] = bench.numbers
        with open(REFERENCE_PATH, "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")

    for problem in bench.problems:
        print(f"check failed: {problem}")
    digest = bench.digests[0] if bench.digests else "-"
    print(f"digest {w.name} seed={args.seed} sha256={digest} "
          f"({len(set(bench.digests))} distinct over {len(bench.digests)} calls)")
    print(f"failed_share {bench.failed / max(bench.attempted, 1):.6g} "
          f"({bench.failed} failed of {bench.attempted} attempted)")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<34} {values[m['name']]:>16.6g} {m['unit']}")
    result = {"correct": bench.failed == 0, "attempted": max(bench.attempted, 1),
              "failed": bench.failed, "metrics": metrics}
    os.makedirs(OUT_ROOT, exist_ok=True)
    with open(os.path.join(OUT_ROOT, f"result-{w.name}-s{args.seed}-t{args.trace}.json"),
              "w") as fh:
        json.dump({"env": env, "digest": digest, **result}, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
