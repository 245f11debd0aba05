"""The wrapping-stack benchmark: one command, four workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload crawl --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload in turn

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``crawl``          -- library batch extraction, closed loop;
* ``recrawl``        -- warm ``doc_id``-style re-extraction, closed loop;
* ``serve``          -- HTTP, open loop, one local process shard;
* ``serve_cluster``  -- HTTP, open loop, router plus loopback shard daemons.

``BENCHMARK.json`` lists only ``crawl`` and ``recrawl``: on a 2-vCPU
host the serving workloads' end-to-end figures shift 1.3-1.7x from run
to run.  They run by hand, and the traced ``crawl`` run also runs both
serving stacks with the serve traffic mix and reports their layers (the
framed-RPC path's with a ``cluster.`` prefix).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics, timed from outside around each layer's public
functions.  The library workloads' end-to-end timings and rates are
scaled to a reference host speed measured alongside them
(``perfbench.common.HostSpeed``); the raw figures are printed as
comments.  Every output is checked.  Human-readable lines (the run
stamp and every metric with its unit) go to stdout first; the last line
is one JSON object.  Each result is also appended, never overwritten, as
its own file under ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("crawl", "recrawl", "serve", "serve_cluster")


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if workload == "crawl":
        from perfbench.library import run_crawl

        outcome = run_crawl(seed, seconds, trace)
        if trace:
            from perfbench.serving import run_serve_traced

            # The serving layers, from the serve traffic mix: half length,
            # but at least 8 s, so the cluster's dropped connections happen.
            serving = run_serve_traced(seed, max(8, seconds // 2))
            outcome["metrics"].update(serving["metrics"])
            outcome["attempted"] += serving["attempted"]
            outcome["failed"] += serving["failed"]
            outcome["info"].update(serving["info"])
        return outcome
    if workload == "recrawl":
        from perfbench.library import run_recrawl

        return run_recrawl(seed, seconds, trace)
    from perfbench.serving import run_serve

    return run_serve(seed, seconds, trace, cluster=workload == "serve_cluster")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # One process per workload, so no workload inherits another's
        # memory peak or interpreter state.
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ).returncode
            for workload in WORKLOADS
        ]
        return max(codes)

    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro next to perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    from perfbench.common import BenchError, stamp

    spec = _load_spec()
    trace = bool(args.trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    run_stamp = stamp(args.workload, args.seed, args.seconds, trace)
    try:
        outcome = _run(args.workload, args.seed, args.seconds, trace)
    except BenchError as exc:
        print(f"perfbench: refusing to report: {exc}", file=sys.stderr)
        return 3

    measured = outcome["metrics"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        # Layers that do not run in this workload read 0 in traced runs.
        value, unit = measured.get(name, (0.0, entry["unit"]))
        if unit != entry["unit"]:
            raise SystemExit(f"perfbench: {name} measured in {unit}, declared {entry['unit']}")
        metrics[name] = {"value": float(value), "unit": unit}
    undeclared = [n for n in measured if n not in metrics]
    attempted = int(outcome["attempted"])
    failed = int(outcome["failed"])
    correct = failed == 0 and attempted > 0

    print(f"# {json.dumps(run_stamp, sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:14.6f} {metric['unit']}")
    print(f"{'error_fraction':32s} {failed / max(1, attempted):14.6f} share "
          f"({failed} of {attempted})")
    for key, value in sorted(outcome.get("info", {}).items()):
        print(f"# {key}: {json.dumps(value, sort_keys=True)}")
    if undeclared:
        print(f"# measured but not declared: {undeclared}")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    out_dir = HERE / "out" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = (
        time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        + f"-{args.workload}-s{args.seed}-{'traced' if trace else 'untraced'}-{os.getpid()}.json"
    )
    with open(out_dir / name, "x") as handle:
        json.dump(dict(result, stamp=run_stamp, info=outcome.get("info", {})), handle,
                  sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
