"""Run the cylpc benchmark on one workload, or on all of them.

    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --workload frame-cyl --seed 7 --seconds 20 --trace 0

One workload per process, so ``peak_rss_mb`` belongs to that workload.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run and writes its spans to
``.perfbench_out/spans-<workload>-seed<seed>.jsonl``. Either way the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--workload all`` runs every
workload untraced and then traced, each in a child process, and prints
the traced and untraced operation times side by side.
"""

import os

# pin the load to one thread before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402

WORKDIR = harness.CHECKOUT / ".perfbench_out"


def run_one(args) -> int:
    try:
        cy = harness.import_cylpc()
    except (harness.SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = harness.WORKLOADS[args.workload]
    print(f"workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"why={wl.why}")
    print(" ".join(f"{k}={v}" for k, v in harness.environment()))
    result = harness.run(cy, wl, args.seed, args.seconds, bool(args.trace), WORKDIR)
    metrics = harness.end_to_end(result.log)
    for line in harness.report_lines(result, metrics):
        print(line)
    if args.trace:
        metrics, lines = harness.per_layer(result)
        for line in lines:
            print(line)
        for name, m in metrics.items():
            print(f"{name:28} {m['value']:14.6g} {m['unit']}")
        spans = WORKDIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        result.tracer.write(spans)
        print(f"spans={spans.relative_to(harness.CHECKOUT)} count={len(result.tracer.spans)}")
    log = result.log
    correct = log.failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": log.attempted,
                      "failed": log.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    try:
        harness.import_cylpc()
    except (harness.SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = {}
    for name in harness.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            print(f"==== {name} trace={trace} (exit {proc.returncode})")
            print(proc.stdout, end="")
            print(proc.stderr, end="", file=sys.stderr)
            lines = proc.stdout.strip().splitlines()
            results[name, trace] = json.loads(lines[-1]) if lines else None
    if any(r is None for r in results.values()):
        print("error: a workload printed no result", file=sys.stderr)
        return 1

    print("==== tracing overhead: operation cost p50, untraced vs traced")
    for name in harness.WORKLOADS:
        plain = results[name, 0]["metrics"]["op_cost_p50"]["value"]
        traced = results[name, 1]["metrics"]["traced.op_cost_p50"]["value"]
        print(f"{name:16} untraced {plain:10.4g} x  traced {traced:10.4g} x  "
              f"overhead {100.0 * (traced / plain - 1.0):+6.2f}%")
    print("==== end-to-end metrics")
    print(f"{'metric':16}" + "".join(f"{n:>18}" for n in harness.WORKLOADS))
    for metric, (unit, _) in harness.END_TO_END.items():
        values = [results[n, 0]["metrics"][metric]["value"] for n in harness.WORKLOADS]
        print(f"{metric:16}" + "".join(f"{v:18.6g}" for v in values) + f"  {unit}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.trace{t}.{k}": v
                    for (n, t), r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*harness.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
