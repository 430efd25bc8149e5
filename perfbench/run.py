"""The repo benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cnn-accuracy --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with the benchmark's own
tracing off; ``--trace 1`` wraps each layer's public entry points and
reports the per-layer metrics, including the tracing overhead (traced
minus untraced, from interleaved operations of the same run). Metric
names and units come from ``BENCHMARK.json``; ``perfbench/README.md``
says what each one measures and which end-to-end metric it should move.

Inputs are generated from ``--seed`` and cached under ``.perfbench/``
by a separate process before anything is timed. Each run writes a full
record (metrics, output checks, host fingerprint) under
``.perfbench/records`` and prints one JSON result as the last line of
standard output. Values that must repeat exactly for the same source
and seed (``top1``, the NF RMSEs, the simulated-hardware counts) are
compared against earlier runs; a mismatch fails the output check.
"""

from __future__ import annotations

import os

# One BLAS thread in every process the benchmark starts (the server
# included): on a small shared host, spinning BLAS worker threads of the
# client and the server contend for the same CPUs and make timings
# bimodal. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import inputs  # noqa: E402
from host import fingerprint  # noqa: E402

BENCHMARK_JSON = os.path.join(inputs.ROOT, "BENCHMARK.json")
INPUT_TIMEOUT_S = 840


def _load_benchmark() -> dict:
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def _check_repeat(result, workload: str, seed: int, digest: str) -> None:
    """Compare exact-repeat values with an earlier run of this source."""
    path = os.path.join(inputs.repeat_dir(),
                        f"{workload}-seed{seed}-{digest}.json")
    current = json.loads(json.dumps(result.repeat))
    if os.path.exists(path):
        with open(path) as handle:
            earlier = json.load(handle)
        result.check("repeats-exactly", earlier == current,
                     f"differs from {os.path.basename(path)}")
        return
    os.makedirs(inputs.repeat_dir(), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as handle:
        json.dump(current, handle, sort_keys=True)
    os.replace(tmp, path)


def _select(values: dict, specs: list, default) -> dict:
    out = {}
    for spec in specs:
        value = values.get(spec["name"], default)
        if value is None:
            raise KeyError(f"workload reported no {spec['name']!r}")
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(inputs.SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {inputs.SRC}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    bench = _load_benchmark()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2

    inputs.keep_cache_inside()
    sys.path.insert(0, inputs.SRC)
    host = fingerprint(inputs.ROOT, inputs.SRC, inputs.BENCH)
    if host["busy"]:
        print(f"perfbench: host busy at start "
              f"({host['busy_cpus_at_start']:.2f} CPUs in use by others); "
              f"the record is flagged", file=sys.stderr)
    subprocess.run([sys.executable, os.path.join(os.path.dirname(
        os.path.abspath(__file__)), "inputs.py"), "--workload",
        args.workload, "--seed", str(args.seed)], check=True,
        timeout=INPUT_TIMEOUT_S, stdout=sys.stderr)

    # Each workload lives in the module of the same name (cnn_accuracy.py).
    workload = importlib.import_module(args.workload.replace("-", "_"))
    result = workload.run(
        args.seed, args.seconds, bool(args.trace))
    _check_repeat(result, args.workload, args.seed, host["source_digest"])

    if args.trace:
        metrics = _select(result.layers, bench["per_layer"], 0.0)
    else:
        metrics = _select(result.e2e, bench["end_to_end"], None)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host, "correct": result.correct,
              "attempted": result.attempted, "failed": result.failed,
              "checks": result.checks, "end_to_end": result.e2e,
              "per_layer": result.layers, "info": result.info}
    records = os.path.join(inputs.STATE, "records")
    os.makedirs(records, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(records, f"{stamp}-{args.workload}-seed"
                           f"{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True, default=str)
    for check in result.checks:
        print(f"check {check['name']}: {'ok' if check['ok'] else 'FAILED'}"
              f" {check['detail']}", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']!r:>24} {entry['unit']}",
              file=sys.stderr)
    print(json.dumps({"correct": result.correct,
                      "attempted": max(1, result.attempted),
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
