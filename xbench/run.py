"""One benchmark for the placement system, from GP kernels to the daemon.

Usage (from the repository root)::

    python3 xbench/run.py --workload flow-adaptec1 --seed 1 --seconds 20 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``; what each
per-layer metric should move is in ``xbench/LAYERS.md``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).  Timings are rescaled to a
reference host speed by ``probe.HostProbe``; the ``xbench raw`` line
before the result holds them as measured.  Lines before it also record
the environment, tail percentiles and sample counts.  A traced run also
writes its spans to ``.xbench/trace-<workload>-s<seed>.json``.

Exit status: 0 when every job finished and passed its output checks,
1 when any job failed or a check failed, 2 when the program under test
is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".xbench")

#: BLAS threads per process; one keeps timings steady when the workers
#: of the service and batch workloads already fill every core.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_workload(name: str, seed: int, seconds: float, tracing: bool):
    if name == "service-open":
        import service_load
        return service_load.run(seed, seconds, tracing, ROOT)
    if name == "batch-cold":
        import batch
        return batch.run(seed, seconds, tracing, ROOT)
    import flows
    return flows.run(name, seed, seconds, tracing)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"xbench: no placement package under {SRC}", file=sys.stderr)
        return 2
    spec = _load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"xbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # Child processes (daemon, pool workers) inherit both settings.
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)
    # A terminated run unwinds, so the workloads' cleanup stops the
    # daemon and pool workers they started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    from environment import environment
    from probe import MIN_SAMPLES, REFERENCE_S, HostProbe
    from stats import done_share, median, rescale, speed_factor

    env = environment(BLAS_VARS)
    os.makedirs(OUT, exist_ok=True)
    with HostProbe() as probe:
        result = _run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    env["loadavg_after"] = list(os.getloadavg())
    loops = probe.loop_seconds()
    factor = speed_factor(loops, REFERENCE_S, MIN_SAMPLES)
    env["probe"] = {"samples": len(loops), "loop_p50_s": median(loops),
                    "speed_factor": factor}
    result.metrics["done_share"] = done_share(result.outcomes)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result.layers if args.trace else result.metrics
    names = {m["name"] for m in wanted}
    missing = [] if args.trace else sorted(names - set(values))
    unknown = sorted(set(values) - names)
    if missing or unknown:
        raise KeyError(f"{args.workload}: missing {missing}, unknown {unknown}")
    # Per-layer metrics that do not apply to the workload read 0.
    raw = {m["name"]: float(values.get(m["name"], 0.0)) for m in wanted}
    metrics = {m["name"]: {"value": (raw[m["name"]]
                                     if m["name"] in result.as_measured
                                     else rescale(raw[m["name"]], m["unit"],
                                                  factor)),
                           "unit": m["unit"]} for m in wanted}
    print("xbench env: " + json.dumps(env, sort_keys=True))
    print("xbench raw: " + json.dumps(raw, sort_keys=True))
    print("xbench notes: " + json.dumps(result.notes, sort_keys=True,
                                        default=str))
    for problem in result.problems:
        print(f"xbench check failed: {problem}")
    if args.trace:
        path = os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json")
        from tracer import dump_spans
        dump_spans(path, result.spans, {"env": env, "notes": result.notes,
                                        "layers": result.layers})
        print(f"xbench trace: {os.path.relpath(path, ROOT)}")
    correct = result.failed == 0 and not result.problems
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
