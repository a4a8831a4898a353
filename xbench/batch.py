"""``batch-cold``: ``WorkerPool.run`` on a manifest of distinct jobs.

No result cache is attached, so every job computes.  The manifest is
run again while the run's time lasts; each later round must reproduce
the first round's HPWL job for job.  Queue, start-up and run times come
from the pool's ``RuntimeEvent`` stream.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.runtime import EventLog, PlacementJob, WorkerPool

from checks import check_placement, check_repeat
from common import (WorkloadResult, job_seeds, mean, peak_rss_mb,
                    report_layers, timing_metrics)
from environment import nproc
from service_load import DESIGNS, JOB_SHAPE
from stats import Outcome, Span, median

MANIFEST_JOBS = 16
SETUP_STARTS = 5

#: A cold batch start: fresh interpreter, parse the manifest, build the
#: pool -- everything before the first job is handed to a worker.
SETUP_SNIPPET = (
    "import sys\n"
    "from repro.runtime import WorkerPool, load_manifest\n"
    "load_manifest(sys.argv[1])\n"
    "WorkerPool(max_workers=int(sys.argv[2]))\n"
)


def manifest(seed: int) -> List[Dict[str, Any]]:
    """Sixteen distinct seeded jobs, an equal share per design."""
    rng = np.random.default_rng(seed)
    seeds = job_seeds(rng, MANIFEST_JOBS)
    specs = [{"design": DESIGNS[i % len(DESIGNS)], "seed": seeds[i],
              **JOB_SHAPE} for i in range(MANIFEST_JOBS)]
    return [specs[i] for i in rng.permutation(MANIFEST_JOBS)]


def _first_ts(events, job_id: str, kind: str) -> Optional[float]:
    for event in events:
        if event.job_id == job_id and event.kind == kind:
            return event.ts
    return None


def run(seed: int, seconds: float, tracing: bool, root: str) -> WorkloadResult:
    workers = min(2, nproc())
    specs = manifest(seed)
    out = os.path.join(root, ".xbench", f"batch-s{seed}")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "manifest.json")
    with open(path, "w") as fh:
        json.dump(specs, fh)
    starts: List[float] = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, path,
                        str(workers)], cwd=root, check=True, timeout=120)
        starts.append(time.perf_counter() - start)

    jobs = [PlacementJob.from_dict(spec) for spec in specs]
    rounds = []
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < seconds:
        events = EventLog()
        wall0, start = time.time(), time.perf_counter()
        results = WorkerPool(max_workers=workers).run(jobs, events=events)
        rounds.append((wall0, time.perf_counter() - start, results,
                       events.snapshot()))
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN)

    netlists: Dict[str, Any] = {}
    builds: List[float] = []
    for job in jobs:
        if job.design not in netlists:
            start = time.perf_counter()
            netlists[job.design] = job.load_netlist()
            builds.append(time.perf_counter() - start)

    outcomes: List[Outcome] = []
    problems: List[str] = []
    latency, first_iter, seconds_run, reports = [], [], [], []
    start_wait, overhead, rates, spans = [], [], [], []
    retries = 0
    for number, (wall0, makespan, results, events) in enumerate(rounds):
        retries += sum(1 for e in events if e.kind == "retry")
        done = 0
        for i, (job, result) in enumerate(zip(jobs, results)):
            if result is None or not result.ok:
                problems.append(f"{job.job_id}: "
                                f"{getattr(result, 'error', 'no result')}")
                outcomes.append(Outcome(done=False))
                continue
            found = check_placement(netlists[job.design], result.x, result.y,
                                    result.report.metrics)
            if number:
                found += check_repeat(rounds[0][2][i].hpwl, result.hpwl)
            problems.extend(found)
            outcomes.append(Outcome(done=True, check_failures=len(found)))
            done += 1
            ts = {kind: _first_ts(events, job.job_id, kind)
                  for kind in ("queued", "started", "loop_start", "finished")}
            latency.append(ts["finished"] - wall0)
            first_iter.append(ts["loop_start"] - wall0)
            seconds_run.append(result.seconds)
            reports.append(result.report)
            start_wait.append(ts["started"] - ts["queued"])
            overhead.append(ts["finished"] - ts["started"] - result.seconds)
            base = len(spans)
            spans += [
                Span("job", ts["queued"], ts["finished"], None, job.job_id),
                Span("pool.wait", ts["queued"], ts["started"], base,
                     job.job_id),
                Span("pool.startup", ts["started"], ts["loop_start"], base,
                     job.job_id),
                Span("job.run", ts["loop_start"], ts["finished"], base,
                     job.job_id),
            ]
        rates.append(done / makespan)

    notes: Dict[str, Any] = {"rounds": len(rounds), "jobs": len(jobs),
                             "makespans": [round(r[1], 3) for r in rounds]}
    first = rounds[0][2]
    metrics: Dict[str, float] = {
        "setup_s": median(starts),
        "job_s": median(seconds_run),
        "final_hpwl": mean([r.hpwl for r in first]),
        "top5_overflow": mean([r.report.metrics["top5_overflow"]
                               for r in first]),
        "jobs_per_s": median(rates),
        "peak_rss_mb": rss,
    }
    metrics.update(timing_metrics("latency", latency, notes))
    metrics["first_iter_p50_s"] = median(first_iter)
    layers: Dict[str, float] = {}
    if tracing:
        layers = report_layers(reports, seconds_run)
        layers.update({
            "benchgen.make_design_s": median(builds),
            "pool.start_wait_s": median(start_wait),
            "pool.overhead_s": median(overhead),
            "pool.retries": retries,
        })
    return WorkloadResult(outcomes=outcomes, metrics=metrics, layers=layers,
                          problems=problems, notes=notes, spans=spans)
