"""The in-process flow workload: a few seeded jobs, repeated in turn.

The netlist is built before each job (set-up, ``setup_s`` is the median
build) and handed to ``execute_job``, the runtime's per-job entry point,
so ``job_s`` is the placement flow alone.  The run cycles through
``JOBS_PER_RUN`` specs drawn from the workload seed and stops only at
the end of a cycle, so every spec runs equally often and how much work
one job seed happens to need (DP moves, routing overflow) is averaged
within a run instead of showing as spread between seeds.  Each repeat
of a spec must reproduce that spec's first HPWL bit for bit.
"""

from __future__ import annotations

import resource
import time
from typing import Dict, List

import numpy as np

from repro.core.params import PlacementParams
from repro.detail import DetailedPlacer
from repro.detail.rows import PlacementRows
from repro.pipeline import GlobalPlaceStage, LegalizeStage, RouteStage
from repro.runtime.job import PlacementJob, execute_job

from checks import check_placement, check_repeat
from common import (STAGES, WorkloadResult, flow_layers, job_seeds, mean,
                    peak_rss_mb, timing_metrics)
from stats import Outcome, median, self_times
from tracer import Tracer

FLOWS = {
    # GP -> LG -> DP -> GR; detailed placement is about half the job.
    "flow-adaptec1": dict(design="adaptec1", scale=0.01, dp_passes=1,
                          route=True),
}
#: Distinct job seeds a run cycles through, each once per cycle.
JOBS_PER_RUN = 3
#: Netlist builds before every job (the job gets the last one), so
#: that ``setup_s`` is a median of many builds spread over the run.
BUILDS_PER_JOB = 3

def _install(tracer: Tracer) -> None:
    for stage, name in ((GlobalPlaceStage, "gp"), (LegalizeStage, "lg"),
                        (RouteStage, "gr")):
        tracer.wrap(stage, "execute", name)
    tracer.wrap(DetailedPlacer, "place", "dp")
    tracer.wrap(PlacementRows, "cells_near", "dp.cells_near")
    tracer.wrap(DetailedPlacer, "nets_of", "dp.nets_of", count_only=True)


def _warm_up(spec: Dict) -> None:
    """One tiny job of the same shape, so lazy imports and first-call
    set-up are not charged to the first timed job."""
    job = PlacementJob(design=spec["design"], cells=300,
                       dp_passes=spec["dp_passes"], route=spec["route"],
                       params=PlacementParams(max_iterations=30))
    execute_job(job)


def _traced_layers(tracer: Tracer, root: int, report, job_s: float,
                   notes: Dict) -> Dict[str, float]:
    """Layer numbers of one traced job, and the self-time identity.

    The self times of every span in the job's tree, with the GP span's
    share split into optimizer work and the report's operator spans,
    must add up to the job span itself.
    """
    spans = tracer.spans[root:]
    selves = self_times(tracer.spans)[root:]
    stage_s = {name: 0.0 for name in STAGES}
    layer_self: Dict[str, float] = {}
    for span, own in zip(spans, selves):
        if span.name in stage_s:
            stage_s[span.name] += span.seconds
        layer = "pipeline" if span.name == "job" else span.name
        layer_self[layer] = layer_self.get(layer, 0.0) + own
    kernels = report.metrics.get("kernel_seconds") or {}
    for name, seconds in kernels.items():
        layer_self[f"op.{name}"] = float(seconds)
        layer_self["gp"] -= float(seconds)
    total = sum(layer_self.values())
    notes.setdefault("layer_self_s", []).append(
        {**{k: round(v, 6) for k, v in sorted(layer_self.items())},
         "sum": round(total, 6), "job_s": round(job_s, 6)})
    if abs(total - job_s) > 1e-6 * max(job_s, 1.0):
        raise AssertionError(f"layer self times sum to {total}, job took {job_s}")
    layers = flow_layers(report, job_s, stage_s)
    layers["dp.cells_near_s"] = layer_self.get("dp.cells_near", 0.0)
    return layers


def run(name: str, seed: int, seconds: float, tracing: bool) -> WorkloadResult:
    spec = FLOWS[name]
    rng = np.random.default_rng(seed)
    jobs = [PlacementJob(design=spec["design"], scale=spec["scale"],
                         dp_passes=spec["dp_passes"], route=spec["route"],
                         seed=job_seed, tag=name)
            for job_seed in job_seeds(rng, JOBS_PER_RUN)]
    builds: List[float] = []

    def build(job):
        start = time.perf_counter()
        netlist = job.load_netlist()
        builds.append(time.perf_counter() - start)
        return netlist

    netlist = build(jobs[0])
    _warm_up(spec)

    tracer = Tracer()
    notes: Dict = {"job_ids": [job.job_id for job in jobs],
                   "cells": netlist.num_cells}
    outcomes: List[Outcome] = []
    problems: List[str] = []
    walls: Dict[bool, List[float]] = {True: [], False: []}
    first_iter: List[float] = []
    traced_rows: List[Dict[str, float]] = []
    leaders: Dict[int, object] = {}
    began = time.perf_counter()
    while (len(outcomes) % len(jobs)
           or not outcomes or time.perf_counter() - began < seconds):
        index = len(outcomes) % len(jobs)
        job = jobs[index]
        traced = tracing and len(outcomes) % 2 == 0
        marks: List[float] = []

        # The GP loop's first heartbeat comes after its first iteration.
        def emit(message, marks=marks):
            if message.get("event") == "heartbeat":
                marks.append(time.perf_counter())

        # Set-up samples are spread over the run, a few builds per job,
        # so that a slow spell of the machine does not own all of them.
        for _ in range(BUILDS_PER_JOB):
            netlist = build(job)
        if traced:
            tracer.trace = f"job{len(outcomes)}"
            _install(tracer)
            root = len(tracer.spans)
        start = time.perf_counter()
        try:
            if traced:
                with tracer.span("job"):
                    result = execute_job(job, emit=emit, netlist=netlist)
            else:
                result = execute_job(job, emit=emit, netlist=netlist)
        except Exception as err:  # noqa: BLE001 — a failed job is a result
            problems.append(f"{job.job_id}: {type(err).__name__}: {err}")
            outcomes.append(Outcome(done=False))
            continue
        finally:
            tracer.uninstall()
        wall = (tracer.spans[root].seconds if traced
                else time.perf_counter() - start)
        walls[traced].append(wall)
        first_iter.append(marks[0] - start)
        found = check_placement(netlist, result.x, result.y,
                                result.report.metrics)
        if index in leaders:
            found += check_repeat(leaders[index].hpwl, result.hpwl)
        else:
            leaders[index] = result
        problems.extend(found)
        outcomes.append(Outcome(done=result.ok, check_failures=len(found)))
        if traced:
            traced_rows.append(_traced_layers(tracer, root, result.report,
                                              wall, notes))
    makespan = time.perf_counter() - began
    notes["job_walls"] = {"traced": walls[True], "untraced": walls[False]}
    if not leaders:
        raise RuntimeError(f"{name}: no job finished: {problems[:3]}")

    done = walls[True] + walls[False]
    # One result per distinct spec, in spec order: deterministic per seed.
    firsts = [leaders[i] for i in sorted(leaders)]
    metrics: Dict[str, float] = {
        "setup_s": median(builds),
        "job_s": median(done),
        "final_hpwl": mean([r.hpwl for r in firsts]),
        "top5_overflow": mean([r.report.metrics["top5_overflow"]
                               for r in firsts]),
        "jobs_per_s": len(done) / makespan,
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
    }
    metrics.update(timing_metrics("latency", done, notes))
    metrics["first_iter_p50_s"] = median(first_iter)
    layers: Dict[str, float] = {"benchgen.make_design_s": median(builds)}
    if tracing:
        for key in traced_rows[0]:
            layers[key] = median([row[key] for row in traced_rows])
        layers["gr.total_overflow"] = mean(
            [float(r.report.metrics["total_overflow"]) for r in firsts])
        layers["dp.cells_near_calls"] = tracer.counts["dp.cells_near"] / len(traced_rows)
        layers["dp.nets_of_calls"] = tracer.counts["dp.nets_of"] / len(traced_rows)
        layers["trace.overhead_s"] = (median(walls[True]) - median(walls[False])
                                      if walls[False] else 0.0)
    return WorkloadResult(outcomes=outcomes, metrics=metrics, layers=layers,
                          problems=problems, notes=notes, spans=tracer.spans)
