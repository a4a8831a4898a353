"""Pieces every workload shares: the result record and small helpers."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence

import numpy as np

from stats import Outcome, Span, failed_count, median, tail


@dataclass
class WorkloadResult:
    """What one run of a workload measured.

    ``metrics`` holds every end-to-end metric but ``done_share``, which
    the runner derives from ``outcomes``; ``layers`` holds the per-layer
    metrics that apply to the workload (the runner reports the rest as
    0).  ``problems`` are the failed output checks.  The runner rescales
    timings to the reference host speed (``probe.py``) except those
    named in ``as_measured``.  ``notes`` (tail
    percentiles, sample counts, ...) are printed before the result and,
    with ``spans``, written to the trace file.
    """

    outcomes: List[Outcome]
    metrics: Dict[str, float]
    layers: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    notes: Dict[str, Any] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)
    #: Timings set by waiting more than by computing: not rescaled.
    as_measured: FrozenSet[str] = frozenset()

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return failed_count(self.outcomes)


def job_seeds(rng: np.random.Generator, n: int) -> List[int]:
    """``n`` distinct job seeds drawn from the workload's generator."""
    seeds: List[int] = []
    while len(seeds) < n:
        candidate = int(rng.integers(1, 2**31 - 1))
        if candidate not in seeds:
            seeds.append(candidate)
    return seeds


def timing_metrics(prefix: str, samples: Sequence[float],
                   notes: Dict[str, Any]) -> Dict[str, float]:
    """``<prefix>_p50_s`` and ``<prefix>_tail_s``; the tail's percentile
    and sample count go into ``notes``."""
    high = tail(samples)
    notes[f"{prefix}_tail"] = {"percentile": round(high.percentile, 2),
                               "samples": high.samples}
    return {f"{prefix}_p50_s": median(samples), f"{prefix}_tail_s": high.value}


def peak_rss_mb(who: int) -> float:
    """Peak resident set size in MiB (``RUSAGE_SELF``/``RUSAGE_CHILDREN``).

    For children it is the largest single waited-for descendant, which
    is the worker that did the placement work.
    """
    return resource.getrusage(who).ru_maxrss / 1024.0


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of no values")
    return float(sum(values) / len(values))


def share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def stage_seconds(report, name: str) -> float:
    """Seconds of the named FlowReport stage (0 when the flow lacks it)."""
    for stage in report.stages:
        if stage.name == name:
            return stage.seconds
    return 0.0


def report_layers(reports: Sequence[Any],
                  job_seconds: Sequence[float]) -> Dict[str, float]:
    """Per-layer medians derivable from FlowReports alone.

    Used where the placement ran out of process (service, batch): the
    stage spans and operator spans come from each job's report.
    ``job_seconds`` are the matching in-worker ``JobResult.seconds``.
    """
    rows: Dict[str, List[float]] = {}
    for report, seconds in zip(reports, job_seconds):
        for key, value in flow_layers(report, seconds).items():
            rows.setdefault(key, []).append(value)
    return {key: median(values) for key, values in rows.items()}


STAGES = ("gp", "lg", "dp", "gr")


def flow_layers(report, job_s: float,
                stage_s: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Layer numbers of one job from its FlowReport.

    ``stage_s`` replaces the report's stage seconds with traced spans
    when there are any; the operator seconds and counts always come
    from the report's ``runtime`` stage.
    """
    metrics = report.metrics
    kernels = metrics.get("kernel_seconds") or {}
    if stage_s is None:
        stage_s = {name: stage_seconds(report, name) for name in STAGES}
    gp = stage_s["gp"]
    iterations = float(metrics.get("gp_iterations") or 0)
    gp_hpwl = metrics.get("gp_hpwl")
    lg_hpwl = metrics.get("lg_hpwl")
    dp_hpwl = metrics.get("dp_hpwl")
    return {
        "wirelength.s": float(kernels.get("wirelength", 0.0)),
        "density.scatter_s": float(kernels.get("density_scatter", 0.0)),
        "density.gather_s": float(kernels.get("density_gather", 0.0)),
        "density.field_solve_s": float(kernels.get("field_solve", 0.0)),
        "ops.launches": float(metrics.get("kernel_launches") or 0),
        "gp.s": gp,
        "gp.iterations": iterations,
        "gp.step_s": gp / iterations if iterations else 0.0,
        "gp.self_s": gp - float(metrics.get("kernel_seconds_total") or 0.0),
        "lg.s": stage_s["lg"],
        "lg.hpwl_ratio": lg_hpwl / gp_hpwl if gp_hpwl else 0.0,
        "dp.s": stage_s["dp"],
        "dp.moves": float(metrics.get("dp_moves") or 0),
        "dp.gain": 1.0 - dp_hpwl / lg_hpwl if lg_hpwl else 0.0,
        "gr.s": stage_s["gr"],
        "gr.total_overflow": float(metrics.get("total_overflow") or 0.0),
        "pipeline.self_s": job_s - sum(stage_s.values()),
        "job.execute_s": job_s,
    }
