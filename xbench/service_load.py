"""``service-open``: an open-loop generator against a ``repro serve`` daemon.

The daemon runs in its own process with warm workers.  One thread
submits seeded small jobs on a fixed schedule (about a quarter repeat
an earlier spec, to exercise dedupe and the result cache); another
polls ``GET /jobs`` and stamps when each ticket is first seen terminal.
Latency is timed from when a submission was *due*, so a stalled
generator charges its backlog to the run, and the generator's lateness
is reported.  Everything else comes from the public API afterwards:
``/jobs``, ``/jobs/<t>/events``, ``/jobs/<t>/report`` and ``/stats``,
plus the daemon's ``ResultCache`` for the placed positions.
"""

from __future__ import annotations

import os
import re
import resource
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.pipeline import FlowReport
from repro.runtime.cache import ResultCache
from repro.runtime.job import PlacementJob
from repro.service import ServiceClient
from repro.service.client import ServiceError

from checks import check_placement, check_repeat
from common import (WorkloadResult, job_seeds, mean, peak_rss_mb,
                    report_layers, share, timing_metrics)
from environment import nproc
from stats import Outcome, Span, median, open_loop_latencies

#: Shape of every submitted job: small, so the service layers matter.
JOB_SHAPE = {"cells": 200, "params": {"max_iterations": 120},
             "dp_passes": 1, "route": True}
#: ISPD2015-like designs the jobs are drawn from: three macro-free, one
#: with macros.  Fixed, so that runs with different seeds place
#: comparable work; the seed sets the order, job seeds and repeats.
DESIGNS = ("fft_1", "des_perf_1", "matrix_mult_1", "pci_bridge32_a")
REPEAT_SHARE = 0.25
#: Submissions per second per warm worker, below what a worker serves.
RATE_PER_WORKER = 1.0
SETUP_SPAWNS = 5
#: Reported as measured, not rescaled to the reference host speed: while
#: the open loop keeps up, its rate is the arrival rate, and the time to
#: a job's first iteration is set by the HTTP round trip and the
#: daemon's poll and dispatch intervals more than by computing.  Over
#: ten seeds rescaling widened the spread of first_iter_p50_s from 0.03
#: to 0.21.  The latencies include the job itself and are rescaled.
AS_MEASURED = frozenset({
    "jobs_per_s", "first_iter_p50_s", "http.submit_s",
    "scheduler.queue_wait_s", "warm.dispatch_s", "loadgen.late_max_s"})
POLL_S = 0.02
READY_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


@dataclass
class Slot:
    due: float                       # seconds after the run starts
    spec: Dict[str, Any]
    repeat_of: Optional[int] = None  # slot index of the leader


def schedule(seed: int, seconds: float, rate: float) -> List[Slot]:
    """The seeded submission schedule: designs, job seeds, repeats, times."""
    rng = np.random.default_rng(seed)
    designs = [DESIGNS[i] for i in rng.permutation(len(DESIGNS))]
    n = max(1, int(round(seconds * rate)))
    seeds = job_seeds(rng, n)
    # Exactly REPEAT_SHARE of the slots after the first repeat, so every
    # seed has the same mix of computed and cache-served jobs.
    picked = rng.choice(n - 1, size=int(round((n - 1) * REPEAT_SHARE)),
                        replace=False)
    repeats = {1 + int(i) for i in picked}
    slots: List[Slot] = []
    leaders: List[int] = []
    for i in range(n):
        due = (i + rng.uniform(0.0, 0.5)) / rate
        if i in repeats:
            lead = leaders[int(rng.integers(len(leaders)))]
            slots.append(Slot(due, slots[lead].spec, repeat_of=lead))
        else:
            design = designs[len(leaders) % len(designs)]
            leaders.append(i)
            slots.append(Slot(due, {"design": design, "seed": seeds[i],
                                    **JOB_SHAPE}))
    return slots


class Daemon:
    """A ``repro serve`` process on an ephemeral port."""

    def __init__(self, root: str, state_dir: str, workers: int) -> None:
        os.makedirs(state_dir, exist_ok=True)
        self._log = open(os.path.join(state_dir, "daemon.log"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--state-dir", state_dir,
             "--port", "0", "--workers", str(workers)],
            cwd=root, stdout=subprocess.PIPE, stderr=self._log, text=True)
        self.client: Optional[ServiceClient] = None
        self._stopped = False

    def wait_ready(self) -> None:
        """Block until ``/healthz`` answers on the announced port."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        line = ""
        while "listening on" not in line:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, deadline - time.monotonic()))
            if not ready:
                raise TimeoutError("daemon did not announce its port")
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("daemon exited before listening")
        host, port = re.search(r"http://([\d.]+):(\d+)", line).groups()
        client = ServiceClient(host, int(port), timeout=30.0)
        while True:
            try:
                client.healthz()
                break
            except (OSError, ServiceError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)
        self.client = client

    def stop(self) -> None:
        """SIGINT (graceful drain), then wait; kill if it hangs."""
        if self._stopped:
            return
        self._stopped = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        finally:
            self._log.close()


class Poller(threading.Thread):
    """Stamps the wall time each ticket is first seen terminal."""

    def __init__(self, client: ServiceClient) -> None:
        super().__init__(name="xbench-poller", daemon=True)
        self.client = client
        self.seen: Dict[str, float] = {}
        self.errors: List[str] = []
        self.lock = threading.Lock()
        self.halt = threading.Event()

    def run(self) -> None:
        while not self.halt.is_set():
            try:
                entries = self.client.jobs()
            except (OSError, ServiceError) as err:
                self.errors.append(f"{type(err).__name__}: {err}")
            else:
                now = time.time()
                with self.lock:
                    for entry in entries:
                        if entry["terminal"]:
                            self.seen.setdefault(entry["ticket"], now)
            self.halt.wait(POLL_S)

    def count_seen(self, tickets: List[str]) -> int:
        with self.lock:
            return sum(1 for t in tickets if t in self.seen)


def _event_ts(events: List[Dict[str, Any]], kind: str) -> Optional[float]:
    for event in events:
        if event["kind"] == kind:
            return float(event["ts"])
    return None


def run(seed: int, seconds: float, tracing: bool, root: str) -> WorkloadResult:
    workers = min(2, nproc())
    slots = schedule(seed, seconds, RATE_PER_WORKER * workers)
    state_root = os.path.join(root, ".xbench", f"service-s{seed}")
    shutil.rmtree(state_root, ignore_errors=True)

    spawns: List[float] = []
    daemon = None
    try:
        for i in range(SETUP_SPAWNS):
            if daemon is not None:
                daemon.stop()
            start = time.perf_counter()
            daemon = Daemon(root, os.path.join(state_root, f"d{i}"), workers)
            daemon.wait_ready()
            spawns.append(time.perf_counter() - start)
        measured = _drive(daemon.client, slots)
    finally:
        if daemon is not None:
            daemon.stop()
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    cache = ResultCache(os.path.join(state_root, f"d{SETUP_SPAWNS - 1}",
                                     "cache"))
    return _score(slots, measured, cache, spawns, rss, tracing)


def _drive(client: ServiceClient, slots: List[Slot]) -> Dict[str, Any]:
    """Submit on schedule, wait for the tail, then read the API."""
    poller = Poller(client)
    poller.start()
    tickets: List[Optional[str]] = []      # None: refused (429/503)
    due_wall: Dict[str, float] = {}
    sends: Dict[str, tuple] = {}
    late: List[float] = []
    wall0, perf0 = time.time(), time.perf_counter()
    try:
        for slot in slots:
            delay = perf0 + slot.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            late.append(sent - perf0 - slot.due)
            try:
                entry = client.submit(slot.spec)
            except ServiceError as err:
                if err.status not in (429, 503):
                    raise
                tickets.append(None)
                continue
            ack = time.perf_counter()
            ticket = entry["ticket"]
            tickets.append(ticket)
            due_wall[ticket] = wall0 + slot.due
            sends[ticket] = (wall0 + sent - perf0, wall0 + ack - perf0)
        accepted = [t for t in tickets if t is not None]
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while (poller.count_seen(accepted) < len(accepted)
               and time.monotonic() < deadline):
            time.sleep(POLL_S)
    finally:
        poller.halt.set()
        poller.join(timeout=10.0)
    entries = {e["ticket"]: e for e in client.jobs()}
    details: Dict[str, Dict[str, Any]] = {}
    for ticket in accepted:
        entry = entries[ticket]
        result = entry.get("result") or {}
        if (entry["state"] == "done" and not entry["deduped_onto"]
                and not result.get("cached")):
            details[ticket] = {
                "events": client.events(ticket),
                "report": FlowReport.from_dict(
                    client.report(ticket)["result"]["report"]),
            }
    return {"tickets": tickets, "due": due_wall,
            "sends": sends, "late": late, "seen": dict(poller.seen),
            "entries": entries, "details": details, "stats": client.stats(),
            "poll_errors": poller.errors}


def _score(slots: List[Slot], m: Dict[str, Any], cache: ResultCache,
           spawns: List[float], rss: float, tracing: bool) -> WorkloadResult:
    entries, details = m["entries"], m["details"]
    notes: Dict[str, Any] = {"submissions": len(slots),
                             "repeats": sum(s.repeat_of is not None
                                            for s in slots),
                             "poll_errors": m["poll_errors"][:5],
                             "late_max_s": max(m["late"])}
    problems: List[str] = []
    outcomes: List[Outcome] = []
    netlists: Dict[str, Any] = {}
    builds: List[float] = []
    leader_hpwl: Dict[int, float] = {}
    leader_rows = []
    spans: List[Span] = []
    for i, (slot, ticket) in enumerate(zip(slots, m["tickets"])):
        if ticket is None:
            outcomes.append(Outcome(refused=True))
            continue
        entry = entries[ticket]
        result = entry.get("result") or {}
        done = entry["state"] == "done" and ticket in m["seen"]
        found: List[str] = []
        if done and slot.repeat_of is None:
            job = PlacementJob.from_dict(slot.spec)
            stored = cache.get(job)
            if job.design not in netlists:
                start = time.perf_counter()
                netlists[job.design] = job.load_netlist()
                builds.append(time.perf_counter() - start)
            detail = details.get(ticket)
            if stored is None or detail is None:
                found.append(f"{ticket}: leader result not found")
            else:
                found += check_placement(netlists[job.design], stored.x,
                                         stored.y, detail["report"].metrics)
                found += check_repeat(stored.hpwl, result.get("hpwl"))
                leader_hpwl[i] = result["hpwl"]
                leader_rows.append((ticket, entry, detail))
        elif done:
            lead = leader_hpwl.get(slot.repeat_of)
            if lead is None:
                found.append(f"{ticket}: repeat of an unchecked leader")
            else:
                found += check_repeat(lead, result.get("hpwl"))
        elif entry["state"] != "done":
            found.append(f"{ticket}: ended {entry['state']}: "
                         f"{result.get('error')}")
        problems.extend(found)
        outcomes.append(Outcome(done=done, check_failures=len(found)))

    latencies = open_loop_latencies(m["due"], m["seen"])
    first_iter, dispatch, queue_wait, seconds, reports = [], [], [], [], []
    resident = 0
    for ticket, entry, detail in leader_rows:
        events, report = detail["events"], detail["report"]
        loop_start = _event_ts(events, "loop_start")
        first_iter.append(loop_start - m["due"][ticket])
        dispatch.append(loop_start - entry["started_ts"])
        queue_wait.append(entry["started_ts"] - entry["submitted_ts"])
        seconds.append(entry["result"]["seconds"])
        reports.append(report)
        resident += report.metrics.get("warm") == "resident"
        spans.extend(_ticket_spans(ticket, entry, m, loop_start,
                                   _event_ts(events, "finished"), len(spans)))
    done_seen = [m["seen"][t] for t in m["due"] if t in m["seen"]
                 and entries[t]["state"] == "done"]
    metrics: Dict[str, float] = {
        "setup_s": median(spawns),
        "job_s": median(seconds),
        "final_hpwl": mean([row[1]["result"]["hpwl"] for row in leader_rows]),
        "top5_overflow": mean([d["report"].metrics["top5_overflow"]
                               for _, _, d in leader_rows]),
        "jobs_per_s": len(done_seen) / (max(done_seen) - min(m["due"].values())),
        "peak_rss_mb": rss,
    }
    metrics.update(timing_metrics("latency", latencies, notes))
    metrics["first_iter_p50_s"] = median(first_iter)
    layers: Dict[str, float] = {}
    if tracing:
        stats = m["stats"]
        counters = stats["supervisor"]["counters"]
        cache_stats = stats["cache"]
        accepted = [t for t in m["tickets"] if t is not None]
        layers = report_layers(reports, seconds)
        layers.update({
            "benchgen.make_design_s": median(builds),
            "cache.hit_share": share(cache_stats["hits"],
                                     cache_stats["hits"] + cache_stats["misses"]),
            "service.dedupe_share": share(
                sum(1 for t in accepted if entries[t]["deduped_onto"]),
                len(accepted)),
            "http.submit_s": median([b - a for a, b in m["sends"].values()]),
            "scheduler.queue_wait_s": median(queue_wait),
            "warm.dispatch_s": median(dispatch),
            "warm.resident_share": share(resident, len(leader_rows)),
            "supervision.preemptions": counters["preemptions"],
            "supervision.quarantines": counters["quarantines"],
            "pool.retries": sum(e["attempts"] - 1 for _, e, _ in leader_rows),
            "loadgen.late_max_s": max(m["late"]),
        })
    return WorkloadResult(outcomes=outcomes, metrics=metrics, layers=layers,
                          problems=problems, notes=notes, spans=spans,
                          as_measured=AS_MEASURED)


def _ticket_spans(ticket: str, entry: Dict[str, Any], m: Dict[str, Any],
                  loop_start: float, finished: Optional[float],
                  base: int) -> List[Span]:
    """One leader's request as wall-clock spans: due → seen, with the
    submit round trip, the queue wait, the warm dispatch and the run.
    ``base`` is the index the root span will have in the span list."""
    due, seen = m["due"][ticket], m["seen"][ticket]
    sent, ack = m["sends"][ticket]
    return [
        Span("request", due, seen, None, ticket),
        Span("http.submit", sent, ack, base, ticket),
        Span("scheduler.queue", entry["submitted_ts"], entry["started_ts"],
             base, ticket),
        Span("warm.dispatch", entry["started_ts"], loop_start, base, ticket),
        Span("job.run", loop_start, finished or entry["finished_ts"], base,
             ticket),
    ]
