"""Tests for the benchmark's own arithmetic and input generation.

Run from the repository root::

    python3 -m pytest xbench/test_stats.py -q
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from stats import (Outcome, Span, covered, done_share, failed_count,  # noqa: E402
                   open_loop_latencies, rescale, self_times, speed_factor,
                   tail)


class TestTail:
    def test_leaves_ten_samples_beyond(self):
        values = list(range(1, 41))          # 40 samples
        high = tail(values)
        assert high.value == 30
        assert sum(1 for v in values if v > high.value) == 10
        assert high.percentile == 75.0
        assert high.samples == 40

    def test_eleven_samples_is_the_smallest_with_a_tail(self):
        high = tail([float(v) for v in range(11)])
        assert high.value == 0.0
        assert high.percentile == pytest.approx(100 / 11)

    def test_ten_or_fewer_samples_fall_back_to_the_maximum(self):
        high = tail([3.0, 1.0, 2.0])
        assert (high.value, high.percentile, high.samples) == (3.0, 100.0, 3)

    def test_order_does_not_matter(self):
        values = [0.5 * ((7 * i) % 23) for i in range(23)]
        assert tail(values) == tail(sorted(values))

    def test_no_samples(self):
        with pytest.raises(ValueError):
            tail([])


class TestSelfTimes:
    def test_overlapping_children_count_once(self):
        spans = [
            Span("parent", 0.0, 10.0),
            Span("a", 1.0, 4.0, parent=0),
            Span("b", 3.0, 6.0, parent=0),     # overlaps a on [3, 4]
        ]
        assert self_times(spans) == pytest.approx([5.0, 3.0, 3.0])

    def test_child_past_its_parent_only_counts_inside(self):
        spans = [Span("parent", 0.0, 10.0), Span("late", 8.0, 12.0, parent=0)]
        assert self_times(spans) == pytest.approx([8.0, 4.0])

    def test_grandchildren_only_reduce_their_own_parent(self):
        spans = [
            Span("job", 0.0, 10.0),
            Span("dp", 2.0, 8.0, parent=0),
            Span("near", 3.0, 4.0, parent=1),
            Span("near", 5.0, 7.0, parent=1),
        ]
        selves = self_times(spans)
        assert selves == pytest.approx([4.0, 3.0, 1.0, 2.0])
        # Without overlap the self times partition the root span.
        assert sum(selves) == pytest.approx(spans[0].seconds)

    def test_overlap_breaks_the_partition(self):
        spans = [Span("p", 0.0, 10.0), Span("a", 0.0, 6.0, parent=0),
                 Span("b", 4.0, 10.0, parent=0)]
        assert sum(self_times(spans)) == pytest.approx(12.0)

    def test_covered_clips_and_merges(self):
        assert covered([(1, 3), (2, 5), (9, 20)], 0, 10) == pytest.approx(5.0)
        assert covered([], 0, 10) == 0.0


class TestOpenLoop:
    def test_latency_is_timed_from_the_due_time(self):
        due = {"a": 0.0, "b": 1.0, "c": 2.0}
        seen = {"a": 2.5, "b": 3.0}          # c never finished
        assert open_loop_latencies(due, seen) == pytest.approx([2.5, 2.0])

    def test_a_late_send_is_charged_to_the_request(self):
        # Due at t=1, sent late at t=1.8 (generator stall), done at t=2:
        # the request waited 1.0s, not 0.2s.
        assert open_loop_latencies({"x": 1.0}, {"x": 2.0}) == [1.0]


class TestFailedShare:
    def test_refusals_failures_and_bad_checks_all_count(self):
        outcomes = [
            Outcome(done=True),
            Outcome(done=True),
            Outcome(refused=True),                  # HTTP 429/503
            Outcome(done=False),                    # failed or never ended
            Outcome(done=True, check_failures=2),   # wrong output
        ]
        assert failed_count(outcomes) == 3
        assert done_share(outcomes) == pytest.approx(2 / 5)

    def test_all_good(self):
        assert done_share([Outcome(done=True)] * 4) == 1.0

    def test_nothing_attempted(self):
        with pytest.raises(ValueError):
            done_share([])


class TestHostSpeed:
    def test_a_slow_host_has_a_factor_below_one(self):
        loops = [0.004, 0.005, 0.006, 0.005, 0.1]
        assert speed_factor(loops, 0.0025, 5) == pytest.approx(0.5)

    def test_too_few_probe_samples(self):
        with pytest.raises(ValueError):
            speed_factor([0.0025] * 4, 0.0025, 5)

    def test_times_and_rates_move_the_other_way(self):
        assert rescale(2.0, "s", 0.5) == pytest.approx(1.0)
        assert rescale(2.0, "1/s", 0.5) == pytest.approx(4.0)

    def test_other_units_are_left_alone(self):
        for unit in ("dbu", "tracks", "ratio", "MiB", "count"):
            assert rescale(2.0, unit, 0.5) == 2.0


class TestInputs:
    """The workload seed alone determines what the program is given."""

    def test_service_schedule_is_seeded(self):
        from service_load import REPEAT_SHARE, schedule

        first = schedule(7, 20.0, 2.0)
        assert first == schedule(7, 20.0, 2.0)
        assert first != schedule(8, 20.0, 2.0)
        assert len(first) == 40
        dues = [slot.due for slot in first]
        assert dues == sorted(dues)
        repeats = [slot for slot in first if slot.repeat_of is not None]
        # The same share for every seed: only where the repeats fall varies.
        for seed in (7, 8, 9):
            assert sum(slot.repeat_of is not None
                       for slot in schedule(seed, 20.0, 2.0)) == round(
                           REPEAT_SHARE * (len(first) - 1))
        assert first[0].repeat_of is None
        for slot in repeats:
            leader = first[slot.repeat_of]
            assert leader.repeat_of is None
            assert leader.spec == slot.spec and leader.due < slot.due
        leaders = [slot.spec for slot in first if slot.repeat_of is None]
        assert len({(s["design"], s["seed"]) for s in leaders}) == len(leaders)

    def test_batch_manifest_is_seeded_and_distinct(self):
        from batch import MANIFEST_JOBS, manifest

        specs = manifest(3)
        assert specs == manifest(3) and specs != manifest(4)
        assert len({(s["design"], s["seed"]) for s in specs}) == MANIFEST_JOBS
        designs = [s["design"] for s in specs]
        assert {designs.count(d) for d in designs} == {MANIFEST_JOBS // 4}
