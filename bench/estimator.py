"""Turning completion samples into end-to-end numbers.

A sample is one completed call seen at the calling service:
``(done_ns, latency_ns, flags)`` on the ``time.perf_counter_ns`` clock.
Everything here is a pure function of the samples and the run's start
and end stamps, so the estimator is tested on synthetic data.

**Quiet-window estimator.** Completions are bucketed by wall-clock
second from the run's start. The first ``WARMUP_BUCKETS`` buckets
(cache and plan warm-up) and anything after the last whole second are
dropped; of the rest, the quarter with the most completions is kept.
Throughput is the mean rate over the kept buckets and the latency
metrics pool the calls that completed in them. Contention from the
host only ever makes a bucket slower, so this estimates the program
running uncontended. It is biased optimistic — the maximum of noisy
buckets sits above their mean — by the same amount on both sides of a
comparison; the whole-run values are printed beside it for that reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

NS_PER_S = 1_000_000_000

#: One-second buckets dropped from the start of a run as warm-up.
WARMUP_BUCKETS = 3

#: Sample flag bits.
FLAG_FAULT = 1   # the reply was a SOAP fault
FLAG_ORDER = 2   # a TPC-W buy_confirm: bookstore -> PGE -> bank
FLAG_WRONG = 4   # the reply failed the workload's output check


class Sample(NamedTuple):
    done_ns: int
    latency_ns: int
    flags: int


def decode_samples(flat: list[int]) -> list[Sample]:
    """Samples from the flat integer list the app probe carries."""
    if len(flat) % 3:
        raise ValueError(f"sample list of {len(flat)} integers is not triples")
    return [Sample(*flat[i:i + 3]) for i in range(0, len(flat), 3)]


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (``0 < q <= 1``)."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass(frozen=True)
class Window:
    """The part of a run the gated metrics are computed over."""

    #: Total length of the kept intervals, in seconds.
    seconds: float
    #: Calls that completed inside them.
    samples: tuple[Sample, ...]
    #: Kept one-second bucket indices (empty for a contiguous window).
    buckets: tuple[int, ...] = ()

    @property
    def throughput_rps(self) -> float:
        return len(self.samples) / self.seconds

    def latency_ms(self, q: float, flag: int = 0) -> float:
        """Latency percentile over the window, optionally of the calls
        carrying ``flag`` only (all calls when none carries it)."""
        chosen = [s for s in self.samples if s.flags & flag] if flag else []
        pool = chosen or self.samples
        return percentile(sorted(s.latency_ns for s in pool), q) / 1e6

    def count(self, flag: int) -> int:
        return sum(1 for s in self.samples if s.flags & flag)


def quiet_window(
    samples: list[Sample],
    start_ns: int,
    end_ns: int,
    warmup: int = WARMUP_BUCKETS,
) -> Window:
    """The busiest quarter of the run's whole one-second buckets."""
    whole = (end_ns - start_ns) // NS_PER_S
    if whole < 1:
        raise ValueError("run is shorter than one whole second")
    # A very short run gives up warm-up buckets before it gives up its
    # only measurable one.
    first = min(warmup, whole - 1)
    per_bucket: dict[int, list[Sample]] = {i: [] for i in range(first, whole)}
    for sample in samples:
        bucket = per_bucket.get((sample.done_ns - start_ns) // NS_PER_S)
        if bucket is not None:
            bucket.append(sample)
    keep = math.ceil(len(per_bucket) / 4)
    # Ties go to the earlier bucket so the choice is a function of the
    # counts alone.
    busiest = sorted(per_bucket, key=lambda i: (-len(per_bucket[i]), i))[:keep]
    chosen = tuple(sorted(busiest))
    return Window(
        seconds=float(keep),
        samples=tuple(s for i in chosen for s in per_bucket[i]),
        buckets=chosen,
    )


def span_window(samples: list[Sample], from_ns: int, end_ns: int) -> Window:
    """Everything completing in ``[from_ns, end_ns)``: the window of the
    ``failover`` workload, which opens when the fault fires."""
    if end_ns <= from_ns:
        raise ValueError("empty span")
    return Window(
        seconds=(end_ns - from_ns) / NS_PER_S,
        samples=tuple(s for s in samples if from_ns <= s.done_ns < end_ns),
    )


def longest_gap_s(samples: list[Sample], from_ns: int, end_ns: int) -> float:
    """Longest time without a completion inside ``[from_ns, end_ns]``."""
    stamps = [from_ns]
    stamps += sorted(s.done_ns for s in samples if from_ns <= s.done_ns < end_ns)
    stamps.append(end_ns)
    return max(b - a for a, b in zip(stamps, stamps[1:])) / NS_PER_S


def recovery_ratio(
    samples: list[Sample], start_ns: int, fault_ns: int, end_ns: int
) -> float:
    """Completion rate over the last third of the run divided by the rate
    over the second half of the time before ``fault_ns``; 1.0 is full
    recovery (and what a fault-free run reads, give or take noise)."""
    before_from = start_ns + (fault_ns - start_ns) // 2
    tail_from = end_ns - (end_ns - start_ns) // 3
    before = span_window(samples, before_from, fault_ns).throughput_rps
    if before == 0:
        raise ValueError("no completion before the fault to compare against")
    return span_window(samples, tail_from, end_ns).throughput_rps / before
