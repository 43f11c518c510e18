"""Event calendar for the simulator's hot loop.

The simulator's clock jumps to the next of {job arrival, earliest predicted
completion, periodic tick}.  The pre-PR loop re-derived that minimum from
scratch every round: an O(n²) ``pending.pop(0)`` arrival drain plus a full
scan over active jobs to recompute every predicted completion.  This module
replaces both with incremental state:

* **Arrivals** — the trace is already sorted by submit time, so a cursor
  into it replaces the list-head pops (satellite fix: the drain is now O(n)
  total instead of O(n²)).

* **Cluster events** — cluster-dynamics streams (node failures/recoveries,
  capacity scaling; see ``repro.cluster.dynamics``) drain through a second
  sorted cursor.  They are *hard* events like arrivals: the clock stops
  exactly at each one, and a round that applied an event never takes the
  steady-state policy short-circuit (the simulator treats it like an
  arrival when deciding whether the policy must run).

* **Streamed submissions** — a live session (``Simulator.step`` driven by
  the scheduling service) pushes arrivals and cluster events *after*
  construction via :meth:`push_arrival` / :meth:`push_cluster_event`.
  Pushed entries live in side min-heaps merged with the batch cursors on
  every query; when nothing was pushed the heaps stay empty and every code
  path is byte-identical to the batch-only calendar.  Ties between a batch
  entry and a pushed entry go to the batch entry, and pushed entries at the
  same time drain in push order, so a trace streamed one job at a time
  admits in exactly the order the batch replay would.

* **Predicted completions** — a lazily-invalidated min-heap of *anchored*
  completion events.  An event is pushed whenever a job starts, resumes from
  a reconfiguration pause, or changes throughput (allocation/plan changes),
  anchored at that moment: ``anchor + remaining/throughput``.  Allocation
  changes, preemptions, and finishes bump the job's epoch, which lazily
  voids any events still in the heap (classic calendar-queue invalidation —
  stale entries are discarded when they surface at the heap top).  Job
  progress is accrued lazily from the same anchors, so a hint *is* the
  job's completion time: the simulator pops due hints
  (:meth:`pop_due_completions`) instead of scanning the active set.
"""

from __future__ import annotations

import heapq
from operator import attrgetter
from typing import Callable, Iterable, Sequence

from repro.scheduler.job import Job, JobStatus

_EPS = 1e-6


class _Stream:
    """A time-sorted batch merged with entries pushed later.

    The batch drains through a cursor and pushed entries through a
    ``(time, push_seq, item)`` min-heap: the seq keeps pushed ties in push
    order and the payloads out of tuple comparison.  A batch entry goes
    before a pushed one at the same time, and batch ties keep their batch
    order.
    """

    __slots__ = ("_batch", "_cursor", "_pushed", "_seq", "_time_of")

    def __init__(self, batch: Sequence, time_of: Callable) -> None:
        self._batch = batch
        self._cursor = 0
        self._pushed: list[tuple[float, int, object]] = []
        self._seq = 0
        self._time_of = time_of

    def __bool__(self) -> bool:
        return bool(self._pushed) or self._cursor < len(self._batch)

    def push(self, item) -> None:
        self._seq += 1
        heapq.heappush(self._pushed, (self._time_of(item), self._seq, item))

    def next_time(self) -> float | None:
        time: float | None = None
        if self._cursor < len(self._batch):
            time = self._time_of(self._batch[self._cursor])
        if self._pushed:
            pushed = self._pushed[0][0]
            if time is None or pushed < time:
                time = pushed
        return time

    def pop(self, cutoff: float) -> Iterable:
        """Consume and yield every entry due at or before ``cutoff``, in
        time order."""
        batch, pushed, time_of = self._batch, self._pushed, self._time_of
        while True:
            batch_t = (
                time_of(batch[self._cursor])
                if self._cursor < len(batch)
                else None
            )
            push_t = pushed[0][0] if pushed else None
            if (
                batch_t is not None
                and batch_t <= cutoff
                and (push_t is None or batch_t <= push_t)
            ):
                item = batch[self._cursor]
                self._cursor += 1
                yield item
            elif push_t is not None and push_t <= cutoff:
                yield heapq.heappop(pushed)[2]
            else:
                return


class EventCalendar:
    """Incremental next-event state: arrival cursor + completion heap + tick.

    ``arrivals`` must be sorted by submit time (traces are).  Completion
    tracking follows the protocol: the simulator calls :meth:`track` whenever
    a job's progress anchor changes (start, restart, new allocation/plan/
    throughput) and :meth:`invalidate` when the job stops running (finish,
    preemption, failed launch).
    """

    def __init__(
        self,
        arrivals: Sequence,
        tick_interval: float,
        cluster_events: Sequence = (),
    ):
        self._arrivals = _Stream(arrivals, attrgetter("submit_time"))
        self.tick_interval = tick_interval
        #: Cluster-dynamics events (failures/recoveries/scaling).  They are
        #: hard events like arrivals: the clock must stop exactly at each
        #: one so the simulator applies it (and re-invokes the policy) at
        #: the right instant.
        self._cluster_events = _Stream(
            sorted(cluster_events, key=lambda e: e.time), attrgetter("time")
        )
        self._heap: list[tuple[float, int, str]] = []  # (time, epoch, job_id)
        self._epochs: dict[str, int] = {}
        #: Next-event queries answered, copied onto
        #: ``SimulationResult.calendar_fast_rounds`` at the end of a run.
        self.fast_rounds = 0

    # ------------------------------------------------------------------
    # Arrivals and cluster events (sorted cursors merged with pushes)
    # ------------------------------------------------------------------
    @property
    def has_arrivals(self) -> bool:
        return bool(self._arrivals)

    def push_arrival(self, tj) -> None:
        """Enqueue a streamed job submission (live sessions only)."""
        self._arrivals.push(tj)

    def first_arrival_time(self, default: float = 0.0) -> float:
        time = self._arrivals.next_time()
        return default if time is None else time

    def pop_arrivals(self, cutoff: float) -> Iterable:
        """Consume and yield every arrival with ``submit_time <= cutoff``."""
        return self._arrivals.pop(cutoff)

    @property
    def has_cluster_events(self) -> bool:
        return bool(self._cluster_events)

    def push_cluster_event(self, event) -> None:
        """Enqueue a streamed cluster-dynamics event (live sessions only)."""
        self._cluster_events.push(event)

    def pop_cluster_events(self, cutoff: float) -> Iterable:
        """Consume and yield every cluster event with ``time <= cutoff``."""
        return self._cluster_events.pop(cutoff)

    # ------------------------------------------------------------------
    # Completion events (anchored hints, epoch-invalidated)
    # ------------------------------------------------------------------
    def track(self, job: Job, now: float) -> None:
        """(Re)anchor a job's predicted-completion event at time ``now``.

        Voids any previous event for the job; pushes a new one only if the
        job is actually progressing toward completion.
        """
        epoch = self._epochs.get(job.job_id, 0) + 1
        self._epochs[job.job_id] = epoch
        if not job.is_running:
            return
        start = now
        if job.status == JobStatus.PAUSED and job.pause_until > start:
            start = job.pause_until
        if job.throughput <= 0:
            # Degenerate but detectable: a job granted with its work already
            # (numerically) complete finishes regardless of throughput — the
            # completion check is `remaining <= eps`, not progress rate.
            # Without a hint the simulator (whose completions are driven
            # purely by this heap) would hold its resources forever.
            if job.remaining_samples <= _EPS:
                heapq.heappush(self._heap, (start, epoch, job.job_id))
            return
        heapq.heappush(
            self._heap,
            (start + job.remaining_samples / job.throughput, epoch, job.job_id),
        )

    def invalidate(self, job_id: str) -> None:
        """Void the job's completion event (lazily removed from the heap)."""
        if job_id in self._epochs:
            self._epochs[job_id] += 1

    def pop_due_completions(self, cutoff: float) -> list[str]:
        """Consume and return the job ids of every live hint ``<= cutoff``.

        Under lazy advancement the anchored prediction *is* the completion
        event, so due hints are popped and acted on directly.  Each popped
        job's epoch advances (the hint is consumed); a caller that finds a
        popped job not quite finished — ulp-level residue after many
        re-anchorings — re-``track``s it, which pushes a fresh, later hint.
        """
        due: list[str] = []
        heap = self._heap
        while heap:
            time, epoch, job_id = heap[0]
            if self._epochs.get(job_id) != epoch:
                heapq.heappop(heap)
                continue
            if time > cutoff:
                break
            heapq.heappop(heap)
            self._epochs[job_id] = epoch + 1
            due.append(job_id)
        return due

    def _earliest_hint(self) -> float | None:
        heap = self._heap
        while heap:
            time, epoch, job_id = heap[0]
            if self._epochs.get(job_id) == epoch:
                return time
            heapq.heappop(heap)
        return None

    # ------------------------------------------------------------------
    # Next event
    # ------------------------------------------------------------------
    def next_event_time(
        self, now: float, policy_at: float | None = None
    ) -> float:
        """Earliest of tick / next arrival / cluster event / policy round /
        live completion hint, and never before ``now + eps``.

        ``policy_at`` is the simulator's next pending policy round; one
        already due (``<= now``) adds no stop.
        """
        next_time = now + self.tick_interval
        arrival = self._arrivals.next_time()
        if arrival is not None and arrival < next_time:
            next_time = arrival
        event_time = self._cluster_events.next_time()
        if event_time is not None and event_time < next_time:
            next_time = event_time
        if policy_at is not None and now < policy_at < next_time:
            next_time = policy_at
        hint = self._earliest_hint()
        if hint is not None and hint < next_time:
            next_time = hint
        self.fast_rounds += 1
        return max(next_time, now + _EPS)
