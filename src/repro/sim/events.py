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
from typing import Iterable, Sequence

from repro.scheduler.job import Job, JobStatus

_EPS = 1e-6


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
        self._arrivals = arrivals
        self._cursor = 0
        self.tick_interval = tick_interval
        #: Cluster-dynamics events (failures/recoveries/scaling), drained by
        #: a second sorted cursor.  They are hard events like arrivals: the
        #: clock must stop exactly at each one so the simulator applies it
        #: (and re-invokes the policy) at the right instant.
        self._cluster_events = sorted(cluster_events, key=lambda e: e.time)
        self._cluster_cursor = 0
        #: Live-session side channels: arrivals/cluster events pushed after
        #: construction (streaming submissions).  ``(time, push_seq, item)``
        #: heaps — the seq breaks time ties in push order and keeps the
        #: payloads out of tuple comparison.  Empty for batch runs.
        self._pushed_arrivals: list[tuple[float, int, object]] = []
        self._pushed_events: list[tuple[float, int, object]] = []
        self._push_seq = 0
        self._heap: list[tuple[float, int, str]] = []  # (time, epoch, job_id)
        self._epochs: dict[str, int] = {}
        #: Next-event queries answered, copied onto
        #: ``SimulationResult.calendar_fast_rounds`` at the end of a run.
        self.fast_rounds = 0

    # ------------------------------------------------------------------
    # Arrivals (sorted-cursor drain)
    # ------------------------------------------------------------------
    @property
    def has_arrivals(self) -> bool:
        return bool(self._pushed_arrivals) or self._cursor < len(self._arrivals)

    def push_arrival(self, tj) -> None:
        """Enqueue a streamed job submission (live sessions only)."""
        self._push_seq += 1
        heapq.heappush(
            self._pushed_arrivals, (tj.submit_time, self._push_seq, tj)
        )

    def _next_arrival_time(self) -> float | None:
        time: float | None = None
        if self._cursor < len(self._arrivals):
            time = self._arrivals[self._cursor].submit_time
        if self._pushed_arrivals:
            pushed = self._pushed_arrivals[0][0]
            if time is None or pushed < time:
                time = pushed
        return time

    def first_arrival_time(self, default: float = 0.0) -> float:
        time = self._next_arrival_time()
        return default if time is None else time

    def pop_arrivals(self, cutoff: float) -> Iterable:
        """Consume and yield every arrival with ``submit_time <= cutoff``.

        Merges the sorted batch cursor with pushed (streamed) arrivals in
        time order; the batch entry wins ties so a partially-streamed trace
        admits in batch order.
        """
        arrivals = self._arrivals
        pushed = self._pushed_arrivals
        while True:
            batch_t = (
                arrivals[self._cursor].submit_time
                if self._cursor < len(arrivals)
                else None
            )
            push_t = pushed[0][0] if pushed else None
            if (
                batch_t is not None
                and batch_t <= cutoff
                and (push_t is None or batch_t <= push_t)
            ):
                tj = arrivals[self._cursor]
                self._cursor += 1
                yield tj
            elif push_t is not None and push_t <= cutoff:
                yield heapq.heappop(pushed)[2]
            else:
                return

    # ------------------------------------------------------------------
    # Cluster-dynamics events (sorted-cursor drain, like arrivals)
    # ------------------------------------------------------------------
    @property
    def has_cluster_events(self) -> bool:
        return bool(self._pushed_events) or (
            self._cluster_cursor < len(self._cluster_events)
        )

    def push_cluster_event(self, event) -> None:
        """Enqueue a streamed cluster-dynamics event (live sessions only)."""
        self._push_seq += 1
        heapq.heappush(self._pushed_events, (event.time, self._push_seq, event))

    def _next_cluster_event_time(self) -> float | None:
        time: float | None = None
        if self._cluster_cursor < len(self._cluster_events):
            time = self._cluster_events[self._cluster_cursor].time
        if self._pushed_events:
            pushed = self._pushed_events[0][0]
            if time is None or pushed < time:
                time = pushed
        return time

    def pop_cluster_events(self, cutoff: float) -> Iterable:
        """Consume and yield every cluster event with ``time <= cutoff``."""
        events = self._cluster_events
        pushed = self._pushed_events
        while True:
            batch_t = (
                events[self._cluster_cursor].time
                if self._cluster_cursor < len(events)
                else None
            )
            push_t = pushed[0][0] if pushed else None
            if (
                batch_t is not None
                and batch_t <= cutoff
                and (push_t is None or batch_t <= push_t)
            ):
                event = events[self._cluster_cursor]
                self._cluster_cursor += 1
                yield event
            elif push_t is not None and push_t <= cutoff:
                yield heapq.heappop(pushed)[2]
            else:
                return

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
        arrival = self._next_arrival_time()
        if arrival is not None and arrival < next_time:
            next_time = arrival
        event_time = self._next_cluster_event_time()
        if event_time is not None and event_time < next_time:
            next_time = event_time
        if policy_at is not None and now < policy_at < next_time:
            next_time = policy_at
        hint = self._earliest_hint()
        if hint is not None and hint < next_time:
            next_time = hint
        self.fast_rounds += 1
        return max(next_time, now + _EPS)
