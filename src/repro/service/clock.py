"""Session clocks: deterministic virtual time vs scaled real time.

The master's event loop is generic over a clock with three members:

* ``virtual`` — True when simulated time is driven *only* by frame
  timestamps.  The master then blocks indefinitely waiting for frames and
  advances the engine with push-then-``step(until=t)`` per frame, which is
  what makes a streamed replay byte-identical to a batch run (CI mode).
* ``poll_interval`` — selector timeout in seconds (None = block forever).
* ``start()`` / ``now()`` — real-time clocks anchor a wall-clock origin on
  first use and map elapsed wall time to simulated seconds via ``speed``
  (e.g. ``speed=3600`` replays a 12-hour trace in ~12 wall seconds).
  ``now()`` is None on virtual clocks: there is no autonomous time.
"""

from __future__ import annotations

import time as _time


class VirtualClock:
    """Deterministic clock: simulated time advances only on frames."""

    virtual = True
    poll_interval: float | None = None

    def start(self) -> None:
        pass

    def now(self) -> float | None:
        return None

    def describe(self) -> str:
        return "virtual"


class RealTimeClock:
    """Wall-clock-driven simulated time, scaled by ``speed``.

    Nothing a real-time session produces is persisted as a deterministic
    artifact — byte-stable replay is exactly what :class:`VirtualClock`
    exists for — so reading the wall clock here is the point, not a leak.
    """

    virtual = False

    def __init__(self, speed: float = 1.0, poll_interval: float = 0.2):
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed}")
        self.speed = speed
        self.poll_interval = poll_interval
        self._origin: float | None = None

    def start(self) -> None:
        if self._origin is None:
            self._origin = _time.monotonic()

    def now(self) -> float | None:
        if self._origin is None:
            return 0.0
        elapsed = _time.monotonic() - self._origin
        return elapsed * self.speed

    def describe(self) -> str:
        return f"real-time x{self.speed:g}"
