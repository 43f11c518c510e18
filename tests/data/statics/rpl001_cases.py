"""RPL001 fixture: ambient entropy — positives, negatives, suppressions.

Not importable application code: this file exists to be parsed by the
linter in tests/test_statics.py.  Line *content* matters (it anchors
baseline identities); keep edits deliberate.
"""

import random
import time as clock
from datetime import datetime

import numpy as np


def positive_wall_clock() -> float:
    return clock.time()


def positive_datetime_now() -> str:
    return datetime.now().isoformat()


def positive_global_random() -> float:
    return random.random()


def positive_global_numpy() -> float:
    return float(np.random.exponential(2.0))


def positive_perf_timer() -> float:
    return clock.perf_counter()


def negative_seeded_stream(seed: int) -> float:
    rng = np.random.default_rng(seed)
    return float(rng.exponential(2.0))


def negative_seeded_stdlib_stream(seed: int) -> float:
    return random.Random(seed).random()


def negative_local_attribute(job) -> float:
    return job.random.draw()


def suppressed_perf_timer() -> float:
    return clock.perf_counter()  # repro-lint: disable=RPL001 -- fixture: timing stays on the perf channel
