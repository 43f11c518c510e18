"""Physical units and constants used throughout the library.

All quantities in the library are plain floats in SI base units:

* time      — seconds
* memory    — bytes
* bandwidth — bytes / second
* work      — training samples (a job's progress unit)

The exception is what the scheduler allocates (``ResourceVector``): GPUs,
CPUs and host-memory bytes are integers.

The helpers here exist so call sites read as ``4 * GiB`` or
``seconds(minutes=5)`` instead of raw magic numbers.
"""

from __future__ import annotations

#: Decimal byte multiples (used for marketing-style bandwidths, e.g. 100 GB/s).
KB = 1e3
MB = 1e6
GB = 1e9
TB = 1e12

#: Binary byte multiples (used for device memory sizes, e.g. 80 GiB HBM).
KiB = 1024.0
MiB = 1024.0**2
GiB = 1024.0**3
TiB = 1024.0**4

#: Time multiples, in seconds.
MS = 1e-3
SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 24 * HOUR

#: Bytes per element for the numeric formats that appear in the memory model.
BYTES_FP16 = 2
BYTES_FP32 = 4
#: Adam keeps an fp32 master copy plus two fp32 moments per parameter.
ADAM_STATE_BYTES_PER_PARAM = 3 * BYTES_FP32


def seconds(*, hours: float = 0.0, minutes: float = 0.0, secs: float = 0.0) -> float:
    """Build a duration in seconds from mixed components."""
    return hours * HOUR + minutes * MINUTE + secs


def fmt_bytes(num_bytes: float) -> str:
    """Render a byte count as a short human-readable string (binary units)."""
    if num_bytes < 0:
        return "-" + fmt_bytes(-num_bytes)
    for unit, name in ((TiB, "TiB"), (GiB, "GiB"), (MiB, "MiB"), (KiB, "KiB")):
        if num_bytes >= unit:
            return f"{num_bytes / unit:.2f} {name}"
    return f"{num_bytes:.0f} B"


def fmt_duration(secs: float) -> str:
    """Render a duration as ``1h23m``, ``4m10s`` or ``12.3s``."""
    if secs < 0:
        return "-" + fmt_duration(-secs)
    if secs >= HOUR:
        hours = int(secs // HOUR)
        minutes = int((secs - hours * HOUR) // MINUTE)
        return f"{hours}h{minutes:02d}m"
    if secs >= MINUTE:
        minutes = int(secs // MINUTE)
        rem = secs - minutes * MINUTE
        return f"{minutes}m{rem:02.0f}s"
    return f"{secs:.1f}s"
