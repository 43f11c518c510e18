"""Physical units and constants used throughout the library.

All quantities in the library are plain floats in SI base units:

* time      — seconds
* memory    — bytes
* bandwidth — bytes / second
* work      — training samples (a job's progress unit)

The exception is what the scheduler allocates (``ResourceVector``): GPUs,
CPUs and host-memory bytes are integers.

The constants here exist so call sites read as ``4 * GiB`` or
``5 * MINUTE`` instead of raw magic numbers.
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


def fmt_bytes(num_bytes: float) -> str:
    """Render a byte count as a short human-readable string (binary units)."""
    if num_bytes < 0:
        return "-" + fmt_bytes(-num_bytes)
    for unit, name in ((TiB, "TiB"), (GiB, "GiB"), (MiB, "MiB"), (KiB, "KiB")):
        if num_bytes >= unit:
            return f"{num_bytes / unit:.2f} {name}"
    return f"{num_bytes:.0f} B"
