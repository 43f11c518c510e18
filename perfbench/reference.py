"""A fixed reference program that gauges the host's current speed.

    python3 perfbench/reference.py

It does the same work every time, and nothing of ``repro``: it starts an
interpreter, imports numpy, gathers at random from a 64 MB array, walks a
shuffled linked list of 200k small objects and fills a dict.  The host's
slowdowns come mostly from its memory system being shared, so the work is
memory-bound like the workloads' own.  ``run.py`` launches it before every
timed repetition (see perfbench/README.md).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np


def main() -> None:
    rng = np.random.default_rng(0)
    array = rng.random(8_000_000)
    index = rng.integers(0, array.size, 2_000_000)
    gathered = sum(float(array[index].sum()) for _ in range(4))
    nodes = [SimpleNamespace(value=i, next=None) for i in range(200_000)]
    order = rng.permutation(len(nodes)).tolist()
    for a, b in zip(order, order[1:]):
        nodes[a].next = nodes[b]
    node, walked = nodes[order[0]], 0
    while node is not None:
        walked += node.value
        node = node.next
    table = {(i * 2654435761) % 1_000_003: i for i in range(200_000)}
    assert gathered > 0 and walked == sum(range(200_000)) and table


if __name__ == "__main__":
    main()
