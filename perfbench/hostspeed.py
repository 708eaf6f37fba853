"""How fast the host runs fixed interpreter work, sampled during a run.

The reference host is shared: a fixed pure-Python loop runs there at
0.57-1.0 of its best speed, in phases from seconds to minutes long, and
CPU time drifts as much as wall time (contention for the cores and their
caches, not preemption).  A whole 20 s run can fall in a slow phase, so
plain wall times of one fixed program spread by up to half between runs.

:class:`HostSpeed` times a fixed calibration kernel every
``EVERY_S`` seconds of timed operations and reports the mean.  The
kernel runs in a separate, idle-waiting child process, so nothing the
program does -- its heap, its garbage collector, its peak memory -- can
change the kernel's time; only the host can.  The runner divides the
timed phase's times by :meth:`HostSpeed.slowdown`, the kernel's mean
time over ``REFERENCE_S``: they are reported in seconds of the reference
host running at its usual speed.

Run as a script, this module is that child: it builds the kernel's data,
then answers each line on stdin with the kernel's time in seconds.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import time
from random import Random
from typing import List

#: Mean kernel time on the reference host (2 shared CPUs, Python 3.11),
#: measured in quiet phases.  Only the ratio to it matters.
REFERENCE_S = 0.0135
#: A kernel sample after at least this much timed work.
EVERY_S = 0.25

#: The kernel's data: small objects (~1 MB, within a core's own cache,
#: so what the program leaves in the shared cache does not change the
#: kernel's time) walked in a fixed pseudo-random order.
NODES = 4_000
STEPS = 20_000
#: Samples taken and dropped before the timed phase (the child's first
#: ones run cold).
WARM_UP = 2


class _Node:
    __slots__ = ("key", "next", "tags")

    def __init__(self, key: int):
        self.key = key
        self.next = None
        self.tags = {key & 15: key, (key >> 4) & 15: key + 1}


def build(seed: int = 12345) -> List[_Node]:
    nodes = [_Node(k) for k in range(NODES)]
    order = list(range(NODES))
    Random(seed).shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        nodes[a].next = nodes[b]
    return nodes


def kernel(nodes: List[_Node]) -> int:
    """Fixed interpreter work: pointer chasing, dict and set updates,
    tuple building and a sort.  Returns a checksum so nothing is elided."""
    node = nodes[0]
    seen = set()
    counts = {}
    acc = 0
    for _ in range(STEPS):
        node = node.next
        tag = node.tags.get(node.key & 15, 0)
        counts[tag & 1023] = counts.get(tag & 1023, 0) + 1
        if node.key % 3 == 0:
            seen.add((node.key, tag))
        acc += tag
    acc += sum(k * v for k, v in sorted(counts.items())[:64]) + len(seen)
    return acc


def _child() -> int:
    nodes = build()
    gc.freeze()
    gc.disable()
    for _line in sys.stdin:
        t0 = time.perf_counter()
        kernel(nodes)
        sys.stdout.write(f"{time.perf_counter() - t0!r}\n")
        sys.stdout.flush()
    return 0


class HostSpeed:
    """Kernel samples taken from a child process while the run waits."""

    def __init__(self):
        self.samples: List[float] = []
        self._since = 0.0
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        for _ in range(WARM_UP):
            self.sample()
        self.samples.clear()

    def sample(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("host-speed child process ended")
        value = float(line)
        self.samples.append(value)
        self._since = 0.0
        return value

    def after(self, elapsed_s: float) -> None:
        """Note *elapsed_s* of timed work; sample once ``EVERY_S`` has
        accumulated."""
        self._since += elapsed_s
        if self._since >= EVERY_S:
            self.sample()

    def slowdown(self) -> float:
        """Mean kernel time over its reference time: 1.0 at the reference
        host's usual speed, above 1 when the host runs slower."""
        return sum(self.samples) / len(self.samples) / REFERENCE_S

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    sys.exit(_child())
