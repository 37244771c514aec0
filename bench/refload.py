#!/usr/bin/env python3
"""Reference load: a fixed Python loop that measures the speed of a CPU.

    python3 bench/refload.py COUNTER_FILE

The CPUs this benchmark was written on change speed by up to 2x for
seconds to minutes at a time (see NOTES.md, "Noise").  A job's CPU time
alone then says as much about the host as about qlzero.  So run.py pins
itself and every process it starts to one CPU and starts this loop there,
at a lower priority (nice +10, about a tenth of the CPU).  The scheduler
interleaves it with the job in slices of milliseconds, so the loop's rate
(chunks per CPU-second) is the CPU's speed while the job runs.  A job's
CPU time times that rate, divided by the nominal rate `NOMINAL_RATE`, is
its CPU time at a fixed reference speed.

The chunk is plain Python in the style of qlzero's inner loops (integer
arithmetic, tuple polynomials with gcd, dict inserts) and shares no code
with qlzero, so a change to qlzero does not move it.  After each chunk the
loop writes (chunks done, its own CPU seconds) to COUNTER_FILE, an mmap
shared with the readers, under a sequence number.  It ends when its parent
ends or when it is terminated.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
import sys
import time

NICE = 10
# Chunks per CPU-second of the reference loop on the 2-CPU VM where this
# benchmark was written, in its fast state; it only sets the scale of the
# normalised times (they read about as many seconds as the job takes there).
NOMINAL_RATE = 1600.0

_LAYOUT = struct.Struct("<Qdd")   # sequence, chunks, CPU seconds
SIZE = _LAYOUT.size

_A = (3, 1, 4, 1, 5, 9, 2, 6)
_B = (2, 7, 1, 8, 2, 8)


def _pmul(a, b):
    cs = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                cs[i + j] += x * y
    return tuple(cs)


def chunk() -> int:
    """A fixed amount of work, 0.6 ms at the nominal speed."""
    s = 0
    for i in range(2500):
        s += i * i % 7
    memo = {}
    acc = (1,)
    for k in range(12):
        acc = _pmul(acc, _A if k % 2 else _B)
        g = 0
        for c in acc:
            g = math.gcd(g, c)
        acc = tuple(c // g for c in acc)
        memo[(k, acc[:3])] = acc
        if len(acc) > 40:
            acc = acc[:20]
    return s + len(memo)


def create(path) -> None:
    with open(path, "wb") as fh:
        fh.write(bytes(SIZE))


def open_counter(path) -> mmap.mmap:
    with open(path, "r+b") as fh:
        return mmap.mmap(fh.fileno(), SIZE)


def read(mm: mmap.mmap) -> tuple[float, float]:
    """(chunks, CPU seconds) of the reference loop, read consistently."""
    while True:
        seq, chunks, cpu = _LAYOUT.unpack_from(mm, 0)
        if seq % 2 == 0 and _LAYOUT.unpack_from(mm, 0)[0] == seq:
            return chunks, cpu
        time.sleep(0)


def rate(before: tuple[float, float], after: tuple[float, float]) -> float | None:
    """Chunks per CPU-second between two readings; None when the loop got
    too little CPU in between (under 50 ms, about 80 chunks) to tell."""
    chunks, cpu = after[0] - before[0], after[1] - before[1]
    return chunks / cpu if cpu >= 0.05 and chunks > 0 else None


def main(argv) -> int:
    os.setpriority(os.PRIO_PROCESS, 0, NICE)
    mm = open_counter(argv[0])
    parent = os.getppid()
    seq = 0
    chunks = 0
    while os.getppid() == parent:
        chunk()
        chunks += 1
        cpu = time.process_time()
        struct.pack_into("<Q", mm, 0, seq + 1)
        struct.pack_into("<dd", mm, 8, chunks, cpu)
        seq += 2
        struct.pack_into("<Q", mm, 0, seq)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
