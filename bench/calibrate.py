"""A fixed calibration kernel that measures how fast the host runs Python now.

The host this benchmark was built on gives it two vCPUs of a shared machine,
and its speed wanders by up to 1.8x over seconds to minutes. ``run.py`` runs
this kernel before each repetition and after the last, and reports body and
set-up times scaled by ``REFERENCE_S / mean(kernel time)``: seconds on a host
as fast as the reference one. A slow stretch of the host slows the kernel
and the body alike, so the ratio cancels most of it.

The kernel is independent of ``elastidebt``: a change to the program cannot
change its cost. It mimics what the simulator does most: a heap of
``(time, priority, seq, id, work)`` events over a few slotted servers with
FIFO queues, dictionary lookups and float arithmetic, drawn from a fixed
seed. It allocates little on purpose: a variant that also allocated 100 000
request objects tracked the simulator's body times worse in interleaved runs.

Usage::

    python3 bench/calibrate.py     # prints the kernel's time, five times
"""

from __future__ import annotations

import random
import time
from collections import deque
from heapq import heappop, heappush

# typical kernel time on the reference host (2 vCPUs of a shared 2.1 GHz
# x86-64 host, CPython 3.11); scaled times are seconds on a host this fast
REFERENCE_S = 0.3
_EVENTS = 120_000
_SERVERS = 24


class _Server:
    __slots__ = ("id", "speed", "queue", "busy_until", "served")

    def __init__(self, i: int, speed: float) -> None:
        self.id = i
        self.speed = speed
        self.queue: deque = deque()
        self.busy_until = 0.0
        self.served = 0


def _event_heap(rng: random.Random) -> float:
    servers = {i: _Server(i, 1.0 + 0.1 * (i % 5)) for i in range(_SERVERS)}
    heap: list = []
    seq = 0
    now = 0.0
    total = 0.0
    for _ in range(_EVENTS):
        now += rng.expovariate(40.0)
        heappush(heap, (now, 1, seq, rng.randrange(_SERVERS), rng.uniform(0.1, 1.0)))
        seq += 1
        while heap and heap[0][0] <= now:
            t, prio, _, sid, work = heappop(heap)
            srv = servers[sid]
            if prio == 1:
                srv.queue.append(work)
                if srv.busy_until <= t:
                    srv.busy_until = t + srv.queue[0] / srv.speed
                    heappush(heap, (srv.busy_until, 0, seq, sid, 0.0))
                    seq += 1
            elif srv.queue:
                total += srv.queue.popleft() * (t - srv.busy_until + 1.0)
                srv.served += 1
                if srv.queue:
                    srv.busy_until = t + srv.queue[0] / srv.speed
                    heappush(heap, (srv.busy_until, 0, seq, sid, 0.0))
                    seq += 1
    return total + sum(s.served for s in servers.values())


def calibrate() -> float:
    """Run the kernel once; returns its wall time in seconds."""
    rng = random.Random(20170222)
    started = time.perf_counter()
    _event_heap(rng)
    return time.perf_counter() - started


if __name__ == "__main__":
    for _ in range(5):
        print(f"{calibrate():.4f}")
