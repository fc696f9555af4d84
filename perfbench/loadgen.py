"""Open-loop load generator and the max-rate search.

Two threads drive two Unix-socket connections: one sends, one reads.
Arrivals follow a Poisson schedule fixed before the phase starts, and
every request is timed from its *scheduled* send time, so a stall
charges its wait to every request queued behind it.  The generator
also reports how late it ran behind its own schedule and how much CPU
it used, so a step it could not drive is marked invalid instead of
being read as server capacity.
"""

from __future__ import annotations

import json
import math
import selectors
import socket
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from spans import percentile
from workloads import Query, encode_query, encode_reload

now = time.perf_counter

#: Connections (and sockets) the generator uses.
CONNECTIONS = 2
#: The latency limit of the max-rate search, on p99 from scheduled time.
#: On a 2-core host one worker's p99 already reads 10-22 ms at a third
#: of its capacity, so a 20 ms limit falls where p99 is flat and noisy
#: and the rate meeting it wanders by 2x between runs; at 50 ms p99
#: climbs steeply with rate and the crossing is repeatable.
P99_LIMIT_MS = 50.0
#: A step is abandoned once a request has waited this long: it has
#: failed, and a longer backlog would only delay the next step.
ABORT_AGE_S = 0.25
#: The generator fell behind when its p99 send lag exceeds this ...
LATE_LIMIT_MS = 5.0
#: ... or when it kept its own core this busy.
CPU_LIMIT = 0.9
#: Seconds to wait for the last responses of a phase.
DRAIN_S = 10.0
SWITCH_INTERVAL_S = 0.0005


@dataclass
class Sent:
    """One request as the generator saw it (times are perf_counter)."""

    query: Optional[Query]
    scheduled: float
    sent: float = 0.0
    received: float = 0.0
    ok: bool = False
    answer: object = None


@dataclass
class PhaseResult:
    rate: float
    duration: float
    requests: Dict[int, Sent]
    started: float
    ended: float
    cpu_s: float
    aborted: bool
    backlog: List[Tuple[float, int]] = field(default_factory=list)

    def queries(self) -> List[Sent]:
        return [s for s in self.requests.values() if s.query is not None]

    def reloads(self) -> List[Sent]:
        return [s for s in self.requests.values() if s.query is None]

    def latencies_ms(self) -> List[float]:
        return [(s.received - s.scheduled) * 1000.0 for s in self.queries()
                if s.received]

    def per_second(self, stat: Callable[[List[float]], float]
                   ) -> List[float]:
        """*stat* of the query latencies (ms) scheduled in each whole
        second of the phase."""
        windows: Dict[int, List[float]] = {}
        for s in self.queries():
            if s.received:
                second = int(s.scheduled - self.started)
                if second < int(self.duration):
                    windows.setdefault(second, []).append(
                        (s.received - s.scheduled) * 1000.0)
        return [stat(values) for _, values in sorted(windows.items())]

    def late_ms(self) -> List[float]:
        return [(s.sent - s.scheduled) * 1000.0
                for s in self.requests.values() if s.sent]

    @property
    def failed(self) -> int:
        return sum(1 for s in self.requests.values() if not s.ok)

    @property
    def cpu_share(self) -> float:
        wall = self.ended - self.started
        return self.cpu_s / wall if wall > 0 else 0.0

    def generator_valid(self) -> bool:
        late = self.late_ms()
        return (not late or percentile(late, 99) <= LATE_LIMIT_MS) \
            and self.cpu_share <= CPU_LIMIT

    def backlog_grew(self) -> bool:
        """Outstanding requests grew over the step: the mean over its
        last quarter exceeds twice the mean over its second quarter
        plus a batch's worth of slack."""
        if len(self.backlog) < 8:
            return False
        t0 = self.started
        span = self.duration

        def mean_in(lo, hi):
            vals = [n for t, n in self.backlog
                    if lo <= (t - t0) / span < hi]
            return sum(vals) / len(vals) if vals else 0.0

        return mean_in(0.75, 1.0) > 2 * mean_in(0.25, 0.5) + 8

    def passes(self) -> bool:
        lat = self.latencies_ms()
        return (not self.aborted and self.failed == 0 and bool(lat)
                and percentile(lat, 99) <= P99_LIMIT_MS
                and not self.backlog_grew())


def poisson_schedule(rng, rate: float, duration: float) -> List[float]:
    """Arrival offsets (seconds) of a Poisson process over *duration*."""
    offsets = []
    t = rng.expovariate(rate)
    while t < duration:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


class LoadGenerator:
    """Open-loop client over :data:`CONNECTIONS` Unix-socket connections.

    A sender thread sleeps until each request is due and writes it; the
    calling thread reads and timestamps the responses.  Separate
    threads keep either side from waiting on the other's timer.
    """

    def __init__(self, socket_path: str):
        self.socks = []
        for _ in range(CONNECTIONS):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(socket_path)
            self.socks.append(sock)
        self.next_id = 1

    def close(self) -> None:
        for sock in self.socks:
            sock.close()

    def run(self, items: Sequence[Optional[Query]],
            offsets: Sequence[float], rate: float, duration: float,
            abort: bool = False) -> PhaseResult:
        """Send ``items[i]`` (a query, or None for a ``reload`` op) at
        ``offsets[i]`` seconds after the start, and wait for every
        response.  ``abort=True`` stops sending once a request has
        waited :data:`ABORT_AGE_S`."""
        n = len(offsets)
        rids = list(range(self.next_id, self.next_id + n))
        self.next_id += n
        payloads = [
            encode_reload(rid) if item is None else encode_query(item, rid)
            for item, rid in zip(items, rids)
        ]
        socks = self.socks
        fifo: List[deque] = [deque() for _ in socks]
        requests: Dict[int, Sent] = {}
        counts = {"sent": 0}
        stop = threading.Event()
        start = now() + 0.005

        def send_all() -> None:
            for i in range(n):
                due = start + offsets[i]
                delay = due - now()
                if delay > 0:
                    time.sleep(delay)
                if stop.is_set():
                    return
                k = i % len(socks)
                requests[rids[i]] = Sent(items[i], due, now())
                fifo[k].append(rids[i])
                counts["sent"] += 1
                socks[k].sendall(payloads[i])

        sender = threading.Thread(target=send_all, name="perfbench-send")
        # The default 5 ms interpreter switch interval would let the
        # reader hold the sender off for whole milliseconds.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        cpu0 = time.process_time()
        sender.start()
        sel = selectors.DefaultSelector()
        for k, sock in enumerate(socks):
            sel.register(sock, selectors.EVENT_READ, k)
        inbuf = [b"" for _ in socks]
        backlog: List[Tuple[float, int]] = []
        received_count = 0
        aborted = False
        next_sample = start
        deadline = start + duration + DRAIN_S
        try:
            while True:
                t = now()
                outstanding = counts["sent"] - received_count
                if t >= next_sample:
                    backlog.append((t, outstanding))
                    next_sample = t + 0.02
                if abort and not aborted and outstanding:
                    heads = [q[0] for q in fifo if q]
                    if heads and t - min(
                            requests[r].scheduled for r in heads
                    ) > ABORT_AGE_S:
                        aborted = True
                        stop.set()
                if not sender.is_alive() and outstanding == 0:
                    break
                if t > deadline:
                    break
                for key, _ in sel.select(0.01):
                    k = key.data
                    data = socks[k].recv(1 << 18)
                    if not data:
                        raise ConnectionError("server closed the connection")
                    received = now()
                    *lines, inbuf[k] = (inbuf[k] + data).split(b"\n")
                    for line in lines:
                        doc = json.loads(line)
                        rid = doc.get("id")
                        if fifo[k][0] == rid:
                            fifo[k].popleft()
                        else:
                            fifo[k].remove(rid)
                        req = requests[rid]
                        req.received = received
                        req.ok = bool(doc.get("ok"))
                        req.answer = doc.get("answer", doc.get("result"))
                        received_count += 1
        finally:
            stop.set()
            sender.join()
            sel.close()
            sys.setswitchinterval(switch_interval)
        ended = now()
        return PhaseResult(rate, duration, requests, start, ended,
                           time.process_time() - cpu0, aborted, backlog)


@dataclass
class Step:
    rate: float
    passed: bool
    valid: bool
    p99_ms: float
    late_p99_ms: float
    cpu_share: float
    aborted: bool
    backlog_grew: bool
    failed: int
    requests: int

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def summarize(result: PhaseResult) -> Step:
    lat = result.latencies_ms()
    late = result.late_ms()
    return Step(
        rate=result.rate,
        passed=result.passes(),
        valid=result.generator_valid(),
        p99_ms=percentile(lat, 99) if lat else math.inf,
        late_p99_ms=percentile(late, 99) if late else 0.0,
        cpu_share=result.cpu_share,
        aborted=result.aborted,
        backlog_grew=result.backlog_grew(),
        failed=result.failed,
        requests=len(result.requests),
    )


def search_max_rate(run_step: Callable[[float], Step], start_rate: float,
                    steps: int, growth: float = 1.5,
                    passed: Optional[float] = None
                    ) -> Tuple[float, List[Step]]:
    """The highest rate that passes, from *steps* trials.

    Rates grow by *growth* from *start_rate* until one fails, or halve
    until one passes; then they shrink by *growth* until the bracket
    between the highest pass and the lowest failure is one growth
    factor wide, and that bracket is bisected geometrically.  A step
    the generator could not drive says nothing about the server: it
    counts as neither pass nor failure, and the rate is tried again.
    *passed* is
    a rate already known to pass.  Returns the middle of the final
    bracket once it is that narrow, else the highest pass (0.0 if
    none), and the steps.
    """
    lo: Optional[float] = passed
    hi: Optional[float] = None
    rate = start_rate
    history: List[Step] = []
    for _ in range(steps):
        step = run_step(rate)
        history.append(step)
        if not step.valid:
            continue  # the generator fell behind: try the rate again
        if step.passed:
            lo = rate if lo is None else max(lo, rate)
        else:
            hi = rate if hi is None else min(hi, rate)
        if hi is None:
            rate = lo * growth
        elif lo is None:
            # Nothing has passed yet: halve, so a slow host still ends
            # with a passing rate rather than none.
            rate = hi / 2
        elif hi / lo > growth * 1.001:
            # Step down rather than bisect a wide bracket, so one
            # unlucky step cannot send the search far below capacity.
            rate = hi / growth
        else:
            rate = math.sqrt(lo * hi)
    if lo is not None and hi is not None and hi / lo <= growth * 1.001:
        # The boundary lies in (lo, hi); its geometric middle halves the
        # error of reporting either end.
        return math.sqrt(lo * hi), history
    return (lo or 0.0), history


def interleave(stream: Iterator[Query], n: int,
               reload_every: Optional[int], counter: List[int]
               ) -> List[Optional[Query]]:
    """The next *n* requests: queries from *stream*, with a reload op
    (None) after every *reload_every* requests, counted across phases
    in ``counter[0]``."""
    items: List[Optional[Query]] = []
    for _ in range(n):
        counter[0] += 1
        if reload_every and counter[0] % reload_every == 0:
            items.append(None)
        else:
            items.append(next(stream))
    return items
