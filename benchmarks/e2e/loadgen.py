"""Open-loop HTTP load generator for the serve workload.

One asyncio process sends requests on a fixed schedule — request ``i``
of a step is *due* at ``start + i / rate`` whether or not earlier
requests have answered — with at most ``max_inflight`` connections
open at once.  A request that finds every connection busy waits, and
that wait counts: latency is timed from the request's due time, not
from when it was finally sent, so a server stall charges every request
queued behind it.  The generator also records how late it sent each
request and how many due requests were still unsent (the backlog).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field


@dataclass
class Outcome:
    """One request's timeline (event-loop clock seconds) and response."""

    path: str
    kind: str
    due: float
    sent: float = 0.0
    late: float = 0.0
    connected: float = 0.0
    done: float = 0.0
    status: int = 0
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its last response byte."""
        return self.done - self.due


@dataclass
class StepReport:
    """Outcomes of one fixed-rate step plus the generator's own health."""

    elapsed: float
    outcomes: list[Outcome]
    backlog_max: int

    def latencies(self, kind: str) -> list[float]:
        return [o.latency for o in self.outcomes if o.kind == kind and o.status == 200]


async def fetch(host: str, port: int, path: str, timeout: float,
                outcome: Outcome | None = None) -> Outcome:
    """One ``GET`` on a fresh connection (the server closes after each)."""
    loop = asyncio.get_running_loop()
    if outcome is None:
        now = loop.time()
        outcome = Outcome(path, "probe", now, now)
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
    except (OSError, asyncio.TimeoutError):
        outcome.done = loop.time()
        return outcome
    outcome.connected = loop.time()
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n"
            .encode("latin-1")
        )
        data = await asyncio.wait_for(reader.read(), timeout)
    except (OSError, asyncio.TimeoutError):
        data = b""
    finally:
        writer.close()
    outcome.done = loop.time()
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) >= 2 and parts[1].isdigit():
        outcome.status = int(parts[1])
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                outcome.headers[name.strip().lower()] = value.strip()
        outcome.body = body
    return outcome


async def run_step(host: str, port: int, requests: list[tuple[str, str]],
                   rate: float, max_inflight: int = 2,
                   timeout: float = 60.0) -> StepReport:
    """Send ``requests`` (``(path, kind)``) open-loop at ``rate`` per second."""
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(max_inflight)
    start = loop.time() + 0.01
    tasks: list[asyncio.Task] = []
    backlog_max = 0

    async def send(outcome: Outcome) -> Outcome:
        try:
            return await fetch(host, port, outcome.path, timeout, outcome)
        finally:
            slots.release()

    previous = start
    for index, (path, kind) in enumerate(requests):
        due = start + index / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        # The generator's own lateness: how long after the request could
        # first go — when due, or when the previous one got a connection
        # — the loop got round to it.  Waiting for a connection is the
        # server's backlog and counts in latency instead.
        late = loop.time() - max(due, previous)
        await slots.acquire()
        sent = previous = loop.time()
        # Due-but-unsent requests at this instant, this one included.
        due_by_now = min(len(requests), int((sent - start) * rate) + 1)
        backlog_max = max(backlog_max, due_by_now - index)
        outcome = Outcome(path, kind, due, sent, late)
        tasks.append(asyncio.create_task(send(outcome)))
    outcomes = list(await asyncio.gather(*tasks))
    return StepReport(
        elapsed=loop.time() - start, outcomes=outcomes, backlog_max=backlog_max
    )


async def scrape_counters(host: str, port: int, timeout: float = 10.0) -> dict:
    """The server's ``/metrics`` counters (JSON snapshot)."""
    outcome = await fetch(host, port, "/metrics", timeout)
    if outcome.status != 200:
        raise RuntimeError(f"/metrics answered {outcome.status}")
    return json.loads(outcome.body)["counters"]
