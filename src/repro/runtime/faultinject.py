"""Deterministic fault injection.

A :class:`FaultInjector` owns a set of *injection points* — string
names for call sites (``"experiment:E6"``, ``"link:cdmx-gdl"``).  Code
under test routes calls through :meth:`FaultInjector.call`; the
injector then decides, deterministically from its seed, whether to let
the call through, raise, hang, corrupt the return value, or inject a
process/disk fault: ``kill`` (the process dies by signal, like an OOM
kill or segfault), ``oom`` (a bounded allocation burst ending in
MemoryError), or ``enospc`` (``OSError(ENOSPC)``, a full disk).

Process-level faults exist to chaos-test the parallel runtime, so
``kill`` only fires inside a process marked as a pool worker
(:func:`mark_worker_process`); everywhere else it passes through.  An
injector can also be installed as a scoped setting
(:func:`use_fault_injector`) so the :mod:`repro.io` write points can
consult it without carrying an injector argument — that is how
``enospc`` reaches the artifact cache and checkpoint writes.

Determinism is the point: the decision sequence for a point depends
only on ``(seed, point)``, so a failing schedule reproduces exactly,
and two injectors with the same seed fire identically.  This serves
two masters:

- the :class:`repro.runtime.runner.SuiteRunner` tests, which need
  "crash E6 twice, then succeed" to be a one-liner, and
- netsim resilience studies, where "links fail with probability p"
  must replay bit-for-bit across sweeps.

Example:
    >>> from repro.runtime.faultinject import FaultInjector
    >>> inj = FaultInjector(seed=0)
    >>> spec = inj.register("double", mode="raise", times=2)
    >>> def work():
    ...     return "ok"
    >>> for _ in range(2):
    ...     try:
    ...         inj.call("double", work)
    ...     except RuntimeError:
    ...         pass
    >>> inj.call("double", work)  # third call: fault budget spent
    'ok'
"""

from __future__ import annotations

import contextlib
import errno
import os
import random
import signal
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = [
    "DISK_DAMAGE_MODES",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "current_fault_injector",
    "in_worker_process",
    "mark_worker_process",
    "use_fault_injector",
]

#: Supported fault modes.  The first three are *in-process* faults (an
#: exception, a stall, a damaged return value); ``kill``/``oom``/
#: ``enospc`` are *process/disk* faults for chaos testing the parallel
#: runtime: ``kill`` takes the whole worker process down with a signal,
#: ``oom`` performs a bounded allocation burst and then fails the
#: allocation, and ``enospc`` raises ``OSError(ENOSPC)`` as a full disk
#: would.  ``bitrot``/``truncate`` are *post-write damage* faults: they
#: never raise, and instead corrupt a **completed** file when the
#: writer offers it through :meth:`FaultInjector.damage_file` (the
#: artifact cache does, after every ``put``) — flipping one byte or
#: cutting the tail, exactly like silent media corruption or a torn
#: replication copy.
MODES = ("raise", "hang", "corrupt", "kill", "oom", "enospc", "bitrot", "truncate")

#: Modes that damage bytes already on disk instead of failing the call.
#: They are inert in :meth:`FaultInjector.call`/:meth:`~FaultInjector.check`
#: (the write succeeds untouched) and fire only through
#: :meth:`FaultInjector.damage_file`.
DISK_DAMAGE_MODES = ("bitrot", "truncate")

#: Process-level modes that only fire inside a pool worker process (a
#: ``kill`` in the coordinating parent would take the suite down with
#: it, which is the opposite of what chaos testing wants to observe).
WORKER_ONLY_MODES = ("kill",)

_in_worker_process = False


def mark_worker_process() -> None:
    """Flag this process as a pool worker (set by the worker initializer).

    Worker-only fault modes (``kill``) pass through untouched until
    this is called, so the same injector config is safe at
    ``workers=1`` — the determinism tests rely on that to compare a
    chaos run against its sequential twin.
    """
    global _in_worker_process
    _in_worker_process = True


def in_worker_process() -> bool:
    """True when this process was marked as a pool worker."""
    return _in_worker_process


#: The injector instrumented write points consult, or None: scoped
#: like every other ambient setting (see :func:`use_fault_injector`).
_active_injector: ContextVar["FaultInjector | None"] = ContextVar(
    "fault_injector", default=None
)


def current_fault_injector() -> "FaultInjector | None":
    """The injector in effect for instrumented write points, or None."""
    return _active_injector.get()


@contextlib.contextmanager
def use_fault_injector(injector: "FaultInjector | None") -> Iterator[None]:
    """Install ``injector`` for the duration of the block.

    Call sites that cannot carry an injector argument — the
    :mod:`repro.io` write paths above all — consult
    :func:`current_fault_injector` instead, so disk faults (``enospc``)
    can reach them without threading an injector through every API.
    The setting is scoped to the current thread (and context).
    ``None`` is accepted and leaves the previous injector installed,
    which lets callers wrap unconditionally.
    """
    if injector is None:
        yield
        return
    token = _active_injector.set(injector)
    try:
        yield
    finally:
        _active_injector.reset(token)


class InjectedFault(RuntimeError):
    """Default exception raised by a ``mode="raise"`` injection point."""


@dataclass
class FaultSpec:
    """Configuration of one injection point.

    Attributes:
        point: Injection-point name.
        mode: ``"raise"``, ``"hang"``, or ``"corrupt"``.
        probability: Chance each call trips the fault (1.0 = always).
        times: Stop firing after this many faults (None = unlimited).
        exception: Factory for the exception ``mode="raise"`` raises.
        hang_seconds: How long ``mode="hang"`` blocks before returning
            normally (a runner deadline should expire first).
        corrupt: Maps the true return value to the corrupted one for
            ``mode="corrupt"``; default replaces it with None.
        kill_signal: Signal ``mode="kill"`` delivers to its own process
            (default ``SIGKILL`` — uncatchable, like the OOM killer).
        oom_bytes: Size of the bounded allocation burst ``mode="oom"``
            performs before failing the allocation with MemoryError.
        fired: How many faults this point has injected so far.
        calls: How many times this point has been reached.
    """

    point: str
    mode: str = "raise"
    probability: float = 1.0
    times: int | None = None
    exception: Callable[[], BaseException] = field(
        default=lambda: InjectedFault("injected fault")
    )
    hang_seconds: float = 60.0
    corrupt: Callable[[object], object] = field(default=lambda value: None)
    kill_signal: int = signal.SIGKILL
    oom_bytes: int = 32 * 1024 * 1024
    fired: int = 0
    calls: int = 0


class FaultInjector:
    """A seeded registry of injection points.

    Args:
        seed: Root seed.  Each point draws from its own
            ``random.Random`` stream keyed by ``(seed, point)``, so
            registration order and cross-point interleaving never
            change a point's decision sequence.
        sleep: Sleep function ``mode="hang"`` uses (injectable so tests
            can hang on a fake clock).
    """

    def __init__(
        self, seed: int = 0, *, sleep: Callable[[float], None] = time.sleep
    ) -> None:
        self.seed = seed
        self._sleep = sleep
        self._specs: dict[str, FaultSpec] = {}
        self._rngs: dict[str, random.Random] = {}

    def register(
        self,
        point: str,
        *,
        mode: str = "raise",
        probability: float = 1.0,
        times: int | None = None,
        exception: Callable[[], BaseException] | None = None,
        hang_seconds: float = 60.0,
        corrupt: Callable[[object], object] | None = None,
        kill_signal: int = signal.SIGKILL,
        oom_bytes: int = 32 * 1024 * 1024,
    ) -> FaultSpec:
        """Arm ``point`` with a fault; returns the live :class:`FaultSpec`."""
        if mode not in MODES:
            raise ValueError(f"unknown fault mode {mode!r}; known: {MODES}")
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        spec = FaultSpec(
            point=point,
            mode=mode,
            probability=probability,
            times=times,
            hang_seconds=hang_seconds,
            kill_signal=int(kill_signal),
            oom_bytes=oom_bytes,
        )
        if exception is not None:
            spec.exception = exception
        if corrupt is not None:
            spec.corrupt = corrupt
        self._specs[point] = spec
        self._rngs[point] = random.Random(f"{self.seed}:{point}")
        return spec

    def clear(self, point: str | None = None) -> None:
        """Disarm one point, or every point when ``point`` is None."""
        if point is None:
            self._specs.clear()
            self._rngs.clear()
        else:
            self._specs.pop(point, None)
            self._rngs.pop(point, None)

    def spec(self, point: str) -> FaultSpec | None:
        """The armed spec for ``point``, or None."""
        return self._specs.get(point)

    def should_fire(self, point: str) -> bool:
        """Decide (and record) whether ``point`` faults on this call.

        Advances the point's RNG stream, so calling it is part of the
        deterministic schedule — route real calls through
        :meth:`call` instead of probing separately.
        """
        spec = self._specs.get(point)
        if spec is None:
            return False
        spec.calls += 1
        if spec.mode in WORKER_ONLY_MODES and not in_worker_process():
            # Process-killing faults target pool workers; in the
            # coordinating (or sequential) process they pass through so
            # the same config is comparable across worker counts.
            return False
        if spec.times is not None and spec.fired >= spec.times:
            return False
        if spec.probability < 1.0:
            if self._rngs[point].random() >= spec.probability:
                return False
        spec.fired += 1
        return True

    def call(self, point: str, fn: Callable, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` through injection point ``point``.

        Depending on the armed spec this may raise, sleep past a
        runner deadline, or return a corrupted value; an unarmed point
        is a transparent passthrough.
        """
        spec = self._specs.get(point)
        if spec is not None and spec.mode in DISK_DAMAGE_MODES:
            # Damage modes corrupt completed files via damage_file();
            # the call itself passes through without spending budget.
            return fn(*args, **kwargs)
        if not self.should_fire(point):
            return fn(*args, **kwargs)
        spec = self._specs[point]
        if spec.mode == "raise":
            raise spec.exception()
        if spec.mode == "hang":
            self._sleep(spec.hang_seconds)
            return fn(*args, **kwargs)
        if spec.mode == "kill":
            # The OOM-killer / segfault stand-in: the process dies here,
            # uncatchably, without unwinding or running cleanup.
            os.kill(os.getpid(), spec.kill_signal)
            time.sleep(60.0)  # pragma: no cover - signal delivery race
            raise InjectedFault("kill signal was not delivered")
        if spec.mode == "oom":
            # A bounded allocation burst (so the *host* survives the
            # test), then the failure an unbounded one would hit.
            ballast = bytearray(spec.oom_bytes)
            del ballast
            raise MemoryError(
                f"injected oom at {spec.point!r} "
                f"after a {spec.oom_bytes}-byte burst"
            )
        if spec.mode == "enospc":
            raise OSError(
                errno.ENOSPC,
                f"No space left on device (injected at {spec.point!r})",
            )
        # mode == "corrupt": run the real call, then damage the result.
        return spec.corrupt(fn(*args, **kwargs))

    def check(self, point: str) -> None:
        """Fire ``point``'s side-effect faults without wrapping a call.

        For write points that only need the *failure* half of
        :meth:`call` (raise / kill / enospc / oom); ``corrupt`` has no
        return value to damage here and is a no-op, ``hang`` stalls and
        then returns.
        """
        self.call(point, lambda: None)

    def damage_file(self, point: str, path: "str | os.PathLike") -> str | None:
        """Corrupt the completed file at ``path`` if ``point`` is armed.

        The post-write half of disk chaos: writers that land files
        atomically call this *after* the rename, offering the finished
        bytes for damage.  An armed ``bitrot`` spec XOR-flips one byte
        at a deterministic (seeded) offset; ``truncate`` cuts the file
        to a deterministic prefix.  Both leave a file that is complete
        as far as the filesystem is concerned — exactly the corruption
        that only end-to-end checksums can catch.

        Returns the mode fired (``"bitrot"``/``"truncate"``) or None
        when the point is unarmed, armed with a non-damage mode, out of
        budget, or the file is empty/absent.
        """
        spec = self._specs.get(point)
        if spec is None or spec.mode not in DISK_DAMAGE_MODES:
            return None
        if not self.should_fire(point):
            return None
        try:
            with open(path, "r+b") as handle:
                data = handle.read()
                if not data:
                    spec.fired -= 1  # nothing to damage; refund the budget
                    return None
                rng = self._rngs[point]
                if spec.mode == "bitrot":
                    offset = rng.randrange(len(data))
                    handle.seek(offset)
                    handle.write(bytes([data[offset] ^ 0xFF]))
                else:  # truncate: keep a strict prefix, possibly empty
                    handle.truncate(rng.randrange(len(data)))
                handle.flush()
                os.fsync(handle.fileno())
        except FileNotFoundError:
            spec.fired -= 1
            return None
        return spec.mode

    def export_specs(self) -> list[dict]:
        """The armed points as plain JSON-safe dicts.

        Used to carry an injector across process boundaries (the
        injector itself holds lambdas and is not picklable).  Custom
        ``exception`` and ``corrupt`` callables cannot travel: points
        using them are exported with defaults, so a rebuilt injector
        raises :class:`InjectedFault` / corrupts to None instead.
        ``fired``/``calls`` progress is included so a point's remaining
        fault budget survives the hop.
        """
        return [
            {
                "point": spec.point,
                "mode": spec.mode,
                "probability": spec.probability,
                "times": spec.times,
                "hang_seconds": spec.hang_seconds,
                "kill_signal": int(spec.kill_signal),
                "oom_bytes": spec.oom_bytes,
                "fired": spec.fired,
                "calls": spec.calls,
            }
            for _, spec in sorted(self._specs.items())
        ]

    @classmethod
    def from_specs(
        cls,
        specs: list[dict],
        seed: int = 0,
        *,
        sleep: Callable[[float], None] = time.sleep,
    ) -> "FaultInjector":
        """Rebuild an injector from :meth:`export_specs` output.

        The RNG streams restart from ``(seed, point)``; combined with
        the carried ``fired``/``calls`` counters this reproduces the
        exported injector's *budget*, which is what the parallel suite
        runner needs (each worker gets a fresh injector for its own
        experiment anyway).
        """
        injector = cls(seed=seed, sleep=sleep)
        for data in specs:
            spec = injector.register(
                data["point"],
                mode=data["mode"],
                probability=data["probability"],
                times=data["times"],
                hang_seconds=data["hang_seconds"],
                kill_signal=data.get("kill_signal", signal.SIGKILL),
                oom_bytes=data.get("oom_bytes", 32 * 1024 * 1024),
            )
            spec.fired = data.get("fired", 0)
            spec.calls = data.get("calls", 0)
        return injector

    def to_task(self) -> dict:
        """This injector as a picklable task field (see :meth:`from_task`).

        ``{"seed", "specs"}`` with the :meth:`export_specs` form: what a
        pool task carries so its worker can rebuild the injector.
        """
        return {"seed": self.seed, "specs": self.export_specs()}

    @classmethod
    def from_task(
        cls, fault: dict | None, worker_crashes: int = 0
    ) -> "FaultInjector | None":
        """Rebuild a task's injector from :meth:`to_task` output.

        ``None`` (a task without an injector) gives None.  A ``kill``
        fault that fired is precisely what crashed the task's previous
        ``worker_crashes`` worker(s), so those firings are credited
        against every ``kill`` budget — a "crash twice, then succeed"
        schedule then behaves across requeues exactly like "raise
        twice" does across in-process retries.
        """
        if fault is None:
            return None
        injector = cls.from_specs(fault["specs"], seed=fault["seed"])
        for spec in injector._specs.values():
            if spec.mode == "kill":
                spec.fired += worker_crashes
                spec.calls += worker_crashes
        return injector

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-point ``{"calls": n, "fired": m}`` counters."""
        return {
            point: {"calls": spec.calls, "fired": spec.fired}
            for point, spec in sorted(self._specs.items())
        }
