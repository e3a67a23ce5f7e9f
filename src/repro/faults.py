"""Deterministic fault injection, deadlines, and retry policies.

The resilience substrate of the sharded engine.  Three pieces:

* **Fault injection** — a :class:`FaultPlan` is a list of
  :class:`FaultRule`\\ s armed process-wide (:func:`arm` /
  ``REPRO_FAULTS=`` in the environment).  Production code calls
  :func:`fire` at named *injection points*; when a rule matches, the
  plan raises a transient storage error, simulates a worker crash
  (``BrokenExecutor``), sleeps, or corrupts the bytes flowing through
  the point.  Everything is deterministic: randomness comes from one
  seeded RNG, sleeps go through an injectable clock, and per-context
  fire caps (``times=``) make "fail once, then recover" scenarios
  exactly reproducible.  Disarmed (the default), :func:`fire` is a
  single ``is None`` test — the hot path pays nothing.

* **Deadlines** — a :class:`Deadline` wraps ``timeout_ms`` against a
  :class:`Clock`.  Execution checks it *cooperatively* at operator,
  scatter and closure-loop boundaries
  (:meth:`Deadline.check` raises
  :class:`~repro.errors.QueryTimeoutError`), so a runaway query stops
  at the next boundary instead of running unbounded.

* **Retries** — :func:`retry_call` re-invokes a callable on
  :class:`~repro.errors.TransientError` with capped exponential
  backoff (:class:`RetryPolicy`), sleeping through the armed plan's
  clock so tests advance time instantly, and never sleeping past a
  live deadline.

Injection points wired through the engine:

==========================  ==================================================
``storage.read_image``      reading a disk index image (``corrupt`` allowed)
``shard.scan``              one shard's slice of an index scan
``shard.build``             one shard's index build (each retry attempt)
``gather.merge``            the scatter-gather merge of shard slices
``rpc.send``                a coordinator-to-worker request hitting the wire
``rpc.recv``                a worker reply frame arriving (``corrupt`` allowed)
``mutlog.append``           one mutation-log record being buffered
``mutlog.flush``            the group-commit fsync (``crash`` allowed — kills
                            a commit between append and durability)
==========================  ==================================================

``REPRO_FAULTS`` grammar (clauses separated by ``;``)::

    REPRO_FAULTS="seed=7;shard.scan=transient@0.5,times=1;gather.merge=latency,delay_ms=5"

Each non-``seed`` clause is ``point=kind[@rate][,option=value...]``
with ``kind`` one of ``transient`` / ``crash`` / ``latency`` /
``corrupt``; options are ``times`` (max fires per distinct context),
``delay_ms`` (latency kinds) and ``shard`` (only fire for one shard).
Garbage fails loudly with :class:`~repro.errors.ValidationError` —
silently testing the wrong failure mode is worse than not testing.
"""

from __future__ import annotations

import math
import os
import random
import threading
import time as _time
from concurrent.futures import BrokenExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import (
    QueryTimeoutError,
    TransientError,
    TransientStorageError,
    ValidationError,
)

#: The injection points production code actually calls :func:`fire` at.
INJECTION_POINTS = (
    "storage.read_image",
    "shard.scan",
    "shard.build",
    "gather.merge",
    "rpc.send",
    "rpc.recv",
    "mutlog.append",
    "mutlog.flush",
)

#: Fault kinds a rule may carry.
FAULT_KINDS = ("transient", "crash", "latency", "corrupt")

#: ``crash`` simulates a process dying where one can: a shard worker (or
#: its in-process stand-in), or the writer between a log append and its
#: fsync — the torn-commit case the write path's recovery must absorb.
CRASH_POINTS = ("shard.scan", "shard.build", "mutlog.flush")

#: ``corrupt`` mutates bytes in flight: the image reader and the RPC
#: reply path are the two places raw buffers cross a trust boundary.
CORRUPT_POINTS = ("storage.read_image", "rpc.recv")


# -- clocks --------------------------------------------------------------------


class Clock:
    """Monotonic time + sleep, as an injectable pair."""

    __slots__ = ()

    def now(self) -> float:
        return _time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            _time.sleep(seconds)


class FakeClock(Clock):
    """A manually advanced clock: ``sleep`` moves time, nothing waits.

    What makes backoff and deadline tests deterministic and instant —
    and what keeps fault-injection property tests hang-free even when
    a generated plan piles up latency rules.
    """

    __slots__ = ("_now", "sleeps", "_lock")

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        #: Every sleep duration requested, in order (test observable).
        self.sleeps: list[float] = []
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self.sleeps.append(seconds)
            if seconds > 0:
                self._now += seconds

    def advance(self, seconds: float) -> None:
        with self._lock:
            self._now += seconds


#: The process default clock (wall time).
SYSTEM_CLOCK = Clock()


def current_clock() -> Clock:
    """The armed plan's clock, or the system clock when disarmed.

    Deadlines and retry backoff read time through this, so arming a
    :class:`FakeClock`-backed plan makes the *whole* timeout/retry
    machinery virtual-time driven.
    """
    plan = _PLAN
    return plan.clock if plan is not None else SYSTEM_CLOCK


# -- deadlines -----------------------------------------------------------------


class Deadline:
    """A cooperative time budget for one query execution.

    Created once at the API boundary (``query(timeout_ms=...)``) and
    checked at operator/scatter/closure-loop boundaries.  Checks are
    two float comparisons — cheap enough for per-shard and per-round
    granularity, deliberately not per-tuple.
    """

    __slots__ = ("timeout_ms", "clock", "_expires")

    def __init__(self, timeout_ms: float, clock: Clock | None = None) -> None:
        # NaN and infinity would pass a plain ``<= 0`` test and leave a
        # deadline that never expires.
        if not 0 < timeout_ms < math.inf:
            raise ValidationError(
                f"timeout_ms must be finite and > 0, got {timeout_ms}"
            )
        self.timeout_ms = timeout_ms
        self.clock = clock if clock is not None else current_clock()
        self._expires = self.clock.now() + timeout_ms / 1000.0

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self._expires - self.clock.now()

    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self) -> None:
        """Raise :class:`QueryTimeoutError` once the budget is spent."""
        if self.remaining() <= 0:
            raise QueryTimeoutError(
                f"query exceeded its {self.timeout_ms:g} ms deadline"
            )


# -- retries -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Capped exponential backoff for transient failures.

    ``attempts`` counts *total* tries (1 = no retry).  The delay before
    retry ``i`` (1-based) is ``min(cap_delay_ms, base_delay_ms *
    multiplier**(i - 1))`` — deterministic, no jitter: under a seeded
    fault plan the whole failure/recovery timeline must replay exactly.
    """

    attempts: int = 3
    base_delay_ms: float = 10.0
    cap_delay_ms: float = 200.0
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValidationError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay_ms < 0 or self.cap_delay_ms < 0:
            raise ValidationError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValidationError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )

    def delay_ms(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt ``attempt`` (0-based)."""
        return min(
            self.cap_delay_ms, self.base_delay_ms * self.multiplier**attempt
        )


#: The engine's default: 3 tries, 10ms/20ms backoff.
DEFAULT_RETRY = RetryPolicy()


def retry_call(callable_, policy: RetryPolicy | None = None, deadline=None):
    """Invoke ``callable_``, retrying transient failures with backoff.

    Only :class:`~repro.errors.TransientError` is retried; everything
    else — permanent storage errors, crashes, timeouts — propagates on
    the first throw.  Sleeps go through :func:`current_clock` and are
    clipped to a live ``deadline``'s remaining budget; the deadline is
    re-checked before every attempt, so a retry loop can never outlive
    the query's time budget.
    """
    if policy is None:
        policy = DEFAULT_RETRY
    clock = current_clock()
    for attempt in range(policy.attempts):
        if deadline is not None:
            deadline.check()
        try:
            return callable_()
        except TransientError:
            if attempt + 1 >= policy.attempts:
                raise
            delay = policy.delay_ms(attempt) / 1000.0
            if deadline is not None:
                delay = min(delay, max(deadline.remaining(), 0.0))
            clock.sleep(delay)
    raise AssertionError("unreachable: loop returns or raises")


# -- execution context ---------------------------------------------------------


@dataclass(slots=True)
class RunContext:
    """Per-execution resilience settings, threaded through the engine.

    Carried explicitly (not thread-local) because scatter-gather fans
    out over worker threads; a context is cheap, immutable in intent,
    and shared read-only by every shard slice of one execution.
    """

    deadline: Deadline | None = None
    #: Drop permanently failed shard slices instead of raising —
    #: answers become a flagged-partial subset of the oracle.
    degraded: bool = False
    retry: RetryPolicy = field(default_factory=lambda: DEFAULT_RETRY)


# -- fault rules and plans -----------------------------------------------------


@dataclass(frozen=True, slots=True)
class FaultRule:
    """One injected failure mode at one injection point.

    ``rate`` is the per-call fire probability (seeded RNG);
    ``times`` caps fires per *distinct context* (e.g. per
    ``(shard, path)``), which is how a deterministic chaos run injects
    "every slice fails exactly once, every retry succeeds";
    ``shard`` restricts the rule to one shard's calls.
    """

    point: str
    kind: str
    rate: float = 1.0
    times: int | None = None
    delay_ms: float = 25.0
    shard: int | None = None

    def __post_init__(self) -> None:
        if self.point not in INJECTION_POINTS:
            raise ValidationError(
                f"unknown injection point {self.point!r}; "
                f"expected one of {', '.join(INJECTION_POINTS)}"
            )
        if self.kind not in FAULT_KINDS:
            raise ValidationError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {', '.join(FAULT_KINDS)}"
            )
        if self.kind == "crash" and self.point not in CRASH_POINTS:
            raise ValidationError(
                f"crash faults only apply at {', '.join(CRASH_POINTS)}"
            )
        if self.kind == "corrupt" and self.point not in CORRUPT_POINTS:
            raise ValidationError(
                f"corrupt faults only apply at {', '.join(CORRUPT_POINTS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValidationError(f"rate must be in [0, 1], got {self.rate}")
        if self.times is not None and self.times < 1:
            raise ValidationError(f"times must be >= 1, got {self.times}")
        if self.delay_ms < 0:
            raise ValidationError(f"delay_ms must be >= 0, got {self.delay_ms}")


class FaultPlan:
    """A seeded, clocked set of fault rules — one reproducible chaos run.

    Thread-safe: the RNG draw and the per-context fire counters are
    updated under one lock (scatter slices fire concurrently).  The
    ``fired`` total is the test observable that a scenario actually
    exercised its faults rather than silently matching nothing.
    """

    def __init__(
        self,
        rules,
        seed: int = 0,
        clock: Clock | None = None,
    ) -> None:
        self.rules = tuple(rules)
        self.seed = seed
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self.random = random.Random(seed)
        self.fired = 0
        self._counts: dict = {}
        self._lock = threading.Lock()
        # point -> [(rule index, rule)], so an armed-but-idle fire() is
        # one dictionary miss rather than a scan of every rule.
        self._by_point: dict = {}
        for index, rule in enumerate(self.rules):
            self._by_point.setdefault(rule.point, []).append((index, rule))

    def fire(self, point: str, data, context: dict):
        """Apply every matching rule; returns (possibly corrupted) data."""
        rules = self._by_point.get(point)
        if not rules:
            return data
        for index, rule in rules:
            if rule.shard is not None and context.get("shard") != rule.shard:
                continue
            with self._lock:
                if rule.rate < 1.0 and self.random.random() >= rule.rate:
                    continue
                if rule.times is not None:
                    key = (index, tuple(sorted(context.items())))
                    seen = self._counts.get(key, 0)
                    if seen >= rule.times:
                        continue
                    self._counts[key] = seen + 1
                self.fired += 1
            data = self._apply(rule, point, data, context)
        return data

    def _apply(self, rule: FaultRule, point: str, data, context: dict):
        detail = ", ".join(f"{k}={v}" for k, v in sorted(context.items()))
        where = f"{point}({detail})" if detail else point
        if rule.kind == "transient":
            raise TransientStorageError(f"injected transient fault at {where}")
        if rule.kind == "crash":
            raise BrokenExecutor(f"injected worker crash at {where}")
        if rule.kind == "latency":
            self.clock.sleep(rule.delay_ms / 1000.0)
            return data
        # corrupt: simulate a torn write — scramble a tail slice and flip
        # the first byte's high bit, so a leading magic number or type
        # tag can never decode as valid.  Detectability is the contract:
        # a corrupt fault must surface as a typed StorageError, never as
        # a silently wrong answer.
        if data is None:
            return data
        page = bytearray(data)
        if page:
            page[0] |= 0x80
            with self._lock:
                start = self.random.randrange(len(page))
                noise = self.random.randbytes(max(1, (len(page) - start) // 4))
            page[start : start + len(noise)] = noise[: len(page) - start]
        return bytes(page)

    def reset(self) -> None:
        """Forget fire counts and re-seed the RNG (replay the scenario)."""
        with self._lock:
            self.random = random.Random(self.seed)
            self.fired = 0
            self._counts.clear()

    def __repr__(self) -> str:
        return (
            f"FaultPlan(rules={len(self.rules)}, seed={self.seed}, "
            f"fired={self.fired})"
        )


# -- arming --------------------------------------------------------------------

_PLAN: FaultPlan | None = None


def fire(point: str, data=None, **context):
    """Injection point: a no-op returning ``data`` unless a plan is armed.

    The disarmed fast path is one global load and an ``is None`` test;
    armed-but-idle adds one dictionary probe.  That is the entire hot
    path cost the benchmark gate (``benchmarks/bench_faults.py``) holds
    to <= 5%.

    Invariant (machine-checked by ``repro lint``, rule ``fault-point``):
    every I/O boundary routes through ``fire``/``retry_call`` with a
    literal point from :data:`INJECTION_POINTS`, so the chaos harness
    can always reach it.
    """
    plan = _PLAN
    if plan is None:
        return data
    return plan.fire(point, data, context)


def arm(plan: FaultPlan | None) -> None:
    """Install ``plan`` process-wide (``None`` disarms)."""
    global _PLAN
    _PLAN = plan


def disarm() -> None:
    arm(None)


def active_plan() -> FaultPlan | None:
    return _PLAN


@contextmanager
def armed(plan: FaultPlan):
    """Arm ``plan`` for a scope, restoring whatever was armed before."""
    previous = _PLAN
    arm(plan)
    try:
        yield plan
    finally:
        arm(previous)


@contextmanager
def disarmed():
    """Suspend any armed plan for a scope (oracle runs under chaos CI)."""
    previous = _PLAN
    arm(None)
    try:
        yield
    finally:
        arm(previous)


# -- environment arming --------------------------------------------------------


def plan_from_env(value: str | None = None) -> FaultPlan | None:
    """Parse a ``REPRO_FAULTS`` specification into a plan.

    ``value=None`` reads the environment.  Unset/empty means no plan;
    anything malformed raises :class:`ValidationError` — a chaos run
    that silently arms nothing would pass CI while testing nothing.
    """
    if value is None:
        value = os.environ.get("REPRO_FAULTS", "")
    value = value.strip()
    if not value:
        return None
    seed = 0
    rules: list[FaultRule] = []
    for clause in value.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        name, separator, spec = clause.partition("=")
        name = name.strip()
        if not separator or not spec:
            raise ValidationError(
                f"REPRO_FAULTS clause {clause!r} must look like "
                f"seed=N or point=kind[@rate][,option=value...]"
            )
        if name == "seed":
            seed = _parse_int(spec, "seed")
            continue
        rules.append(_parse_rule(name, spec))
    if not rules:
        raise ValidationError("REPRO_FAULTS sets a seed but no fault rules")
    return FaultPlan(rules, seed=seed)


def _parse_rule(point: str, spec: str) -> FaultRule:
    head, *options = [part.strip() for part in spec.split(",")]
    kind, separator, rate_text = head.partition("@")
    rate = _parse_float(rate_text, "rate") if separator else 1.0
    settings: dict = {"point": point, "kind": kind.strip(), "rate": rate}
    for option in options:
        key, separator, value = option.partition("=")
        key = key.strip()
        if not separator:
            raise ValidationError(
                f"REPRO_FAULTS option {option!r} must look like name=value"
            )
        if key == "times":
            settings["times"] = _parse_int(value, "times")
        elif key == "delay_ms":
            settings["delay_ms"] = _parse_float(value, "delay_ms")
        elif key == "shard":
            settings["shard"] = _parse_int(value, "shard")
        else:
            raise ValidationError(
                f"unknown REPRO_FAULTS option {key!r} "
                f"(expected times, delay_ms or shard)"
            )
    return FaultRule(**settings)


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ValidationError(
            f"REPRO_FAULTS {name} must be an integer, got {text!r}"
        ) from None


def _parse_float(text: str, name: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        raise ValidationError(
            f"REPRO_FAULTS {name} must be a number, got {text!r}"
        ) from None


# Arm from the environment at import: the chaos CI step (and any user
# process) sets REPRO_FAULTS before Python starts, and every module
# that hosts an injection point imports this one.
arm(plan_from_env())
