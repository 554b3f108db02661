"""Remote-call transport: retry, backoff, circuit breaker, fault points.

Extracted from the foreign-database gateway (PR 4) so that *any* component
talking to another database instance — the foreign storage method, the
sharded storage method's per-shard channels — shares one implementation of
the unreliable-messaging discipline:

* every message round trip is **accounted** (a message counter plus a
  configurable latency charge in I/O-page-equivalent units) and passes
  through named **fault injection points**, so tests and benches can lose
  exactly the Nth message to exactly one peer;
* transient :class:`~repro.errors.GatewayError`\\ s are retried with
  bounded deterministic exponential backoff, charged as latency units
  rather than wall-clock sleep; the backoff is *jittered* (equal jitter:
  each wait lands in ``[cap/2, cap]``, seeded by the channel name and
  attempt number so runs reproduce exactly) to keep synchronized
  retriers from hammering a recovering peer in lockstep;
* an optional per-call **deadline** (channel knob ``deadline``, same
  I/O-page-equivalent scale as ``latency``) bounds the retry tail: when
  the attempt round trips plus backoff waits would exceed the budget the
  call stops retrying, counts ``remote.deadline_exceeded`` (and the
  prefixed ``{prefix}.deadline_exceeded``), and registers a breaker
  failure;
* repeated exhausted calls trip a per-channel **circuit breaker**: calls
  then fail fast (no message attempted) for a cooldown of calls, after
  which one half-open probe either closes the breaker or re-opens it.
  Only one probe may be in flight per channel: a second session racing
  the probe fails fast (``{prefix}.probe_conflicts``) instead of
  stacking probes — so a slow probe can neither be double-counted as a
  close nor wedge the breaker for everyone else.

A *channel* is a plain descriptor dict (the storage descriptor for the
foreign method; one per shard for the sharded method) carrying the knobs
``latency``, ``retries``, ``breaker_threshold``, ``breaker_cooldown``,
and optionally ``deadline`` and a channel-specific ``fault_point`` (an
extra injection point naming the *endpoint* behind the channel, so tests
can kill one peer while its successors stay reachable); the breaker
state itself lives in the channel under ``"breaker"``, so every remote
relation (or shard) fails independently.

A :class:`RemoteTransport` is configuration only — fault-point names and
counter names — and holds no mutable state, so one instance can serve any
number of channels.  The default configuration reproduces the foreign
gateway's historical counter names exactly (``foreign.messages``,
``gateway.retry.attempts``, ...), which existing test suites pin.
"""

from __future__ import annotations

import zlib
from typing import Sequence

from ..errors import FencingError, GatewayError, StorageError
from .predicate import Predicate

__all__ = ["RemoteTransport", "block_scan"]


def block_scan(database, ctx, relation: str, fields, predicate) -> list:
    """The peer's side of a block fetch: scan ``relation`` inside
    ``database`` under ``ctx`` and return every ``(key, record)`` pair.

    The peer filters and projects — the predicate is rebound to its
    schema, a heap decodes only ``fields`` — so only what the caller
    asked for crosses the channel.
    """
    handle = database.catalog.handle(relation)
    where = None if predicate is None else Predicate(
        predicate.expr, handle.schema, predicate.params)
    return database.services.scans.drain(
        database.data.open_scan(ctx, handle, fields, where))


class RemoteTransport:
    """Retry + circuit-breaker discipline over named channels."""

    def __init__(self, fault_points: Sequence[str] = ("foreign.remote_call",),
                 message_counter: str = "foreign.messages",
                 latency_counter: str = "foreign.latency_units",
                 counter_prefix: str = "gateway"):
        self.fault_points = tuple(fault_points)
        self.message_counter = message_counter
        self.latency_counter = latency_counter
        self.counter_prefix = counter_prefix

    # -- DDL -------------------------------------------------------------------
    @staticmethod
    def pop_knobs(attributes: dict, owner: str, latency: float) -> dict:
        """Take the channel knobs out of a relation's DDL ``attributes``
        and validate them (``owner`` names the storage method in the
        error; ``latency`` is its default)."""
        knobs = {"latency": attributes.pop("latency", latency),
                 "retries": attributes.pop("retries", 3),
                 "breaker_threshold": attributes.pop("breaker_threshold", 3),
                 "breaker_cooldown": attributes.pop("breaker_cooldown", 8),
                 "deadline": attributes.pop("deadline", None)}
        latency, deadline = knobs["latency"], knobs["deadline"]
        if not isinstance(latency, (int, float)) or latency < 0:
            raise StorageError(
                f"{owner}: latency must be non-negative, got {latency!r}")
        for name in ("retries", "breaker_threshold", "breaker_cooldown"):
            if not isinstance(knobs[name], int) or knobs[name] < 0:
                raise StorageError(
                    f"{owner}: {name} must be a non-negative integer, got "
                    f"{knobs[name]!r}")
        if deadline is not None and (not isinstance(deadline, (int, float))
                                     or deadline <= 0):
            raise StorageError(
                f"{owner}: deadline must be a positive number, got "
                f"{deadline!r}")
        knobs["latency"] = float(latency)
        return knobs

    # -- message accounting ----------------------------------------------------
    def remote_call(self, ctx_or_services, channel: dict, stats) -> None:
        """Account one message round trip on ``channel``.

        Fires every configured fault point (in order) *before* charging,
        so a lost message costs nothing and the surrounding :meth:`call`
        retry loop can safely re-run the action.
        """
        services = getattr(ctx_or_services, "services", ctx_or_services)
        faults = getattr(services, "faults", None)
        if faults is not None and faults.armed:
            for point in self.fault_points:
                faults.fire(point)
            endpoint = channel.get("fault_point")
            if endpoint is not None:
                faults.fire(endpoint)
        stats.bump(self.message_counter)
        stats.bump(self.latency_counter,
                   int(channel.get("latency", 2.0) * 100))

    # -- breaker state ---------------------------------------------------------
    @staticmethod
    def breaker(channel: dict) -> dict:
        """The channel's circuit-breaker state (created on first use)."""
        return channel.setdefault(
            "breaker", {"failures": 0, "open": False, "cooldown_left": 0})

    def available(self, channel: dict) -> bool:
        """False while the breaker is open (reads degrade, writes fail fast)."""
        return not self.breaker(channel)["open"]

    def reset(self, channel: dict) -> None:
        """Administratively close the breaker (e.g. after a healed peer)."""
        channel["breaker"] = {"failures": 0, "open": False,
                              "cooldown_left": 0}

    # -- backoff ---------------------------------------------------------------
    @staticmethod
    def backoff_units(channel: dict, base_latency: int, attempt: int) -> int:
        """Jittered exponential backoff for one retry, in latency units.

        Equal jitter: the wait lands in ``[cap/2, cap]`` where ``cap`` is
        ``base_latency * 2**attempt``.  The jitter is seeded by the channel
        name and the attempt number (no wall clock, no global RNG), so
        every run of the same scenario charges identical units while
        distinct channels still spread their retries apart.
        """
        cap = base_latency * (2 ** attempt)
        seed = zlib.crc32(f"{channel.get('relation')}|{attempt}".encode())
        return int(cap * (0.5 + (seed % 1000) / 2000.0))

    # -- the guarded call ------------------------------------------------------
    def call(self, channel: dict, stats, action):
        """Run one remote interaction behind retry + circuit breaker.

        ``action()`` performs the message round trip (including its
        :meth:`remote_call` accounting) and returns the result.  Transient
        :class:`GatewayError`\\ s are retried up to the channel's
        ``retries`` with jittered exponential backoff charged as latency
        units; a channel ``deadline`` caps the attempt-plus-backoff budget
        so the retry tail is bounded.  An exhausted (or deadlined) call
        counts a breaker failure; ``breaker_threshold`` of them in a row
        open the breaker, and while it is open every call fails fast until
        ``breaker_cooldown`` fail-fast calls have passed — then one
        half-open probe runs for real and closes the breaker on success.
        Concurrent sessions never stack probes: while one probe is in
        flight, other callers fail fast.
        """
        prefix = self.counter_prefix
        breaker = self.breaker(channel)
        probing = False
        if breaker["open"]:
            if breaker["cooldown_left"] > 0:
                breaker["cooldown_left"] -= 1
                stats.bump(f"{prefix}.fail_fast")
                raise GatewayError(
                    f"remote channel to {channel.get('relation')!r} is "
                    "unavailable (circuit breaker open)")
            if breaker.get("probing"):
                # Another session's half-open probe is in flight.  Joining
                # it would let two callers observe one success and close
                # the breaker twice — or, with an interleaved failure,
                # leave the state machine wedged half-open.
                stats.bump(f"{prefix}.fail_fast")
                stats.bump(f"{prefix}.probe_conflicts")
                raise GatewayError(
                    f"remote channel to {channel.get('relation')!r} is "
                    "unavailable (half-open probe already in flight)")
            breaker["probing"] = True
            probing = True
            stats.bump(f"{prefix}.half_open_probes")  # probe falls through
        retries = int(channel.get("retries", 3))
        base_latency = int(channel.get("latency", 2.0) * 100)
        deadline = channel.get("deadline")
        budget = None if deadline is None else int(float(deadline) * 100)
        spent = 0
        attempt = 0
        try:
            while True:
                spent += base_latency  # the attempt's own round trip
                try:
                    result = action()
                except FencingError:
                    # A fence is a decision, not a transient: retrying a
                    # deposed sender can never succeed, and the channel
                    # itself is healthy, so no breaker failure either.
                    raise
                except GatewayError as exc:
                    if attempt < retries:
                        backoff = self.backoff_units(channel, base_latency,
                                                     attempt)
                        if (budget is None
                                or spent + backoff + base_latency <= budget):
                            # Bounded jittered backoff: the retry charges
                            # escalating latency units, not wall-clock sleep.
                            stats.bump(f"{prefix}.retry.attempts")
                            stats.bump(f"{prefix}.retry.backoff_units",
                                       backoff)
                            spent += backoff
                            attempt += 1
                            continue
                        stats.bump(f"{prefix}.deadline_exceeded")
                        stats.bump("remote.deadline_exceeded")
                        self._breaker_failure(channel, breaker, stats)
                        raise GatewayError(
                            f"remote call to {channel.get('relation')!r} "
                            f"exceeded its deadline ({deadline} latency "
                            f"units) after {attempt + 1} attempt(s)"
                        ) from exc
                    stats.bump(f"{prefix}.retry.exhausted")
                    self._breaker_failure(channel, breaker, stats)
                    raise
                if breaker["open"]:
                    stats.bump(f"{prefix}.breaker.closes")
                breaker["open"] = False
                breaker["failures"] = 0
                breaker["cooldown_left"] = 0
                return result
        finally:
            if probing:
                breaker["probing"] = False

    def send(self, ctx_or_services, channel: dict, stats, action):
        """:meth:`call` an action every attempt of which is one accounted
        message (:meth:`remote_call`, then ``action()``)."""
        def attempt():
            self.remote_call(ctx_or_services, channel, stats)
            return action()
        return self.call(channel, stats, attempt)

    def _breaker_failure(self, channel: dict, breaker: dict, stats) -> None:
        breaker["failures"] += 1
        if breaker["failures"] >= int(channel.get("breaker_threshold", 3)):
            breaker["open"] = True
            breaker["cooldown_left"] = int(channel.get("breaker_cooldown", 8))
            stats.bump(f"{self.counter_prefix}.breaker.trips")
