"""Bounded retry-with-backoff for boot-time connects.

A freshly spawned daemon or app racing its server's startup — or connecting
across a transiently partitioned LAN — should not give up after one refused
connect.  :func:`connect_with_backoff` is the shared policy: a capped
exponential backoff over a bounded number of attempts, after which the last
error propagates (callers keep their existing failure handling).

This is deliberately only for *establishment*.  Established connections are
never silently re-dialed: connection loss is a meaningful signal every
recovery protocol in the stack (daemon keeper, subapp reclaim, broker
liveness) is built around.
"""

from __future__ import annotations

from repro.os.errors import ConnectionRefused, NoSuchHost


def connect_with_backoff(
    proc,
    host: str,
    port: int,
    attempts: int = None,
    base: float = None,
    cap: float = None,
    counter=None,
):
    """Connect ``proc`` to ``host:port``, retrying refused attempts.

    Yield-from this inside a program body; it returns the connection or
    raises the final attempt's :class:`ConnectionRefused`/:class:`NoSuchHost`.
    Defaults come from the calibration (``connect_retry_*``); ``counter``,
    if given, is incremented once per retry (not per attempt), so a clean
    first connect contributes zero.
    """
    cal = proc.machine.network.calibration
    if attempts is None:
        attempts = cal.connect_retry_attempts
    if base is None:
        base = cal.connect_retry_base
    if cap is None:
        cap = cal.connect_retry_cap
    delay = base
    for attempt in range(attempts):
        try:
            conn = yield proc.connect(host, port)
            return conn
        except (ConnectionRefused, NoSuchHost):
            if attempt == attempts - 1:
                raise
        if counter is not None:
            counter.inc()
        backoff = proc.sleep(delay)
        try:
            yield backoff
        finally:
            # A signal (or the process dying) mid-backoff must not leave the
            # timer armed in the event heap; cancel is a no-op once fired.
            backoff.cancel()
        delay = min(delay * 2.0, cap)
    raise AssertionError("unreachable")  # pragma: no cover


def connect_any_with_backoff(
    proc,
    hosts,
    port: int,
    attempts: int = None,
    base: float = None,
    cap: float = None,
    counter=None,
):
    """:func:`connect_with_backoff` over a list of candidate hosts.

    Each backoff round dials **every** candidate in order (primary first,
    then the well-known secondary) before sleeping — a client of a service
    that can fail over to a warm standby must not burn whole backoff
    rounds on a dead primary while the promoted secondary is already
    listening; that delay is directly client-visible failover disruption
    (the ``failover`` gate measures it).  With a single host this is
    byte-identical to :func:`connect_with_backoff`.
    """
    cal = proc.machine.network.calibration
    if attempts is None:
        attempts = cal.connect_retry_attempts
    if base is None:
        base = cal.connect_retry_base
    if cap is None:
        cap = cal.connect_retry_cap
    hosts = list(hosts)
    delay = base
    for attempt in range(attempts):
        error = None
        for host in hosts:
            try:
                conn = yield proc.connect(host, port)
                return conn
            except (ConnectionRefused, NoSuchHost) as exc:
                error = exc
        if attempt == attempts - 1:
            raise error
        if counter is not None:
            counter.inc()
        backoff = proc.sleep(delay)
        try:
            yield backoff
        finally:
            backoff.cancel()
        delay = min(delay * 2.0, cap)
    raise AssertionError("unreachable")  # pragma: no cover


def connect_any_forever(
    proc,
    hosts,
    port: int,
    base: float = None,
    cap: float = None,
    counter=None,
):
    """:func:`connect_forever` over a list of candidate hosts (see
    :func:`connect_any_with_backoff` for the every-candidate-per-round
    rule)."""
    cal = proc.machine.network.calibration
    if base is None:
        base = cal.connect_retry_base
    if cap is None:
        cap = cal.connect_retry_cap
    hosts = list(hosts)
    delay = base
    while True:
        for host in hosts:
            try:
                conn = yield proc.connect(host, port)
                return conn
            except (ConnectionRefused, NoSuchHost):
                pass
        if counter is not None:
            counter.inc()
        backoff = proc.sleep(delay)
        try:
            yield backoff
        finally:
            backoff.cancel()
        delay = min(delay * 2.0, cap)


def connect_forever(
    proc,
    host: str,
    port: int,
    base: float = None,
    cap: float = None,
    counter=None,
):
    """Connect ``proc`` to ``host:port``, retrying refused attempts forever.

    The unbounded sibling of :func:`connect_with_backoff`, for callers whose
    only correct move is to keep trying: a monitoring daemon re-registering
    with a broker that may be down arbitrarily long must never give up
    (exiting would deadlock the broker's keeper, which respawns daemons only
    when their *connection* drops).  Backoff is capped, so the retry cadence
    settles at ``cap`` seconds; the process dying (machine crash, kill)
    tears the loop down the ordinary way.
    """
    cal = proc.machine.network.calibration
    if base is None:
        base = cal.connect_retry_base
    if cap is None:
        cap = cal.connect_retry_cap
    delay = base
    while True:
        try:
            conn = yield proc.connect(host, port)
            return conn
        except (ConnectionRefused, NoSuchHost):
            pass
        if counter is not None:
            counter.inc()
        backoff = proc.sleep(delay)
        try:
            yield backoff
        finally:
            backoff.cancel()
        delay = min(delay * 2.0, cap)
