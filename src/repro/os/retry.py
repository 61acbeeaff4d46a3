"""The one way to dial a peer that may still be booting.

A freshly spawned daemon or app racing its server's startup — or connecting
across a transiently partitioned LAN — should not give up after one refused
connect.  :func:`connect_with_backoff` is the shared policy for a peer at a
known address: rounds over every candidate host, a capped exponential
backoff between rounds, and a bounded (or, with ``math.inf``, unbounded)
number of rounds.  :func:`connect_advertised` is the policy for a server
that advertises its ``host port`` in a file (the PVM master daemon, the
origin LAM daemon, the PLinda server): poll the file until the server is
up.  The one retry loop kept apart is the warm standby's redial of its
primary (``broker/replica.py``): its backoff caps at the heartbeat interval
and it gives up into promotion at a silence deadline.

This is deliberately only for *establishment*.  Established connections are
never silently re-dialed: connection loss is a meaningful signal every
recovery protocol in the stack (daemon keeper, subapp reclaim, broker
liveness) is built around.
"""

from __future__ import annotations

from repro.os.errors import ConnectionRefused, NoSuchHost


def connect_with_backoff(proc, hosts, port: int, attempts=None, counter=None):
    """Connect ``proc`` to ``port`` on one of ``hosts`` (a list of
    distinct names), retrying refusals.

    Each round dials **every** host in order (primary first, then the
    well-known secondary) before sleeping: a client of a service that can
    fail over to a warm standby must not burn whole backoff rounds on a
    dead primary while the promoted secondary is already listening; that
    delay is directly client-visible failover disruption (the ``failover``
    gate measures it).  Between rounds the process sleeps
    ``connect_retry_base`` seconds, doubling up to ``connect_retry_cap``.

    Yield-from this inside a program body; it returns the connection or,
    after ``attempts`` rounds (default ``connect_retry_attempts``), raises
    the last :class:`ConnectionRefused`/:class:`NoSuchHost`.
    ``attempts=math.inf`` is for callers whose only correct move is to keep
    trying — a daemon re-registering with a broker that may be down
    arbitrarily long; the process dying tears the loop down the ordinary
    way.  ``counter``, if given, is incremented once per round slept (not
    per host dialled), so a clean first round contributes zero.
    """
    cal = proc.machine.network.calibration
    if attempts is None:
        attempts = cal.connect_retry_attempts
    delay = cal.connect_retry_base
    rounds = 0
    while True:
        rounds += 1
        for host in hosts:
            try:
                conn = yield proc.connect(host, port)
                return conn
            except (ConnectionRefused, NoSuchHost):
                # Re-raised in place, never stored: a saved exception's
                # traceback would hold this frame through every backoff.
                if rounds >= attempts and host == hosts[-1]:
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
        delay = min(delay * 2.0, cal.connect_retry_cap)


def connect_advertised(proc, path: str):
    """Connect to the server advertised as ``host port`` in file ``path``.

    Polls 40 times, 50 ms apart (two simulated seconds in all), while the
    file is missing or names a server that refuses (a stale
    advertisement).  Returns the connection, or ``None`` when no server
    answered; each caller raises its own error.
    """
    for _ in range(40):
        if proc.file_exists(path):
            host, port = proc.read_file(path).split()
            try:
                conn = yield proc.connect(host, int(port))
                return conn
            except (ConnectionRefused, NoSuchHost):
                pass
        yield proc.sleep(0.05)
    return None
