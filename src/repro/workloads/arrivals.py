"""Arrival traces for the utilization and soak experiments.

Two families of generators:

* :func:`periodic_sequential_jobs` — the paper's §6.2 setting, verbatim:
  "Every 100 seconds, a script started a sequential program that ran for t
  minutes, where t was chosen uniformly from the interval [1,10]."
* :func:`trace_arrivals` / :func:`diurnal_owner_windows` — the service-mode
  soak workload: a large Poisson arrival trace whose rate follows a diurnal
  cosine curve (quiet nights, busy days compressed to a simulated "day"),
  plus per-owner console-activity windows on private machines so supply
  breathes against demand the way the paper's department network does.

Every random draw comes from a named RNG stream of the simulation's
:class:`~repro.sim.rng.SimRandom`, so a trace is a pure function of the run
seed — stable across simulator changes and byte-identical across replays.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple


@dataclass
class ArrivalTrace:
    """A generated arrival trace: one (arrival_time, cpu_seconds) per job."""

    arrivals: List[float] = field(default_factory=list)
    durations: List[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.arrivals)

    def jobs(self):
        """Iterate (arrival_time, cpu_seconds) pairs."""
        return zip(self.arrivals, self.durations)


def periodic_sequential_jobs(
    env,
    period: float = 100.0,
    horizon: float = 5 * 3600.0,
    min_minutes: float = 1.0,
    max_minutes: float = 10.0,
    stream: str = "utilization-arrivals",
) -> ArrivalTrace:
    """Build the paper's §6.2 trace: arrivals every ``period`` seconds over
    ``horizon``, each with duration uniform in [min, max] minutes."""
    if period <= 0:
        raise ValueError("period must be positive")
    if max_minutes < min_minutes:
        raise ValueError("max_minutes < min_minutes")
    rng = env.rng.stream(stream)
    trace = ArrivalTrace()
    t = period
    while t < horizon:
        trace.arrivals.append(t)
        trace.durations.append(
            60.0 * float(rng.uniform(min_minutes, max_minutes))
        )
        t += period
    return trace


def diurnal_rate(t: float, base_rate: float, peak_rate: float, day: float) -> float:
    """Instantaneous arrival rate (jobs/second) at simulated time ``t``.

    A raised cosine over one ``day``: the trough (``base_rate``) at t=0 —
    "midnight" — rising to ``peak_rate`` at midday.  Deliberately smooth:
    the soak is probing sustained churn, not step responses."""
    phase = (t % day) / day  # 0 at midnight, 0.5 at midday
    blend = 0.5 - 0.5 * math.cos(2.0 * math.pi * phase)
    return base_rate + (peak_rate - base_rate) * blend


def trace_arrivals(
    env,
    horizon: float,
    base_rate: float = 0.2,
    peak_rate: float = 2.0,
    day: float = 600.0,
    min_seconds: float = 0.5,
    max_seconds: float = 6.0,
    max_jobs: int = 0,
    stream: str = "soak-arrivals",
) -> ArrivalTrace:
    """Draw a Poisson arrival trace whose rate follows the diurnal curve.

    Standard thinning: candidate arrivals are drawn from a homogeneous
    Poisson process at ``peak_rate`` and each is kept with probability
    ``rate(t) / peak_rate``.  Durations are uniform in
    [``min_seconds``, ``max_seconds``].  ``max_jobs`` (when positive) caps
    the trace length — the soak uses it to hit an exact submission count
    regardless of horizon rounding."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if peak_rate <= 0 or base_rate < 0 or base_rate > peak_rate:
        raise ValueError("need 0 <= base_rate <= peak_rate, peak_rate > 0")
    if max_seconds < min_seconds:
        raise ValueError("max_seconds < min_seconds")
    rng = env.rng.stream(stream)
    trace = ArrivalTrace()
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / peak_rate))
        if t >= horizon:
            break
        keep = diurnal_rate(t, base_rate, peak_rate, day) / peak_rate
        if float(rng.uniform(0.0, 1.0)) >= keep:
            continue
        trace.arrivals.append(t)
        trace.durations.append(
            float(rng.uniform(min_seconds, max_seconds))
        )
        if max_jobs and len(trace.arrivals) >= max_jobs:
            break
    return trace


def diurnal_owner_windows(
    env,
    hosts: Sequence[str],
    horizon: float,
    day: float = 600.0,
    workday: Tuple[float, float] = (0.3, 0.7),
    jitter: float = 0.05,
    stream: str = "soak-owners",
) -> List[Tuple[str, List[Tuple[float, float]]]]:
    """Per-host console-activity windows over ``horizon``.

    Each owner sits down around ``workday[0]`` of every day and leaves
    around ``workday[1]`` (fractions of ``day``), with per-host-per-day
    jitter — so private machines leave the broker's pool during "office
    hours" and return at night, forcing real revocations and re-grants
    under the soak's arrival load.  Returns ``[(host, [(on, off), ...])]``
    sorted by host."""
    rng = env.rng.stream(stream)
    out: List[Tuple[str, List[Tuple[float, float]]]] = []
    days = int(horizon // day) + 1
    for host in sorted(hosts):
        windows: List[Tuple[float, float]] = []
        for d in range(days):
            start = (d + workday[0] + float(rng.uniform(-jitter, jitter))) * day
            end = (d + workday[1] + float(rng.uniform(-jitter, jitter))) * day
            if start >= horizon:
                break
            windows.append((max(0.0, start), min(end, horizon)))
        out.append((host, windows))
    return out


def replay_owner_windows(env, machine, windows: Sequence[Tuple[float, float]]):
    """A sim process replaying owner presence windows on one machine.

    The same signal :class:`~repro.cluster.users.OwnerActivity` drives —
    ``console_active`` plus the login set — but from a precomputed trace
    instead of exponential holding times.  Drive with
    ``env.process(replay_owner_windows(env, machine, wins))``.  Windows on
    a machine that is down when they open are skipped (a crashed host's
    owner has nothing to type at)."""
    for on, off in windows:
        if on > env.now:
            yield env.timeout(on - env.now)
        if machine.up:
            machine.console_active = True
            if machine.owner is not None:
                machine.logged_in.add(machine.owner)
        if off > env.now:
            yield env.timeout(off - env.now)
        if machine.up:
            machine.console_active = False
            if machine.owner is not None:
                machine.logged_in.discard(machine.owner)
