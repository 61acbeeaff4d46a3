"""Run simulations under the invariant oracle, checked after every event.

:func:`watch` installs a ``step()`` loop in place of ``Environment.run``
(the same kernel, see ``tests/sim/test_kernel_edges.py``) that checks
:class:`~repro.broker.invariants.Oracle` after every dispatched event of
every cluster built while it is installed.  The oracle only reads, so the
checked run is the unchecked run: nothing in the simulation sees it.

    with watch(monkeypatch) as checked:
        table = run_chaos(seed=7)
    assert checked.settled() is None
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional

from repro.broker.invariants import Oracle, Violation
from repro.cluster.builder import Cluster
from repro.sim.environment import Environment
from repro.sim.events import Event


class Watch:
    """The oracles of every cluster built while the watch is installed."""

    def __init__(self) -> None:
        self.oracles: List[Oracle] = []
        self._by_env: Dict[int, Oracle] = {}

    @property
    def first(self) -> Optional[Violation]:
        """The earliest per-event violation of any watched cluster."""
        found = [o.first for o in self.oracles if o.first is not None]
        return min(found, key=lambda v: v.time) if found else None

    def settled(self) -> Optional[Violation]:
        """The first violation of the run, settle-time properties included:
        call once the scenario has settled."""
        for oracle in self.oracles:
            oracle.check_settled()
        return self.first

    def _register(self, cluster) -> None:
        oracle = Oracle(cluster)
        self.oracles.append(oracle)
        self._by_env[id(cluster.env)] = oracle

    def _check(self, env) -> None:
        oracle = self._by_env.get(id(env))
        if oracle is not None and oracle.first is None:
            oracle.check()

    def run(self, env, until=None):
        """``Environment.run`` as a checked ``step()`` loop."""
        if isinstance(until, Event):
            while not until.processed:
                env.step()
                self._check(env)
            if until.ok:
                return until.value
            raise until.value
        if until is None:
            while env.peek() != float("inf"):
                env.step()
                self._check(env)
            return None
        stop_at = float(until)
        if stop_at < env.now:
            raise ValueError(f"until={stop_at!r} is in the past (now={env.now!r})")
        while env.peek() <= stop_at:
            env.step()
            self._check(env)
        env._now = stop_at  # run() leaves the clock on its horizon
        return None


@contextlib.contextmanager
def watch(monkeypatch) -> Iterator[Watch]:
    """Check every cluster built inside the block after every event."""
    checked = Watch()
    build = Cluster.__init__

    def init(cluster, spec) -> None:
        build(cluster, spec)
        checked._register(cluster)

    with monkeypatch.context() as patch:
        patch.setattr(Cluster, "__init__", init)
        patch.setattr(
            Environment, "run", lambda env, until=None: checked.run(env, until)
        )
        yield checked
