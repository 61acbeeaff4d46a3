"""The paper's default allocation policy (§2), made precise.

The paper states three rules:

1. machines are *private* or *public*; private machines go only to adaptive
   jobs and the owner has absolute priority (revocation on return);
2. machines should be allocated just-in-time, not pre-reserved;
3. "in other cases, ResourceBroker tries to evenly partition machines among
   jobs".

The evaluation adds an implicit fourth rule: *firm* demand (a non-adaptive
job, or an explicit user-driven grow such as a PVM-console ``add``) preempts
*elastic* holdings (machines an adaptive job soaked up opportunistically) —
Table 2 shows a sequential job taking a machine from a running Calypso
computation, and Figure 7 shows a PVM virtual machine growing to the full
cluster at Calypso's expense.  Elastic jobs never preempt firm allocations
and even-partition only among themselves.

Preemption picks the *richest* elastic holder first (most allocations), so
repeated firm requests drain holders evenly from the top.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.policy.base import Decision, Policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.broker.records import Allocation, MachineRecord, PendingRequest
    from repro.broker.state import BrokerState


class DefaultPolicy(Policy):
    """Private/public × firm/elastic rules as described above."""

    name = "default"

    def decide(self, state: "BrokerState", request: "PendingRequest") -> Decision:
        """Grant an idle machine, preempt an elastic holder, or wait."""
        # Query the state's partitioned indexes: the idle search walks the
        # idle heaps in grant-preference order (O(log n) per grant, O(1) on
        # a fully-allocated cluster however large it is), and the victim
        # search touches only the held machines whose platform can match.
        # Both searches order by total-order keys, so index iteration order
        # never shows through in the decision.
        best = state.best_idle(request)
        if best is not None:
            return Decision.grant(best.host)
        eligible = state.held_eligible(request)
        victim = self._pick_victim(state, request, eligible)
        if victim is not None:
            machine, allocation = victim
            return Decision.preempt(machine.host, allocation.jobid)
        return Decision.wait("no idle machine and no preemptable holding")

    # -- internals ----------------------------------------------------------

    def _pick_victim(
        self, state: "BrokerState", request: "PendingRequest", eligible
    ) -> Optional[Tuple["MachineRecord", "Allocation"]]:
        candidates = self._preemptable(state, request, eligible)
        if not candidates:
            return None
        requester_holdings = state.holding_count(request.jobid)

        def richness(item: Tuple[MachineRecord, Allocation]) -> Tuple:
            machine, allocation = item
            return (
                -state.holding_count(allocation.jobid),  # richest holder first
                machine.kind != "public",  # prefer freeing public machines
                -allocation.granted_at,  # most recently granted first
                machine.host,
            )

        candidates.sort(key=richness)
        machine, allocation = candidates[0]
        if request.firm:
            return machine, allocation
        # Elastic requester: preempt only to restore even partition.
        if state.holding_count(allocation.jobid) > requester_holdings + 1:
            return machine, allocation
        return None

    def _preemptable(
        self, state: "BrokerState", request: "PendingRequest", eligible
    ) -> List[Tuple["MachineRecord", "Allocation"]]:
        result = []
        for machine in eligible:
            allocation = machine.allocation
            if allocation is None:
                continue
            if allocation.jobid == request.jobid:
                continue  # never preempt yourself
            if allocation.firm:
                continue  # firm holdings are stable; FIFO wait instead
            if allocation.state.value != "active":
                continue  # pending/reclaiming machines are already spoken for
            result.append((machine, allocation))
        return result
