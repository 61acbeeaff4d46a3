"""Policy interface."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle:
    # repro.broker's package init pulls in the default policy)
    from repro.broker.records import MachineRecord, PendingRequest
    from repro.broker.state import BrokerState


class DecisionKind(enum.Enum):
    """What the policy wants the broker to do for a request."""

    GRANT = "grant"  # give `host` to the requester now
    PREEMPT = "preempt"  # reclaim `host` from `victim_jobid`, then grant
    WAIT = "wait"  # nothing can be done yet; keep the request queued


@dataclass(frozen=True)
class Decision:
    kind: DecisionKind
    host: Optional[str] = None
    victim_jobid: Optional[int] = None
    reason: str = ""

    @classmethod
    def grant(cls, host: str) -> "Decision":
        return cls(DecisionKind.GRANT, host=host)

    @classmethod
    def preempt(cls, host: str, victim_jobid: int) -> "Decision":
        return cls(DecisionKind.PREEMPT, host=host, victim_jobid=victim_jobid)

    @classmethod
    def wait(cls, reason: str = "") -> "Decision":
        return cls(DecisionKind.WAIT, reason=reason)


class Policy:
    """Base class for allocation policies."""

    name = "abstract"

    def decide(
        self, state: "BrokerState", request: "PendingRequest"
    ) -> Decision:
        """Choose what to do for one queued machine request.

        Called whenever the request might become satisfiable (arrival, a
        machine freeing up, a daemon report changing eligibility).  Must not
        mutate ``state``.
        """
        raise NotImplementedError

    def reclaim_on_owner_return(
        self, state: "BrokerState", machine: "MachineRecord"
    ) -> bool:
        """Should the broker revoke ``machine``'s allocation now that its
        owner is at the console?  Default: yes (the paper's absolute-priority
        rule for private machines)."""
        return machine.kind == "private"

    def __repr__(self) -> str:
        return f"<Policy {self.name}>"
