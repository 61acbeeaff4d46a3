"""Figure 7 — resource reallocation time vs number of machines (paper §6.2).

Setting: "An adaptive Calypso job ran on every machine.  A PVM virtual
machine was created several times, and each time a different size virtual
machine was built.  To satisfy the PVM requests, machines had to be taken
away from the Calypso job first.  [The figure] reports the elapsed times
from the invocation until the resources were made available.  The results
show that the reallocation completes in approximately 1 second per machine,
and that this number scales linearly."

We measure, for each requested size k, the time from issuing the
``pvm add anylinux × k`` command until the broker has granted all k machines
to the PVM job (each grant requires revoking a Calypso worker first — the
"resources made available" instant).
"""

from __future__ import annotations

from typing import List, Optional

from repro.experiments._paper import occupy, paper_cluster, record
from repro.experiments.results import ExperimentTable
from repro.obs import grant_times

#: Request sizes plotted (the paper sweeps to its full 16-machine testbed).
DEFAULT_SIZES = [1, 2, 4, 8, 12, 16]


def measure_reallocation(k: int, seed: int = 0, trace=None) -> dict:
    """Time to pull ``k`` machines from Calypso for a fresh PVM job."""
    # 16 worker machines + the submitting host, Calypso everywhere.
    with paper_cluster(17, seed, broker=True) as cluster:
        svc = cluster.broker
        occupy(cluster, svc, ["calypso", "100000", "600.0", "16"], 16, 60.0)
        pvm_handle = svc.submit("n00", ["pvm"], rsl='+(module="pvm")', uid="pat")
        cluster.env.run(until=cluster.now + 3.0)
        pvm_job = pvm_handle.job_record()
        assert pvm_job is not None

        t0 = cluster.now
        add = cluster.run_command(
            "n00", ["pvm", "add", *(["anylinux"] * k)], uid="pat"
        )
        cluster.env.run(until=add.terminated)
        grants: List[float] = []
        deadline = cluster.now + 10.0 + 5.0 * k
        while len(grants) < k and cluster.now < deadline:
            cluster.env.run(until=cluster.now + 0.25)
            grants = grant_times(svc, pvm_job.jobid, since=t0)
        assert len(grants) >= k, f"only {len(grants)} of {k} machines granted"
        record(cluster, f"fig7 k={k}", trace)
    return {
        "k": k,
        "available_at": grants[k - 1],
        "per_machine": grants[k - 1] / k,
        "grant_times": grants[:k],
    }


def run_fig7(
    sizes: Optional[List[int]] = None, seed: int = 0, trace=None
) -> ExperimentTable:
    """Regenerate Figure 7's series.

    ``trace`` may be a :class:`repro.obs.TraceCollector`; each size's
    cluster is then captured as its own labelled trace group.
    """
    sizes = sizes or DEFAULT_SIZES
    table = ExperimentTable(
        title="Figure 7: Resource reallocation using PVM and ResourceBroker",
        columns=["machines", "time (s)", "s/machine"],
    )
    per_machine = []
    for k in sizes:
        result = measure_reallocation(k, seed=seed, trace=trace)
        table.add(str(k), result["available_at"], result["per_machine"])
        per_machine.append(result["per_machine"])
    table.meta["per_machine"] = per_machine
    table.meta["sizes"] = list(sizes)
    table.notes.append(
        "paper: reallocation completes in ~1 s per machine, scaling "
        "linearly to the full testbed"
    )
    return table
