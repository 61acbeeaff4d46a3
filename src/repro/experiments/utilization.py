"""§6.2 closing experiment — five-hour utilization of a dynamic environment.

"The setting was as follows.  An adaptive Calypso job ran initially on eight
machines.  Every 100 seconds, a script started a sequential program that ran
for t minutes, where t was chosen uniformly from the interval [1,10].  After
five hours, the total detected idleness (the total amount of time that the
machines were idle) was less than 1%."

Our setup: eight worker machines (n01..n08) plus the submitting host n00.
The Calypso job soaks all eight; each sequential arrival preempts one
machine for its duration; when it finishes the broker immediately re-grants
the machine to Calypso's queued request.  Idleness is integrated from the
processor-sharing CPUs of the eight worker machines.
"""

from __future__ import annotations

from repro.experiments._paper import occupy, paper_cluster, record
from repro.experiments.results import ExperimentTable
from repro.metrics.utilization import UtilizationMeter
from repro.workloads.arrivals import periodic_sequential_jobs


def run_utilization(
    horizon: float = 5 * 3600.0,
    period: float = 100.0,
    machines: int = 8,
    seed: int = 0,
    trace=None,
) -> ExperimentTable:
    """Regenerate the utilization experiment (horizon shrinkable for tests).

    ``trace`` may be a :class:`repro.obs.TraceCollector`; the run's cluster
    is then captured as one labelled trace group.
    """
    with paper_cluster(machines + 1, seed, broker=True) as cluster:
        svc = cluster.broker
        worker_hosts = [f"n{i:02d}" for i in range(1, machines + 1)]
        # Let the adaptive job occupy all the worker machines.
        argv = ["calypso", "1000000", "30.0", str(machines)]
        occupy(cluster, svc, argv, machines, 60.0)

        meter = UtilizationMeter(cluster, worker_hosts)
        meter.start()
        start = cluster.now

        workload = periodic_sequential_jobs(
            cluster.env, period=period, horizon=horizon
        )
        submitted = 0

        def submitter():
            nonlocal submitted
            for arrival, duration in workload.jobs():
                now = cluster.env.now - start
                if arrival > now:
                    yield cluster.env.timeout(arrival - now)
                svc.submit(
                    "n00",
                    ["rsh", "anylinux", "compute", f"{duration:.3f}"],
                    uid="seq",
                )
                submitted += 1

        cluster.env.process(submitter())
        cluster.env.run(until=start + horizon)

        record(cluster, "utilization", trace)
        idleness = meter.idleness()
        table = ExperimentTable(
            title="Utilization of a dynamic environment (paper section 6.2)",
            columns=["Metric", "Value"],
        )
        table.add("horizon (s)", horizon)
        table.add("machines", machines)
        table.add("sequential jobs submitted", submitted)
        table.add("mean utilization", meter.utilization())
        table.add("total detected idleness", idleness)
        table.meta["idleness"] = idleness
        table.meta["utilization_by_host"] = meter.utilization_by_host()
        table.notes.append("paper: total detected idleness < 1% over five hours")
        return table
