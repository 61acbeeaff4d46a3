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

from repro.cluster import Cluster, ClusterSpec
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
    with Cluster(ClusterSpec.uniform(machines + 1, seed=seed)) as cluster:
        svc = cluster.start_broker()
        svc.wait_ready()
        worker_hosts = [f"n{i:02d}" for i in range(1, machines + 1)]

        calypso = svc.submit(
            "n00",
            ["calypso", "1000000", "30.0", str(machines)],
            rsl="+(adaptive)",
            uid="cal",
        )
        # Let the adaptive job occupy all the worker machines.
        deadline = cluster.now + 60.0
        while cluster.now < deadline:
            cluster.env.run(until=cluster.now + 0.5)
            record = calypso.job_record()
            if record and svc.state.holding_count(record.jobid) == machines:
                break
        record = calypso.job_record()
        assert svc.state.holding_count(record.jobid) == machines

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
                    uid=f"seq",
                )
                submitted += 1

        cluster.env.process(submitter())
        cluster.env.run(until=start + horizon)

        if trace is not None:
            trace.add_cluster(cluster, label="utilization")
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


if __name__ == "__main__":  # pragma: no cover - manual run
    print(run_utilization())
