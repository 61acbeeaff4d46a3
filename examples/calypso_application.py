#!/usr/bin/env python
"""Writing a real adaptive application against the Calypso runtime API.

A two-phase computation (square a range in parallel, then sum partial
blocks), written like a Calypso program: sequential code between parallel
steps, a persistent adaptive worker pool, custom worker code computing real
results — and *zero* resource management in the application.  Mid-run, a
sequential job preempts one of its machines; the phase still completes with
every result intact (eager scheduling + just-in-time reacquisition).

Phase 1 hands ``run_phase`` a lazy sequence: the runtime reads ``blocks[i]``
when it assigns step ``i`` and holds only the steps in flight, so the same
program could declare a million blocks at the cost of twelve.  Phase 2
hands it a plain list; both are "a sized, indexable sequence of steps".

Run:  python examples/calypso_application.py
"""

from collections.abc import Sequence

from repro.cluster import Cluster, ClusterSpec
from repro.systems.calypso import CalypsoRuntime, ParallelStep


class Blocks(Sequence):
    """``n`` steps, each squaring-and-summing one ``[lo, hi)`` range of
    ``width`` numbers; a step exists only while somebody asks for it."""

    def __init__(self, n, width, work):
        self.n, self.width, self.work = n, width, work

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        if not 0 <= i < self.n:
            raise IndexError(i)
        return ParallelStep(
            work=self.work, payload=(i * self.width, (i + 1) * self.width)
        )


def install_square_worker(cluster):
    @cluster.system_bin.register("squareworker")
    def squareworker(proc):
        from repro.os.errors import ConnectionClosed
        from repro.sim.process import Interrupt

        try:
            conn = yield proc.connect(proc.argv[1], int(proc.argv[2]))
            conn.send({"type": "worker_hello", "host": proc.machine.name})
            while True:
                msg = yield conn.recv()
                if msg.get("type") != "assign":
                    return 0
                yield proc.compute(float(msg["work"]))
                lo, hi = msg["payload"]
                conn.send(
                    {
                        "type": "result",
                        "step": msg["step"],
                        "value": sum(x * x for x in range(lo, hi)),
                    }
                )
        except (ConnectionClosed, Interrupt):
            return 0


def main() -> None:
    cluster = Cluster(ClusterSpec.uniform(5, seed=4))
    install_square_worker(cluster)
    service = cluster.start_broker()
    service.wait_ready()

    outcome = {}

    @cluster.system_bin.register("sum-of-squares")
    def app(proc):
        runtime = CalypsoRuntime(
            proc, target_workers=4, worker_program="squareworker"
        )
        runtime.start()
        # Phase 1: 12 blocks of [lo, hi) ranges, ~2 CPU-seconds each,
        # made one at a time as workers ask for them.
        partials = yield from runtime.run_phase(Blocks(12, 1000, work=2.0))
        outcome["partials"] = partials
        # Sequential section: combine.
        total = sum(partials)
        # Phase 2: verify by re-summing two halves.
        halves = yield from runtime.run_phase(
            [
                ParallelStep(work=2.0, payload=(0, 6000)),
                ParallelStep(work=2.0, payload=(6000, 12000)),
            ]
        )
        runtime.shutdown()
        outcome["total"] = total
        outcome["check"] = sum(halves)
        return 0

    job = service.submit("n00", ["sum-of-squares"], rsl="+(adaptive)")

    # Mid-run, someone needs a machine for 10 seconds.
    def intruder():
        yield cluster.env.timeout(6.0)
        print(f"t={cluster.now:6.2f}  sequential job arrives (preempts one "
              "worker machine)")
        service.submit("n00", ["rsh", "anylinux", "compute", "10"], uid="seq")

    cluster.env.process(intruder())
    code = job.wait()

    expected = sum(x * x for x in range(12000))
    print(f"\napp exit={code}")
    print(f"12 partial sums -> total = {outcome['total']}")
    print(f"2-half check    -> total = {outcome['check']}")
    print(f"ground truth    -> total = {expected}")
    assert outcome["total"] == outcome["check"] == expected
    revs = len(service.events_of("revoke"))
    print(f"\nrevocations during the run: {revs} — results intact anyway "
          "(eager scheduling re-ran the lost step)")
    cluster.assert_no_crashes()


if __name__ == "__main__":
    main()
