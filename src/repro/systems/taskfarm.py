"""Self-scheduling master/worker applications over PVM and LAM.

The paper's opening sentence grounds "adaptive" in exactly this application
class: "Most master-slave PVM programs [and] self-scheduling MPI programs
... are adaptive."  This module provides that workload:

* ``pvm_farm <tasks> <cpu_per_task>`` — a PVM application: spawns one
  ``farmworker`` task per virtual-machine host (via the pvmd task layer) and
  self-schedules the task bag over them;
* ``mpi_farm <tasks> <cpu_per_task>`` — the same program shaped as an MPI
  job on a LAM universe (spawned through ``mpirun``);
* ``mpirun <count> <prog> [args...]`` — the LAM launcher: places ``count``
  processes round-robin over the universe;
* ``farmworker <master_host> <port>`` — the system-agnostic worker: asks
  for work, computes, repeats; dies without ceremony.

Adaptivity contract: a worker lost mid-task (machine revoked, daemon
killed) simply causes the master to requeue the task — the farm finishes on
whatever workers remain.
"""

from __future__ import annotations

from collections import deque

from repro.os.errors import ConnectionClosed, ConnectionRefused, NoSuchHost
from repro.sim.process import Interrupt
from repro.systems import vmd
from repro.systems.lam.daemon import LAM
from repro.systems.pvm.daemon import PVM


# ---------------------------------------------------------------------------
# the shared farm master
# ---------------------------------------------------------------------------


class _Farm:
    def __init__(self, n_tasks: int, cpu_per_task: float) -> None:
        self.cpu_per_task = cpu_per_task
        self.bag = deque(range(n_tasks))
        self.done = set()
        self.n_tasks = n_tasks
        self.finished = None  # Event, set by the master body

    def next_task(self):
        return self.bag.popleft() if self.bag else None

    def complete(self, task: int) -> None:
        self.done.add(task)
        if len(self.done) >= self.n_tasks and not self.finished.triggered:
            self.finished.succeed()

    def requeue(self, task: int) -> None:
        if task not in self.done:
            self.bag.append(task)


def _farm_master(proc, dialect):
    """Common master body: one worker per host of ``dialect``'s machine."""
    if len(proc.argv) < 3:
        return 1
    n_tasks = int(proc.argv[1])
    cpu_per_task = float(proc.argv[2])
    if n_tasks <= 0:
        return 1

    farm = _Farm(n_tasks, cpu_per_task)
    farm.finished = proc.env.event()
    port = proc.machine.network.ephemeral_port(proc.machine)
    listener = proc.listen(port)

    worker_argv = ["farmworker", proc.machine.name, str(port)]
    placed = yield from _place(proc, dialect, worker_argv)
    if not any(p["pid"] is not None for p in placed or ()):
        return 1

    def accept_loop():
        while True:
            try:
                conn = yield listener.accept()
            except ConnectionClosed:
                return
            proc.thread(session(conn), name="farm-session")

    def session(conn):
        current = None
        try:
            while True:
                msg = yield conn.recv()
                if msg.get("type") != "ready":
                    break
                if current is not None:
                    farm.complete(current)
                    current = None
                task = farm.next_task()
                if task is None:
                    if farm.finished.triggered or not _outstanding():
                        conn.send({"type": "done"})
                        break
                    # The bag is empty but peers may still fail; stall this
                    # worker briefly rather than dismissing it.
                    yield proc.sleep(0.2)
                    conn.send({"type": "task", "id": -1, "work": 0.0})
                    continue
                current = task
                conn.send(
                    {"type": "task", "id": task, "work": farm.cpu_per_task}
                )
        except ConnectionClosed:
            pass
        if current is not None:
            farm.requeue(current)  # worker died mid-task: redo elsewhere
        conn.close()

    def _outstanding():
        return len(farm.done) < farm.n_tasks

    proc.thread(accept_loop(), name="farm-accept")
    yield farm.finished
    return 0


def farmworker_main(proc):
    """``farmworker <master_host> <port>``: ask, compute, repeat."""
    if len(proc.argv) < 3:
        return 1
    try:
        conn = yield proc.connect(proc.argv[1], int(proc.argv[2]))
    except (ConnectionRefused, NoSuchHost):
        return 1
    except Interrupt:
        return 0
    try:
        while True:
            conn.send({"type": "ready"})
            msg = yield conn.recv()
            if msg.get("type") != "task":
                break
            work = float(msg.get("work", 0.0))
            if work > 0:
                yield proc.compute(work, tag="farm-task")
    except (ConnectionClosed, Interrupt):
        return 0
    conn.close()
    return 0


# ---------------------------------------------------------------------------
# placing tasks through the virtual-machine daemon
# ---------------------------------------------------------------------------


def _place(proc, dialect, argv, count=None):
    """Spawn ``count`` tasks (default: one per host) round-robin over the
    running virtual machine: the placements, or ``None`` when no daemon
    answers."""
    try:
        conn = yield from vmd.connect(proc, dialect)
        hosts = (yield from vmd.command(conn, dialect, "conf"))["hosts"]
        reply = yield from vmd.command(
            conn,
            dialect,
            "spawn",
            argv=list(argv),
            count=len(hosts) if count is None else count,
        )
    except dialect.error:
        return None
    conn.close()
    return reply["tasks"]


def pvm_farm_main(proc):
    """``pvm_farm <tasks> <cpu_per_task>`` over the running PVM."""
    code = yield from _farm_master(proc, PVM)
    return code


def mpi_farm_main(proc):
    """``mpi_farm <tasks> <cpu_per_task>`` over the running LAM universe."""
    code = yield from _farm_master(proc, LAM)
    return code


def mpirun_main(proc):
    """``mpirun <count> <prog> [args...]``: place tasks over the universe."""
    if len(proc.argv) < 3:
        return 1
    count = int(proc.argv[1])
    placed = yield from _place(proc, LAM, proc.argv[2:], count)
    if placed is None:
        return 1
    return 0 if sum(1 for p in placed if p.get("pid")) == count else 1


def install_taskfarm(directory) -> None:
    """Register the farm programs and mpirun in ``directory``."""
    directory.register("farmworker", farmworker_main)
    directory.register("pvm_farm", pvm_farm_main)
    directory.register("mpi_farm", mpi_farm_main)
    directory.register("mpirun", mpirun_main)
