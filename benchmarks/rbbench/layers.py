"""Layer map and cProfile folding for the traced run.

A layer is a set of source files of ``src/repro``.  The traced run folds
every profiled function's *self* time and call count into the layer that
owns its file; a C builtin has no file, so its self time is charged to the
layer of whichever function called it.
"""

from __future__ import annotations

import os
import pstats
from typing import Any, Dict, Optional

#: Files that are a layer of their own, as paths under ``src/repro``.
_FILE_LAYERS = {
    "sim/environment.py": "sim.environment",
    "sim/events.py": "sim.events",
    "sim/process.py": "sim.process",
    "sim/stores.py": "sim.stores",
    "sim/pshare.py": "sim.pshare",
    "cluster/network.py": "cluster.network",
    "cluster/builder.py": "cluster.builder",
    "broker/daemon.py": "broker.daemon",
    "broker/core.py": "broker.core",
    "broker/state.py": "broker.state",
    "broker/journal.py": "broker.journal",
    "broker/replica.py": "broker.replica",
    "broker/app.py": "broker.app",
    "broker/rshprime.py": "broker.app",
    "broker/modules.py": "broker.app",
    "broker/protocol.py": "broker.protocol",
}

#: Every other file of a package lands here, so a file a later change adds
#: (or splits out of ``broker/core.py``) shows up in ``*.other`` instead of
#: vanishing.  ``rsl`` is the request parser ``app`` and ``rsh'`` call;
#: ``metrics`` is the pre-``obs`` meters; ``experiments`` drive the load.
_PACKAGE_LAYERS = {
    "sim": "sim.other",
    "cluster": "cluster.other",
    "os": "os",
    "rsh": "rsh",
    "broker": "broker.other",
    "rsl": "broker.app",
    "policy": "policy",
    "obs": "obs",
    "metrics": "obs",
    "systems": "systems",
    "faults": "faults",
    "workloads": "workloads",
    "experiments": "workloads",
}

LAYERS = tuple(
    dict.fromkeys(
        list(_FILE_LAYERS.values()) + list(_PACKAGE_LAYERS.values()) + ["stdlib"]
    )
)

#: Bucket for files of ``repro`` no rule above claims; the traced run fails
#: when it holds more than this share of the self time.
UNDECLARED = "undeclared"
MAX_UNDECLARED_SHARE = 0.02

#: Public functions whose call count is a per-layer metric.
_COUNTED_CALLS = {
    ("cluster/network.py", "send"): "cluster.network.sends",
    ("cluster/network.py", "connect"): "cluster.network.connects",
    ("os/process.py", "__init__"): "os.spawns",
}


class LayerMap:
    """Maps a profiled file name to a layer."""

    def __init__(self, repro_dir: str, harness_dir: str) -> None:
        self._repro = repro_dir.rstrip(os.sep) + os.sep
        self._harness = harness_dir.rstrip(os.sep) + os.sep

    def relative(self, filename: str) -> Optional[str]:
        """Path under ``src/repro`` with ``/`` separators, else None."""
        if filename.startswith(self._repro):
            return filename[len(self._repro):].replace(os.sep, "/")
        return None

    def layer_of(self, filename: str) -> str:
        rel = self.relative(filename)
        if rel is None:
            # The harness is the load generator's own cost.
            if filename.startswith(self._harness):
                return "workloads"
            return "stdlib"
        if rel in _FILE_LAYERS:
            return _FILE_LAYERS[rel]
        return _PACKAGE_LAYERS.get(rel.split("/", 1)[0], UNDECLARED)


def fold_profile(profile: Any, layer_map: LayerMap) -> Dict[str, Any]:
    """Fold a finished ``cProfile.Profile`` into layers.

    Returns ``self_s`` and ``calls`` per layer (including ``UNDECLARED``),
    the ``counted`` public-function call counts, and the raw per-file table.
    """
    self_s = {layer: 0.0 for layer in LAYERS + (UNDECLARED,)}
    calls = {layer: 0 for layer in LAYERS + (UNDECLARED,)}
    counted = {metric: 0 for metric in _COUNTED_CALLS.values()}
    files: Dict[str, Dict[str, Any]] = {}

    def charge(filename: str, seconds: float, ncalls: int) -> None:
        layer = layer_map.layer_of(filename)
        self_s[layer] += seconds
        calls[layer] += ncalls
        key = layer_map.relative(filename) or filename
        row = files.setdefault(key, {"layer": layer, "self_s": 0.0, "calls": 0})
        row["self_s"] += seconds
        row["calls"] += ncalls

    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    for (filename, _line, name), (_cc, ncalls, tottime, _ct, callers) in stats.items():
        if filename != "~":
            charge(filename, tottime, ncalls)
            metric = _COUNTED_CALLS.get((layer_map.relative(filename), name))
            if metric is not None:
                counted[metric] += ncalls
        else:
            for (caller_file, _l, _n), (n, _c, tt, _t) in callers.items():
                charge("<builtin>" if caller_file == "~" else caller_file, tt, n)
                tottime -= tt
                ncalls -= n
            # What is left had no recorded caller (see README, "cProfile
            # and yield from").
            charge("<builtin>", tottime, ncalls)
    return {"self_s": self_s, "calls": calls, "counted": counted, "files": files}
