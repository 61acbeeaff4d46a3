"""The gate registry of ``benchmarks/gates.py`` and its pin file agree.

Cheap: nothing is simulated.  Every gate has pins, every pinned block has a
gate, and no pinned key names a host measurement — wall time is rbbench's.
The oracle judges the four safety gates.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _gates():
    spec = importlib.util.spec_from_file_location(
        "gates", ROOT / "benchmarks" / "gates.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_gate_has_pins_and_every_pin_a_gate():
    gates = _gates()
    pins = json.loads(gates.PINS.read_text())
    assert set(gates.GATES) == set(pins)
    assert gates.CHECKED == {"chaos", "soak", "failover", "federation"}
    assert all(gates.flatten(block) for block in pins.values())


def test_no_pin_is_a_host_measurement():
    gates = _gates()
    keys = gates.flatten(json.loads(gates.PINS.read_text()))
    assert [k for k in keys if "wall" in k or "per_second" in k] == []
