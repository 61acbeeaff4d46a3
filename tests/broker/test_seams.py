"""The warm standby and the federation each sit behind one seam.

The broker core reaches both subsystems only through
:class:`~repro.broker.leases.Peer` (DESIGN.md §11), so deleting either is
deleting its module plus the one line that builds it.  This guard holds the
tree to that, with the two regexes ``make loc`` counts mentions by:

* the core — ``core.py``, ``sessions.py``, ``leases.py`` and ``journal.py``
  — names neither subsystem and imports neither module;
* ``records.py``, ``recovery.py`` and ``state.py`` name them only through
  the on-disk vocabulary the byte-identical WAL pins (:data:`RESIDUE`);
* ``service.py`` builds each subsystem exactly once.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BROKER = ROOT / "src" / "repro" / "broker"

#: Mentions of the warm standby (``broker/replica.py``).
STANDBY = re.compile(r"standby|\bship|replica|promot", re.IGNORECASE)
#: Mentions of the federation (``broker/federation.py``).
SHARD = re.compile(r"shard|federat|borrow|loan|migrating", re.IGNORECASE)

#: The residue left for deleting both subsystems: the ``loan`` op and the
#: ``loan``/``borrowed`` document keys, ``AllocationState.MIGRATING`` and
#: its ``"migrating"`` value, ``Allocation.loan`` and ``loaned_to``, and
#: ``MachineRecord.borrowed_from``.
RESIDUE = re.compile(
    r'"loan"|"borrowed"|"migrating"|\bMIGRATING\b|\bloaned_to\b'
    r"|\bborrowed_from\b|\bloan\("
)

CORE = ("core.py", "sessions.py", "leases.py", "journal.py")
BOOKS = ("records.py", "recovery.py", "state.py")
SUBSYSTEMS = {"repro.broker.replica": "WarmStandby", "repro.broker.federation": "Shard"}


def _mentions(name, residue=None):
    """(line number, line) of each line of ``name`` naming a subsystem,
    after ``residue`` is taken out of it."""
    found = []
    for number, line in enumerate((BROKER / name).read_text().splitlines(), 1):
        rest = residue.sub("", line) if residue is not None else line
        if STANDBY.search(rest) or SHARD.search(rest):
            found.append((number, line.strip()))
    return found


def _imported(name):
    """Every module ``name`` imports, relative imports resolved."""
    modules = set()
    for node in ast.walk(ast.parse((BROKER / name).read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "repro.broker" + ("." + base if base else "")
            modules.add(base)
            modules.update(f"{base}.{alias.name}" for alias in node.names)
    return modules


@pytest.mark.parametrize("name", CORE)
def test_the_core_names_neither_subsystem(name):
    assert _mentions(name) == []


@pytest.mark.parametrize("name", CORE)
def test_the_core_imports_neither_subsystem(name):
    assert not _imported(name) & set(SUBSYSTEMS)


@pytest.mark.parametrize("name", BOOKS)
def test_the_books_name_them_only_through_the_residue(name):
    assert _mentions(name, RESIDUE) == []


def test_the_service_builds_each_subsystem_once():
    tree = ast.parse((BROKER / "service.py").read_text())
    built = [
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    assert {cls: built.count(cls) for cls in SUBSYSTEMS.values()} == dict.fromkeys(
        SUBSYSTEMS.values(), 1
    )


def test_make_loc_counts_with_these_regexes():
    makefile = (ROOT / "Makefile").read_text()
    assert STANDBY.pattern in makefile and SHARD.pattern in makefile
