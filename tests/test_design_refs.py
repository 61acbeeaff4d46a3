"""The design documents name only what exists.

DESIGN.md, README.md and EXPERIMENTS.md cite files, functions, counters
and tests in backticks.  A rename or a deletion that forgets them leaves a
reader hunting for a name the tree no longer has, so this test holds every
such reference to the tree:

* a backticked path ending in ``.py``, ``.json``, ``.md`` or ``.yml`` (a
  ``tests/...::test_name`` node id included) names a file of the tree,
  from the repository root or as the tail of a path
  (``broker/daemon.py`` is ``src/repro/broker/daemon.py``), and a node
  id's test is defined in that file;
* a backticked identifier holding ``_`` or ``.`` (``Connection._buffer``,
  ``broker.daemon.report_bytes``, ``recv_or_deadline(delay)``) has its last
  component occur as a whole word in the code, the tests, the benchmarks,
  the examples, CI, the Makefile or the benchmark and gate pins.

Patterns with a ``*`` name a family, not one thing, and are not checked.
The frozen benchmark harness documents itself and is out of scope.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")
#: Where a cited identifier may live.
CODE = ("src", "tests", "benchmarks", "examples", ".github")
CODE_FILES = ("Makefile", "BENCHMARK.json", "BENCH_gates.json")
SKIP_DIRS = {".git", "__pycache__", ".hypothesis", ".benchmarks", "out"}

SPAN = re.compile(r"`([^`\n]+)`")
PATH = re.compile(r"^[\w./-]+\.(?:py|json|md|yml)$")
IDENT = re.compile(r"^([A-Za-z_][\w.]*?)(?:\(.*\))?$")
WORD = re.compile(r"[A-Za-z_]\w*")


def _tree_files():
    files = []
    for path in ROOT.rglob("*"):
        if path.is_file() and not SKIP_DIRS.intersection(
            path.relative_to(ROOT).parts
        ):
            files.append(path.relative_to(ROOT).as_posix())
    return files


def _code_words():
    words = set()
    paths = [ROOT / name for name in CODE_FILES]
    for top in CODE:
        paths.extend(
            p
            for p in (ROOT / top).rglob("*")
            if p.is_file()
            and p.suffix in (".py", ".json", ".yml", ".toml", ".md", "")
            and not SKIP_DIRS.intersection(p.relative_to(ROOT).parts)
        )
    for path in paths:
        if path == Path(__file__).resolve():
            continue  # the stale names below are examples, not citations
        words.update(WORD.findall(path.read_text(errors="replace")))
    return words


FILES = _tree_files()
WORDS = _code_words()


def _resolve(path: str):
    """The tree file ``path`` names, or None."""
    return next(
        (f for f in FILES if f == path or f.endswith("/" + path)), None
    )


def stale_references(text: str):
    """The backticked names in ``text`` that the tree does not have."""
    stale = []
    for span in SPAN.findall(text):
        span = span.strip()
        if "*" in span:
            continue
        path, _, node = span.partition("::")
        if PATH.match(path):
            found = _resolve(path)
            # A node id's last part, parameters dropped, is defined or
            # assigned at the start of a line of its file.
            test = node.rsplit("::", 1)[-1].split("[", 1)[0]
            if found is None or (
                test
                and not re.search(
                    rf"^\s*(?:def |class )?{re.escape(test)}\b",
                    (ROOT / found).read_text(),
                    re.MULTILINE,
                )
            ):
                stale.append(span)
            continue
        match = IDENT.match(span)
        if match is None:
            continue
        name = match.group(1)
        if "_" not in name and "." not in name:
            continue
        last = name.rstrip(".").rsplit(".", 1)[-1]
        if last and last not in WORDS:
            stale.append(span)
    return stale


@pytest.mark.parametrize("doc", DOCS)
def test_every_backticked_reference_exists(doc):
    stale = stale_references((ROOT / doc).read_text())
    assert not stale, f"{doc} names what the tree does not have: {stale}"


def test_a_stale_reference_is_caught():
    text = (
        "`serve_borrow`, `Process._unsuspend`, `BENCH_kernel.json`, "
        "`tests/test_design_refs.py::test_no_such_test`, but not "
        "`broker/daemon.py`, `Connection.recv_or_deadline(delay)`, "
        "`BENCH_*.json` or `make gates G=broker`"
    )
    assert stale_references(text) == [
        "serve_borrow",
        "Process._unsuspend",
        "BENCH_kernel.json",
        "tests/test_design_refs.py::test_no_such_test",
    ]
