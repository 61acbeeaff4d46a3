"""A minimal per-machine filesystem.

Just enough to model the two files the paper's protocol actually touches:

* ``~/.hosts`` — the hostfile a job consults when growing (the user writes
  ``anylinux`` into it to opt into broker-chosen machines, paper §5.2), and
* ``~/.pvmrc`` — the command file the ``pvm_grow`` external module writes
  before invoking a PVM console (paper Figure 4).

Paths are plain strings; ``$HOME`` expansion resolves against the owning
process's ``HOME`` environment variable.
"""

from __future__ import annotations

from typing import Dict, List


class FileNotFound(KeyError):
    """Read of a path that does not exist."""


class Filesystem:
    """String-keyed text files on one machine.

    A file is the list of chunks appended to it since it was last read, so
    an append costs the chunk, not the file: a journal's WAL takes one
    append per flush and is read back only at recovery.
    """

    def __init__(self) -> None:
        self._files: Dict[str, List[str]] = {}

    def write(self, path: str, content: str) -> None:
        """Create or truncate ``path`` with ``content``."""
        self._files[path] = [content]

    def append(self, path: str, content: str) -> None:
        """Append to ``path`` (creating it if absent)."""
        self._files.setdefault(path, []).append(content)

    def read(self, path: str) -> str:
        """Contents of ``path`` (raises :class:`FileNotFound`)."""
        try:
            chunks = self._files[path]
        except KeyError:
            raise FileNotFound(path) from None
        if len(chunks) > 1:
            chunks[:] = ["".join(chunks)]
        return chunks[0]

    def read_lines(self, path: str) -> List[str]:
        """Non-empty stripped lines of ``path``."""
        return [
            line.strip()
            for line in self.read(path).splitlines()
            if line.strip()
        ]

    def exists(self, path: str) -> bool:
        """Whether ``path`` exists."""
        return path in self._files

    def unlink(self, path: str) -> None:
        """Delete ``path`` (no error if absent, like ``rm -f``)."""
        self._files.pop(path, None)

    def listdir(self) -> List[str]:
        """All paths, sorted."""
        return sorted(self._files)

    def __repr__(self) -> str:
        return f"<Filesystem {len(self._files)} files>"
