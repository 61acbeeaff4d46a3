"""Unit tests for the per-machine filesystem."""

import random

import pytest

from repro.os.filesystem import FileNotFound, Filesystem


@pytest.fixture
def fs():
    return Filesystem()


def test_write_read(fs):
    fs.write("/a", "hello")
    assert fs.read("/a") == "hello"


def test_write_truncates(fs):
    fs.write("/a", "one")
    fs.write("/a", "two")
    assert fs.read("/a") == "two"


def test_append_creates_and_extends(fs):
    fs.append("/a", "x\n")
    fs.append("/a", "y\n")
    assert fs.read("/a") == "x\ny\n"


def test_read_missing_raises(fs):
    with pytest.raises(FileNotFound):
        fs.read("/nope")


def test_read_lines_skips_blanks(fs):
    fs.write("/h", "n01\n\n  n02  \n\n")
    assert fs.read_lines("/h") == ["n01", "n02"]


def test_unlink_is_idempotent(fs):
    fs.write("/a", "x")
    fs.unlink("/a")
    fs.unlink("/a")
    assert not fs.exists("/a")


def test_listdir_sorted(fs):
    fs.write("/b", "")
    fs.write("/a", "")
    assert fs.listdir() == ["/a", "/b"]


def test_interleaved_operations_match_a_plain_string_model(fs):
    """Appends keep chunks until a read joins them; every operation must
    still see exactly what string concatenation would have produced."""
    rng = random.Random(7)
    model = {}
    for step in range(2000):
        path = rng.choice(["/wal", "/snap", "/other"])
        op = rng.choice(["append", "append", "append", "read", "write",
                         "unlink", "listdir", "exists"])
        text = f"{step};" * rng.randint(0, 3)
        if op == "append":
            fs.append(path, text)
            model[path] = model.get(path, "") + text
        elif op == "write":
            fs.write(path, text)
            model[path] = text
        elif op == "unlink":
            fs.unlink(path)
            model.pop(path, None)
        elif op == "read" and path in model:
            assert fs.read(path) == model[path]
        elif op == "read":
            with pytest.raises(FileNotFound):
                fs.read(path)
        assert fs.listdir() == sorted(model)
        assert fs.exists(path) == (path in model)
    for path, text in model.items():
        assert fs.read(path) == text
        assert fs.read(path) == text  # a second read of a joined file


def test_home_expansion_via_process():
    from repro.cluster.network import Network
    from repro.os import Machine, OSProcess
    from repro.os.programs import ProgramDirectory
    from repro.sim import Environment

    env = Environment()
    network = Network(env)
    machine = Machine(env, "m")
    network.add_machine(machine)
    directory = ProgramDirectory("d")

    @directory.register("p")
    def p(proc):
        proc.write_file("~/f", "1")
        proc.append_file("$HOME/f", "2")
        assert proc.read_file("~/f") == "12"
        assert proc.file_exists("$HOME/f")
        proc.unlink_file("~/f")
        assert not proc.file_exists("~/f")
        yield proc.sleep(0)
        return 0

    machine.path = [directory]
    proc = OSProcess(machine, ["p"], uid="kim", environ={"HOME": "/home/kim"})
    env.run()
    assert proc.exit_code == 0
