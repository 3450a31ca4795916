"""tools/reachability.py on a toy package: attribution and the gate."""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reachability.py"
spec = importlib.util.spec_from_file_location("reachability", TOOL)
reachability = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reachability)

TOY = '''
import functools
import subprocess
import sys
import threading


def deco(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


@deco
@deco
def decorated():
    return 1


def outer():
    def nested():
        return 2
    return nested()


def in_child():
    return 3


def on_thread():
    return 4


def never_called():
    a = 1
    b = 2
    c = 3
    d = 4
    return a + b + c + d


def short_and_unreached():
    return 0


class Box:
    def get(self):
        x = 1
        y = 2
        z = 3
        w = 4
        return x + y + z + w


def main():
    decorated()
    outer()
    subprocess.run([sys.executable, "-c", "import toy.mod; toy.mod.in_child()"],
                   check=True)
    worker = threading.Thread(target=on_thread)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
'''


@pytest.fixture
def toy(tmp_path):
    package = tmp_path / "src" / "toy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(TOY))
    return tmp_path


COMMANDS = [[sys.executable, "-c", "import toy.mod; toy.mod.main()"]]


def _reached_names(root):
    out = root / "out"
    out.mkdir()
    reached, failed = reachability.collect(root, COMMANDS, out)
    assert failed == []
    defs, _classes, _sizes = reachability.functions(root / "src")
    return {qual for _m, qual, path, first, _n, _o in defs if (path, first) in reached}


def test_each_kind_of_call_is_attributed(toy):
    names = _reached_names(toy)
    # decorated (keyed by its first decorator line), nested, run only in a
    # child process, run only on a worker thread
    assert {"decorated", "outer.<locals>.nested", "in_child", "on_thread"} <= names
    assert not {"never_called", "short_and_unreached", "Box.get"} & names


def test_unreached_function_off_the_keep_list_fails(toy, capsys):
    keep = {"toy.mod:Box": ("protocol", "kept by its class")}
    assert reachability.run(toy, keep, COMMANDS) == 1
    out = capsys.readouterr().out
    assert "not on the keep-list: toy.mod:never_called" in out
    assert "toy.mod:Box.get" not in out.split("FAIL", 1)[1]
    # under GATE_LINES: printed, not gated
    assert "toy.mod:short_and_unreached" in out


def test_keep_list_passes_and_stale_entries_fail(toy, capsys):
    keep = {
        "toy.mod:Box": ("protocol", "kept by its class"),
        "toy.mod:never_called": ("fault", "a rollback path"),
    }
    assert reachability.run(toy, keep, COMMANDS) == 0
    keep["toy.mod:deleted_last_year"] = ("paper", "gone")
    assert reachability.run(toy, keep, COMMANDS) == 1
    assert "'toy.mod:deleted_last_year' names nothing" in capsys.readouterr().out
    del keep["toy.mod:deleted_last_year"]
    keep["toy.mod:never_called"] = ("because", "not one of the five reasons")
    assert reachability.run(toy, keep, COMMANDS) == 1


def test_a_failing_entry_point_fails_the_run(toy, capsys):
    keep = {"toy.mod:Box": ("protocol", ""), "toy.mod:never_called": ("fault", "")}
    commands = COMMANDS + [[sys.executable, "-c", "raise SystemExit(3)"]]
    assert reachability.run(toy, keep, commands) == 1
    assert "entry point failed" in capsys.readouterr().out


def test_repo_keep_list_is_well_formed():
    for name, (reason, what) in reachability.KEEP.items():
        assert reason in reachability.REASONS, name
        assert ":" in name and what, name
