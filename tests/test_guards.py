"""The guard sweep reports exactly the guards and caught types that no test
reaches."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "guards.py"

TOY = '''\
def clamp(x):
    if x < 0:
        raise ValueError("x must be non-negative")
    if x > 10:
        raise ValueError(
            f"x must be at most 10, got {x}"
        )
    return x


def number(text):
    try:
        return int(text)
    except (ValueError, TypeError):
        return -1


def first(items):
    try:
        return items[0]
    except IndexError:
        return None


def lookup(table, key):
    try:
        return table[key]
    except KeyError:
        return None
'''

TOY_TESTS = '''\
import pytest
from toy.mod import clamp, first, lookup, number


def test_clamp():
    assert clamp(3) == 3
    with pytest.raises(ValueError, match="non-negative"):
        clamp(-1)


def test_handlers():
    assert number("7") == 7 and number("x") == -1
    assert first([4]) == 4 and first([]) is None
    assert lookup({1: 2}, 1) == 2
'''


def test_sweep_reports_only_the_untested_guard(tmp_path):
    (tmp_path / "src" / "toy").mkdir(parents=True)
    (tmp_path / "src" / "toy" / "__init__.py").write_text("")
    (tmp_path / "src" / "toy" / "mod.py").write_text(TOY)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(TOY_TESTS)
    before = {p: p.read_text() for p in tmp_path.rglob("*.py")}

    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--src", str(tmp_path / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stderr
    assert run.stdout.splitlines() == [
        "mod.py:5 x must be at most 10, got {x}",
        "mod.py:14 except TypeError",
        "mod.py:28 except KeyError",
    ]
    assert {p: p.read_text() for p in tmp_path.rglob("*.py")} == before
