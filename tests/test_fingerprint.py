"""The parity fingerprint script is deterministic."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"


def test_fingerprint_runs_are_identical():
    runs = [
        subprocess.run(
            [sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=300
        )
        for _ in range(2)
    ]
    for run in runs:
        assert run.returncode == 0, run.stderr
    lines = runs[0].stdout.splitlines()
    assert len(lines) == 2 * 7 * 2 + 4  # kinds x levels x dropouts, wide, vocab, combined
    assert lines[-1].startswith("combined ") and len(lines[-1].split()[1]) == 64
    assert runs[0].stdout == runs[1].stdout
