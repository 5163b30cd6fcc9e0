"""The package as a user meets it: what an import loads, and the README's
library example."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = os.environ | {"PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], env=ENV, capture_output=True, text=True,
        timeout=120,
    )


def test_the_dsl_oracle_loads_none_of_the_numeric_core():
    # the interpreter is checked against the native cells, so it must not
    # reach them, nor anything else that trains, through an import
    run = _run(
        "import sys\n"
        "import typedrnn.dsl.interp, typedrnn.dsl.checker, typedrnn.dsl.parser\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'typedrnn'))\n"
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [
        "typedrnn", "typedrnn.dsl", "typedrnn.dsl.checker", "typedrnn.dsl.interp",
        "typedrnn.dsl.nodes", "typedrnn.dsl.parser", "typedrnn.dsl.typesys",
    ]


def test_the_readme_python_examples_run():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        run = _run(block)
        assert run.returncode == 0, run.stderr
