"""Guard sweep: which ``raise`` statements and ``except`` clauses can be
disabled without a test failing.

    python3 tools/guards.py [--src DIR] [--module M]...

For every site in the chosen modules of the package under ``--src`` (by
default this checkout's ``src``; every module unless ``--module`` names some,
one per use, as ``cells`` or ``dsl.parser``), the sweep makes one mutant in a
scratch copy of the source and test trees and runs the module's test files:
those in the ``tests`` directory beside ``--src`` that import the module. A
site is a ``raise``, which the mutant replaces with ``pass``, or one type that
an ``except`` clause catches: the mutant drops that type from the clause's
tuple, or, for a clause that names one type, makes its body a bare ``raise``.
The given tree is never edited. A site whose mutant those tests survive is
run once more against every test file, so a site tested only through another
module counts as tested.

Each site that survives both runs is printed as ``module:line message`` for a
``raise`` and ``module:line except Type`` for a caught type, and one whose run
outlives ``TIMEOUT`` seconds as ``... (hang)``: its mutant hangs the suite
instead of failing it. The exit code is 0 when none survives, 1 when some do,
and 2 when the unmutated tests already fail.

Deselected: the training matrix (criteria 8 and 9), which takes minutes; the
timing gate (criterion 10), which guards no input; and the tests of the
scripts in ``tools/`` and of the README's example, which the copy lacks.
Each run loads no third-party pytest plugin (the suite uses none), which
saves most of a second per run. Bytecode is not written, so no stale
``.pyc`` of one mutant is read for the next.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

DESELECT = (
    "not criterion_08 and not criterion_09 and not criterion_10"
    " and not test_fingerprint and not test_guards and not test_the_readme"
)
TIMEOUT = 120.0  # seconds; the fast suite takes about 10 on one core


def _package(src: Path) -> Path:
    pkgs = [p for p in sorted(src.iterdir()) if (p / "__init__.py").is_file()]
    if len(pkgs) != 1:
        raise SystemExit(f"guards: expected one package under {src}, found {len(pkgs)}")
    return pkgs[0]


def _modules(pkg: Path) -> dict[str, Path]:
    """Dotted module name (relative to the package) -> source file."""
    out = {}
    for path in sorted(pkg.rglob("*.py")):
        rel = path.relative_to(pkg).with_suffix("")
        out[".".join(rel.parts)] = path
    return out


def _message(node: ast.Raise) -> str:
    """The raised message as written, or the raise's source when it has none."""
    exc = node.exc
    if isinstance(exc, ast.Call) and exc.args:
        arg = exc.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        if isinstance(arg, ast.JoinedStr):
            return "".join(
                v.value if isinstance(v, ast.Constant) else "{" + ast.unparse(v.value) + "}"
                for v in arg.values
            )
    return ast.unparse(node)


def _splice(source: str, first: ast.AST, last: ast.AST, text: str) -> str:
    """``source`` with ``text`` in place of the span from the start of node
    ``first`` to the end of node ``last``."""
    lines = source.splitlines(keepends=True)
    a, b = first.lineno - 1, last.end_lineno - 1
    lines[a : b + 1] = [lines[a][: first.col_offset] + text + lines[b][last.end_col_offset :]]
    return "".join(lines)


def _sites(source: str) -> list[tuple[int, str, str]]:
    """``(line, label, mutant source)`` for each site of ``source``, by line."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            sites.append((node.lineno, _message(node), _splice(source, node, node, "pass")))
        elif isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Tuple):
            for t in node.type.elts:
                rest = "".join(ast.unparse(u) + ", " for u in node.type.elts if u is not t)
                mutant = _splice(source, node.type, node.type, f"({rest})")
                sites.append((node.lineno, f"except {ast.unparse(t)}", mutant))
        elif isinstance(node, ast.ExceptHandler):
            label = f"except {ast.unparse(node.type)}" if node.type else "except"
            mutant = _splice(source, node.body[0], node.body[-1], "raise")
            sites.append((node.lineno, label, mutant))
    return sorted(sites, key=lambda site: site[0])


def _test_files(tests: Path, pkg: str, module: str) -> list[Path]:
    """Test files that import ``module`` of package ``pkg``, by either form."""
    head, _, last = module.rpartition(".")
    parent = ".".join(filter(None, (pkg, head)))
    dotted = re.compile(rf"\b{re.escape(pkg)}\.{re.escape(module)}\b")
    from_parent = re.compile(rf"from\s+{re.escape(parent)}\s+import\s+(\([^)]*\)|[^\n]*)")
    word = re.compile(rf"\b{re.escape(last)}\b")

    def uses(text: str) -> bool:
        return bool(dotted.search(text)) or any(
            word.search(names) for names in from_parent.findall(text)
        )

    return [p for p in sorted(tests.glob("test_*.py")) if uses(p.read_text())]


def _run(root: Path, files: list[Path]) -> str:
    """'pass', 'fail' or 'hang' for pytest over ``files`` in the copy ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTEST_DISABLE_PLUGIN_AUTOLOAD="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--rootdir", str(root), "-k", DESELECT, *map(str, files)]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, timeout=TIMEOUT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "hang"
    return "pass" if done.returncode in (0, 5) else "fail"  # 5: none collected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_src = Path(__file__).resolve().parent.parent / "src"
    parser.add_argument("--src", type=Path, default=default_src,
                        help="directory that holds the package (tests/ beside it)")
    parser.add_argument("--module", action="append", default=None,
                        help="module to sweep, relative to the package; repeatable")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    tests = src.parent / "tests"
    if not tests.is_dir():
        parser.error(f"no tests directory beside {src}")
    pkg = _package(src)
    modules = _modules(pkg)
    names = args.module or list(modules)
    for name in names:
        if name not in modules:
            parser.error(f"no module {name!r} in {pkg.name}")

    survivors = 0
    with tempfile.TemporaryDirectory(prefix="guards-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(src, root / "src", ignore=ignore)
        shutil.copytree(tests, root / "tests", ignore=ignore)
        if (src.parent / "pyproject.toml").is_file():  # the suite's pytest settings
            shutil.copy(src.parent / "pyproject.toml", root)
        every = sorted((root / "tests").glob("test_*.py"))
        if _run(root, every) != "pass":
            print("guards: the tests fail before any guard is removed", file=sys.stderr)
            return 2
        for name in names:
            target = root / "src" / modules[name].relative_to(src)
            source = target.read_text()
            files = _test_files(root / "tests", pkg.name, name)
            sites = _sites(source)
            print(f"# {name}: {len(sites)} sites, {len(files)} test files",
                  file=sys.stderr)
            for line, label, mutant in sites:
                target.write_text(mutant)
                try:
                    verdict = _run(root, files) if files else "pass"
                    if verdict == "pass" and files != every:
                        verdict = _run(root, every)
                finally:
                    target.write_text(source)
                if verdict != "fail":
                    survivors += 1
                    where = f"{modules[name].relative_to(pkg).as_posix()}:{line}"
                    hang = " (hang)" if verdict == "hang" else ""
                    print(f"{where} {label}{hang}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
