"""Every ``repro`` module is reachable from an entry point.

The entry points are everything a user runs: the real-clock benchmark
(``bench/``), the figure benchmarks (``benchmarks/``), the examples, the
developer tools, and the two command lines (``python -m
repro.experiments`` and ``python -m repro.analysis``). Imports are
followed statically over the AST — every ``import``/``from`` statement,
function-local ones included, and the ``__init__`` of every package on
the way — so a module that nothing but its own tests imports shows up
here as orphaned code.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
ENTRY_DIRS = ("bench", "benchmarks", "examples", "tools")
ENTRY_MODULES = ("repro.experiments.__main__", "repro.analysis.__main__")

# Modules allowed to be unreachable, each with the reason in a comment.
EXEMPT: set[str] = set()


def _module_name(path: Path, base: Path) -> str:
    parts = list(path.relative_to(base).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _index() -> dict[str, Path]:
    """Module name -> file, for ``src/repro`` and the entry directories."""
    modules = {
        _module_name(path, SRC): path for path in (SRC / "repro").rglob("*.py")
    }
    for directory in ENTRY_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            modules[_module_name(path, ROOT)] = path
    return modules


def _imports(name: str, path: Path, modules: dict[str, Path]) -> set[str]:
    """Modules (and their parent packages) one file imports."""
    is_package = path.name == "__init__.py"
    package = name if is_package else name.rpartition(".")[0]
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            found.add(base)
            # ``from pkg import mod`` imports the submodule ``pkg.mod``.
            found.update(f"{base}.{alias.name}" for alias in node.names)
    reached = set()
    for module in found:
        parts = module.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            if prefix in modules:
                reached.add(prefix)
    return reached


def _reachable(modules: dict[str, Path]) -> set[str]:
    roots = [
        name for name in modules if name.split(".")[0] in ENTRY_DIRS
    ] + list(ENTRY_MODULES)
    seen = set()
    stack = list(roots)
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        stack.extend(_imports(name, modules[name], modules) - seen)
    return seen


def test_every_repro_module_is_reachable():
    modules = _index()
    assert set(ENTRY_MODULES) <= set(modules)
    reached = _reachable(modules)
    orphans = sorted(
        name for name in modules
        if name.split(".")[0] == "repro" and name not in reached | EXEMPT
    )
    assert orphans == [], f"modules no entry point imports: {orphans}"
    # An exemption that became reachable no longer needs to be one.
    assert EXEMPT <= set(modules) and not EXEMPT & reached
