"""Structural guards: the oracle's import boundary, the one module that
names poly_gcd, and the names the benchmark's tracer wraps."""

import ast
import os
import subprocess
import sys

import grothpoly

PACKAGE = os.path.dirname(os.path.abspath(grothpoly.__file__))
ROOT = os.path.dirname(os.path.dirname(PACKAGE))


def parse(module: str) -> ast.Module:
    with open(os.path.join(PACKAGE, module + ".py")) as f:
        return ast.parse(f.read())


def package_imports(module: str) -> set:
    """Modules of the package that module imports directly."""
    out = set()
    for node in ast.walk(parse(module)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.add(node.module.split(".")[0])
            elif node.level == 1:
                out.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("grothpoly."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(
                alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("grothpoly.")
            )
    return out


def test_oracles_never_reach_the_lattice_code():
    seen, todo = set(), ["oracles"]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(package_imports(module))
    # polynomial arithmetic and partition statistics only: no lattice
    # code, and none of factored's atoms, registry or lifts
    assert seen == {"oracles", "algebra", "partitions"}, sorted(seen)


def test_only_algebra_names_poly_gcd():
    # gcds are taken inside RationalFunction alone; __init__ re-exports it
    modules = [f[:-3] for f in os.listdir(PACKAGE) if f.endswith(".py")]
    for module in set(modules) - {"algebra", "__init__"}:
        names = set()
        for node in ast.walk(parse(module)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        assert "poly_gcd" not in names, module


def test_benchmark_tracer_installs():
    paths = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    out = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
