"""The public surface: what each submodule exports, what the package
re-exports, and which way the kernel, engine and limit-law layers' imports point."""

import ast
import importlib
import pkgutil
from pathlib import Path

import limitlab

PACKAGE = Path(limitlab.__file__).parent
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules([str(PACKAGE)]))


def _imports(path: Path):
    """(module, names) of every import statement in a file, nested ones included."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            yield node.module or "", [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, []


def test_every_exported_name_resolves():
    for name in SUBMODULES:
        module = importlib.import_module(f"limitlab.{name}")
        for export in getattr(module, "__all__", []):
            assert hasattr(module, export), f"limitlab.{name}.__all__ names {export!r}, which is not there"


def test_the_package_reexports_only_exported_names():
    for module_name, names in _imports(PACKAGE / "__init__.py"):
        if not module_name:  # "from . import x" would re-export a module, not a name
            assert not names, names
            continue
        exported = importlib.import_module(f"limitlab.{module_name}").__all__
        assert set(names) <= set(exported), f"{set(names) - set(exported)} not in {module_name}.__all__"


def test_kernels_import_nothing_from_multisum():
    # a kernel is data: the engines read it, and the kernel layer does not reach back into them
    for module_name, names in _imports(PACKAGE / "kernels.py"):
        assert "multisum" not in module_name.split(".") and "multisum" not in names


def test_stats_imports_nothing_from_limitlab():
    # the claims of experiments read their limit laws from stats, so an import from stats into
    # the package would close a cycle such as stats -> experiments -> stats
    for module_name, names in _imports(PACKAGE / "stats.py"):
        root = module_name.split(".")[0]
        assert root and root != "limitlab" and root not in SUBMODULES, (module_name, names)


def test_the_engines_import_nothing_from_stats():
    # the engines compute sums, moments and draws and state no limits: the claims of experiments do
    for engine in ("multisum", "cauchy", "moments", "simulate"):
        for module_name, names in _imports(PACKAGE / f"{engine}.py"):
            assert "stats" not in module_name.split(".") and "stats" not in names, (engine, module_name, names)


def test_the_submodules_export_38_names():
    # a change that adds or deletes a public name moves this number in its own diff
    counts = {name: len(getattr(importlib.import_module(f"limitlab.{name}"), "__all__", [])) for name in SUBMODULES}
    assert sum(counts.values()) == 38, counts
