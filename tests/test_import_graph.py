"""Start-up imports: a process imports only the modules it runs.

``import romanhs`` imports none of the package's modules; each public name
is imported from its module on first use. ``import romanhs.cli`` imports
core, errors and enumeration, which every subcommand or printer needs, and
leaves characterize, extend, optimize and reduce to the handlers that call
them. reduce and characterize sit on core and errors alone, and no
solver module imports characterize. optimize imports reduce only
inside exact_min_rhf, and core imports json only inside its JSON codec
functions, so a process that prints no JSON does not load it. No module
of the package imports dataclasses (nor, through it, inspect). The library
starts no process or thread: no module imports multiprocessing, concurrent,
subprocess or threading, at top level or in a function body. Each check
runs in a fresh interpreter without bytecode caching, as a command line
process runs.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import romanhs

SRC = str(Path(romanhs.__file__).resolve().parents[1])

# what every subcommand needs, and what only some handlers run
BASE = {"cli", "core", "enumeration", "errors"}
HANDLER_MODULES = {"characterize", "extend", "optimize", "reduce"}


def _loaded_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running statement."""
    # printed as a repr, so that reporting them loads no json
    code = f"import sys\n{statement}\nprint(sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def _package_modules(loaded: set[str]) -> set[str]:
    return {m.split(".", 1)[1] for m in loaded if m.startswith("romanhs.")}


def _run_main(tmp_path, argv: list[str]) -> set[str]:
    """The modules loaded by rhs-tool argv, "@" naming a small instance
    and "@out" a file to write."""
    path = tmp_path / "t.hg"
    path.write_text(
        "universe x1 x2 x3 x4\nedge e1 x1 x2\nedge e2 x3 x4\n"
        "tau x1 e1\ntau x2 e1\ntau x3 e2\ntau x4 e2\n"
    )
    files = {"@": str(path), "@out": str(tmp_path / "out.hg")}
    argv = [files.get(a, a) for a in argv]
    return _loaded_after(f"import romanhs.cli\nassert romanhs.cli.main({argv!r}) == 0")


def test_package_import_loads_no_module():
    assert _package_modules(_loaded_after("import romanhs")) == set()


def test_cli_import_leaves_the_handler_modules():
    loaded = _loaded_after("import romanhs.cli")
    assert _package_modules(loaded) == BASE
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["gen", "tight", "2"], BASE),
        (["enum-rhs", "@"], BASE),
        (["oracle", "rhs", "@"], BASE),
        (["check", "witness", "@", "--pair", "R1=e1,e2;R2="], BASE | {"characterize"}),
        (["ext-rhs", "@"], BASE | {"extend"}),
        (["min-rhs", "@"], BASE | {"optimize"}),
        # exact_min_rhf imports reduce, which imports only core and errors
        (["min-rhf", "@"], BASE | {"optimize", "reduce"}),
        (["reduce", "rhf-to-rhs", "@", "@out"], BASE | {"reduce"}),
        # the brute rhf oracle decides minimality through core's mask core
        (["oracle", "rhf", "@"], BASE),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_a_subcommand_imports_what_it_runs(tmp_path, argv, modules):
    loaded = _run_main(tmp_path, argv)
    assert _package_modules(loaded) == modules
    assert "dataclasses" not in loaded


def test_reduce_imports_only_core_and_errors():
    loaded = _loaded_after("import romanhs.reduce")
    assert _package_modules(loaded) == {"core", "errors", "reduce"}


def test_characterize_is_a_leaf():
    loaded = _loaded_after("import romanhs.characterize")
    assert _package_modules(loaded) == {"core", "errors", "characterize"}
    for solver in ("extend", "enumeration"):
        loaded = _loaded_after(f"import romanhs.{solver}")
        assert "characterize" not in _package_modules(loaded)


def test_json_loads_only_for_json_output(tmp_path):
    assert "json" not in _loaded_after("import romanhs.cli")
    assert "json" not in _run_main(tmp_path, ["enum-rhs", "@"])
    assert "json" in _run_main(tmp_path, ["enum-rhs", "@", "--json"])


def test_a_public_name_imports_its_module():
    loaded = _loaded_after("import romanhs\nromanhs.Hypergraph")
    assert _package_modules(loaded) == {"core", "errors"}
    # a module of the package reads as an attribute, as when the package
    # imported them all
    loaded = _loaded_after("import romanhs\nromanhs.optimize.exact_min_rhs")
    assert _package_modules(loaded) == {"core", "errors", "enumeration", "optimize"}


def test_every_public_name_resolves():
    loaded = _loaded_after(
        "import romanhs\n"
        "missing = [n for n in romanhs.__all__ if getattr(romanhs, n, None) is None]\n"
        "assert not missing, missing\n"
        "assert set(romanhs.__all__) <= set(dir(romanhs))\n"
        "ns = {}\n"
        "exec('from romanhs import *', ns)\n"
        "assert set(romanhs.__all__) <= set(ns), set(romanhs.__all__) - set(ns)\n"
    )
    assert HANDLER_MODULES <= _package_modules(loaded)
    assert "dataclasses" not in loaded


def test_the_library_starts_no_process():
    banned = {"multiprocessing", "concurrent", "subprocess", "threading"}
    found = []
    for path in sorted(Path(romanhs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] in banned]
    assert found == []


def test_public_names_are_the_defining_objects():
    for name in romanhs.__all__:
        obj = getattr(romanhs, name)
        home = getattr(obj, "__module__", None)
        if home is not None and home.startswith("romanhs."):
            assert getattr(sys.modules[home], name) is obj
    with pytest.raises(AttributeError):
        romanhs.no_such_name
    assert romanhs.core is sys.modules["romanhs.core"]
