"""The names the package resolves on first use.

``qthermo.fcs`` and ``qthermo.trajectories``, and the three machine
modules of ``qthermo.models``, are in ``sys.modules`` from the import of
their package on; ``qthermo.models`` and each name of
``qthermo.models.__all__`` are resolved by a module ``__getattr__`` (PEP
562). Which modules a fresh process runs is tested in ``test_cli.py``.
Only these two packages decide what runs on first use: the CLI imports
their stubs once, at module level.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qthermo
import qthermo.cli
import qthermo.models


@pytest.mark.parametrize("module", [qthermo, qthermo.models])
def test_every_name_of_all_resolves(module):
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_lazy_modules_are_the_imported_ones():
    for name in ("fcs", "models", "trajectories"):
        assert getattr(qthermo, name) is sys.modules[f"qthermo.{name}"]
    for name in ("single_dot", "double_dot", "fridge"):
        assert (getattr(qthermo.models, name)
                is sys.modules[f"qthermo.models.{name}"])


def test_package_hook_resolves_models_and_names_unknowns():
    assert qthermo.__getattr__("models") is qthermo.models
    with pytest.raises(AttributeError,
                       match="module 'qthermo' has no attribute 'bogus'"):
        qthermo.__getattr__("bogus")
    with pytest.raises(AttributeError, match="'bogus'"):
        qthermo.bogus


def test_models_hook_resolves_each_machine_name_from_its_module():
    own = {"ValidityWarning", "stack_sweep"}  # defined in models.common
    for name in set(qthermo.models.__all__) - own:
        value = qthermo.models.__getattr__(name)
        home = sys.modules[value.__module__]
        assert home.__name__.rpartition(".")[0] == "qthermo.models", name
        assert getattr(home, name) is value
    for name in [*own, "bogus"]:
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            qthermo.models.__getattr__(name)


def test_cli_imports_nothing_inside_a_function_but_argparse():
    tree = ast.parse(Path(qthermo.cli.__file__).read_text(encoding="utf-8"))
    local = {(fn.name, ast.unparse(node)) for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert local == {("main", "import argparse")}


_CLI_STUBS = """
import json, sys
from types import ModuleType
import qthermo.cli as cli
# any attribute of a stub would run its module
homes = {"fcs": "qthermo.fcs", "trajectories": "qthermo.trajectories",
         "fridge": "qthermo.models.fridge"}
print(json.dumps({name: [getattr(cli, name) is sys.modules[home],
                         type(sys.modules[home]) is ModuleType]
                  for name, home in homes.items()}))
"""


def test_cli_holds_the_first_use_stubs():
    """In a fresh process, the CLI's ``fcs``, ``trajectories`` and
    ``fridge`` are the ``sys.modules`` entries, and none of them has run."""
    src = str(Path(qthermo.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _CLI_STUBS], check=True,
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60).stdout
    assert json.loads(out) == {name: [True, False] for name in
                               ("fcs", "trajectories", "fridge")}
