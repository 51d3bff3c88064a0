"""The names the package resolves on first use.

``qthermo.fcs`` and ``qthermo.trajectories``, and the three machine
modules of ``qthermo.models``, are in ``sys.modules`` from the import of
their package on; ``qthermo.models`` and each name of
``qthermo.models.__all__`` are resolved by a module ``__getattr__`` (PEP
562). Which modules a fresh process runs is tested in ``test_cli.py``.
"""

import sys

import pytest

import qthermo
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
