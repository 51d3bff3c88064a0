"""qthermo: thermodynamics of small open quantum systems.

Thermodynamically consistent Markovian (GKLS) master equations,
heat/work/entropy bookkeeping for concrete quantum thermal machines,
full counting statistics via counting-field Liouvillians, and
fluctuation-theorem / TUR verification by Monte Carlo trajectory
sampling.

``qcore``, ``thermo`` and ``lindblad``, which every machine uses, are
imported with the package; ``fcs``, ``models`` and ``trajectories`` are
executed on first use, so a program loads only the code it runs.
"""

__version__ = "0.1.0"

import importlib.util
import sys

from . import lindblad, qcore, thermo
from .lindblad import GKLSGenerator, JumpChannel, ThermoLedger
from .thermo import ReservoirSpec

__all__ = [
    "__version__",
    "qcore", "thermo", "lindblad", "models", "fcs", "trajectories",
    "GKLSGenerator", "JumpChannel", "ThermoLedger", "ReservoirSpec",
]


def _lazy_submodule(package, name):
    """The module ``package.name``, entered in ``sys.modules`` now and
    executed on its first attribute access (``importlib.util.LazyLoader``).

    The module is thus in ``sys.modules`` from its package's import on,
    for code that looks functions up by module name, such as
    ``perfbench/tracing.py``. Only a module without submodules may be
    lazy: importing a submodule of a lazy package would execute that
    submodule twice.
    """
    if f"{package}.{name}" in sys.modules:  # importlib.reload(package)
        return sys.modules[f"{package}.{name}"]
    spec = importlib.util.find_spec(f"{package}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


fcs = _lazy_submodule(__package__, "fcs")
trajectories = _lazy_submodule(__package__, "trajectories")


def __getattr__(name):
    """The subpackage ``models``, imported on first access (PEP 562)."""
    if name == "models":
        return importlib.import_module(".models", __package__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
