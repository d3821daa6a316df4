"""shapelab: a laboratory for lattice first passage percolation, additive
cocycles, and asymptotic shape estimation.

``import shapelab`` registers each library module in ``sys.modules`` (and
as an attribute of the package) without running it: a module runs on the
first access to one of its attributes (``importlib.util.LazyLoader``).  So
a command pays only for the modules it uses, and a tool that looks a
module up by name, such as a tracer or ``mock.patch``, still finds it.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# the library modules; shapelab.cli is imported as usual
_LAZY = ("_pathfamily", "_runs", "cocycle", "environment", "lattice",
         "lorentz", "percolation", "rkhs", "schrodinger", "shape")


class ConvergenceError(RuntimeError):
    """Raised when a distance refinement hits its radius cap while the
    caller required a converged value."""


def _register(name: str) -> None:
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in _LAZY:
    _register(_name)
