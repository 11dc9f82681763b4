"""Exact pre-Lie Magnus/Fer expansions in dendriform and Rota-Baxter algebras.

The package has an exact half and a floating-point half:

* exact: truncated rational series over pluggable coefficient spaces
  (``series``), dendriform/tridendriform/pre-Lie contracts with an adjoined
  unit (``dendriform``), the free models on one generator (``pbt``,
  ``rooted``, ``prelie_expr``), the Magnus and Fer recursions
  (``magnus_fer``), and weighted Rota-Baxter structure with its identity
  suite (``rota_baxter``, ``instances``);
* floating point: Magnus/Fer integrators for polynomial matrix ODEs whose
  step exponents come from the exact recursions, with convergence
  measurement (``ode``).

Only ``ode`` imports numpy, and only the ``solve`` subcommand imports ``ode``:
``import dendrimag`` and the exact subcommands ``verify``, ``expand`` and
``trees`` never load the float stack.

``suites`` bundles the named verification suites behind the ``dendrimag``
command-line tool (``cli``).
"""

from .dendriform import (
    Dendriform,
    Tridendriform,
    UndefinedUnitProduct,
    UnitalDendElem,
    solve_left,
    solve_right,
)
from .magnus_fer import fer, magnus, magnus_free_component, verify_fer, verify_magnus
from .report import VerificationReport
from .rota_baxter import RotaBaxter, bch_recursion
from .scalars import bernoulli, bernoulli_weight
from .series import TruncatedSeries, bch, series_exp, series_log

__version__ = "0.1.0"

__all__ = [
    "Dendriform",
    "Tridendriform",
    "UndefinedUnitProduct",
    "UnitalDendElem",
    "RotaBaxter",
    "TruncatedSeries",
    "VerificationReport",
    "bch",
    "bch_recursion",
    "bernoulli",
    "bernoulli_weight",
    "fer",
    "magnus",
    "magnus_free_component",
    "series_exp",
    "series_log",
    "solve_left",
    "solve_right",
    "verify_fer",
    "verify_magnus",
    "__version__",
]
