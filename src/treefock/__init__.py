"""Exact models of a tree-indexed Gaussian system and its torus symmetry.

The package realizes one Hilbert space three ways: as a combinatorial Fock
space over marked binary words (``fock``), as symmetrized step functions on
a product of trees (``steps``), and as polynomials in tree-indexed complex
Gaussians (``gauss``).  ``spectral`` handles the associated grid measures
and their tensor calculus, ``montecarlo`` cross-checks moments by sampling,
and ``suites`` bundles the verification runs behind the ``treefock`` CLI.
"""

from . import combination, fock, gauss, montecarlo, scalars, spectral, steps, suites, words
from .errors import CapExceeded
from .scalars import EXACT, FLOAT, ExactComplex, QSqrt2
from .spectral import DepthMeasure, IndexFunction, index_pq
from .steps import GridCell, StepSum
from .suites import RunConfig, SuiteReport
from .words import AdmissibleWord, Symbol, TorusStep, enumerate_admissible

__version__ = "0.1.0"

__all__ = [
    "AdmissibleWord", "CapExceeded", "DepthMeasure", "EXACT", "ExactComplex",
    "FLOAT", "GridCell", "IndexFunction", "QSqrt2", "RunConfig",
    "StepSum", "SuiteReport", "Symbol", "TorusStep", "__version__",
    "combination", "enumerate_admissible", "fock", "gauss", "index_pq",
    "montecarlo", "scalars", "spectral", "steps", "suites", "words",
]
