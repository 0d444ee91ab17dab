"""Nerves of finite crossed monoids.

Build a finite crossed monoid from explicit tables, materialize its nerve as
upper-triangular matrix cells, and interrogate the result: simplicial
identities, coskeletality of the boundary maps, Kan horn filling (brute
force or constructive), and homotopy groups in closed form cross-checked
against the simplicial definition.
"""

from .algebra import (
    Classification,
    CrossedMonoid,
    FiniteCategory,
    FiniteMonoid,
    ValidationReport,
    Violation,
    classify_structure,
    validate_crossed_monoid,
)
from .errors import (
    ArgumentError,
    CapacityError,
    CellError,
    CompatibilityError,
    DEFAULT_CAPACITY,
    NotComposableError,
    NotCrossedModuleError,
    NotKanError,
    StructureError,
    XNerveError,
)
from .fillers import HornFiller
from .groups import GroupPresentation, find_isomorphism
from .homotopy import PiComparison, VanishingReport, higher_vanishing, pi0, pi1, pi2, pi_compare
from .io import InputDocument, from_crossed_monoid, load_path, parse_input, serialize, to_crossed_monoid
from .nerve import Nerve, NerveCell
from .simplicial import (
    BoundaryTuple,
    CoskeletalRecord,
    HornTuple,
    KanRecord,
    KanReport,
    audit_simplicial,
    beta,
    check_coskeletal,
    check_kan,
    horns,
    is_compatible_horn,
    pi_bruteforce,
    simplicial_kernel,
)

__version__ = "0.1.0"
