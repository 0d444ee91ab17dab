"""Exception types and the shared enumeration budget."""

from __future__ import annotations

# Enumerations (cells, kernels, horns) abort once their predicted size
# exceeds this, instead of thrashing.  ``Nerve(xm, cap)`` sets another.
DEFAULT_CAPACITY = 5_000_000


class XNerveError(Exception):
    """Base class for all errors raised by this package.  The CLI reports
    one as the ``error`` block of ``report()``, kind first, and exits with
    ``exit_code``: 1 for input that cannot be used, 2 for a refusal or a bad
    argument, 3 for a budget exceeded."""

    kind, exit_code, fields = "error", 2, ("message",)

    def report(self) -> dict:
        return {"kind": self.kind, **{name: str(self) if name == "message" else getattr(self, name)
                                      for name in self.fields}}


class StructureError(XNerveError):
    """Malformed data: non-total tables, dangling ids, bad shapes.

    Distinct from an axiom violation, which is reported, not raised.
    """

    kind, exit_code = "structural", 1


class CellError(StructureError):
    """A nerve cell fails its typing invariants; names the offending entry."""


class NotComposableError(XNerveError):
    """Composition requested for a pair with mismatched endpoints."""


class CompatibilityError(XNerveError):
    """Faces handed to a reconstruction do not fit together."""


class ArgumentError(XNerveError):
    """A command argument is malformed or out of range for its input."""

    kind = "argument"


class CapacityError(XNerveError):
    """Predicted enumeration size exceeds the configured budget."""

    kind, exit_code, fields = "capacity", 3, ("message", "predicted", "cap")

    def __init__(self, message: str, predicted: int | None = None, cap: int | None = None):
        super().__init__(message)
        self.predicted = predicted
        self.cap = cap


class NotCrossedModuleError(XNerveError):
    """An operation that needs a crossed module was given something weaker.

    ``hypothesis`` names the first failing requirement
    (``category_is_groupoid``, ``fibers_are_groups``, ``fibers_cancellative``
    or ``action_injective``); ``witness`` pins it to concrete ids.
    """

    kind, fields = "refusal", ("hypothesis", "witness")

    def __init__(self, hypothesis: str, witness: tuple = ()):
        self.hypothesis = hypothesis
        self.witness = witness
        super().__init__(f"failed hypothesis {hypothesis!r} (witness {witness!r})")


class NotKanError(XNerveError):
    """A homotopy-group computation met an unfillable horn."""

    kind, fields = "not-kan", ("dim", "omitted")

    def __init__(self, dim: int, omitted: int, witness=None):
        self.dim = dim
        self.omitted = omitted
        self.witness = witness
        super().__init__(f"unfillable horn in dimension {dim} at position {omitted}")
