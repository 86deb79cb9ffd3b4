"""Exception types and the check record shared across the package."""

from dataclasses import dataclass


class SplitinvError(ValueError):
    """Base class for rejection of invalid inputs."""


class CoefficientError(SplitinvError):
    """Invalid coefficient arithmetic (zero inverse, char-2 field, ...)."""


class PlaceError(SplitinvError):
    """Invalid local place or quadratic extension data."""


class RootDatumError(SplitinvError):
    """Invalid root datum, automorphism, or Weyl input."""


class ADataError(SplitinvError):
    """a-data violating one of its defining conditions."""


class DescentError(SplitinvError):
    """Galois descent datum that is not a homomorphism or incompatible."""


class RealizationError(SplitinvError):
    """Matrix realization inputs that break the required conjugation setup."""


class FactorError(SplitinvError):
    """Invalid endoscopic sign datum or factor-expression input."""


@dataclass
class CheckRecord:
    """One named check of a report: what the command-line reports list under
    "checks", for a verification suite and for restrict and invariant alike."""
    name: str
    passed: bool
    expected: object = None
    actual: object = None
    counterexample: object = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "pass": self.passed}
        if self.expected is not None:
            out["expected"] = repr(self.expected)
        if self.actual is not None:
            out["actual"] = repr(self.actual)
        if not self.passed and self.counterexample is not None:
            out["counterexample"] = repr(self.counterexample)
        return out
