"""Exception taxonomy for the engine.

Domain errors are structured: they carry enough data to be rendered by the
CLI as machine-readable diagnostics.  Usage errors are left to argparse.
"""


class ToricError(Exception):
    """Base class for all domain errors raised by this package."""


# ---------------------------------------------------------------- polytopes

class PolytopeError(ToricError):
    pass


class Unbounded(PolytopeError):
    pass


class NotFullDimensional(PolytopeError):
    pass


class NotSimple(PolytopeError):
    pass


class NotSmooth(PolytopeError):
    pass


class NonPrimitiveNormal(PolytopeError):
    pass


class RedundantFacet(PolytopeError):
    # a supplied half-space that supports no vertex cannot be a facet
    pass


class NonIntegralCoefficient(ToricError):
    pass


class DimensionMismatch(ToricError):
    # a circle direction of other than n entries, or a monomial of other
    # than one exponent per facet
    pass


class InexactNumber(ToricError):
    # a float, or any other value, where an exact int or Fraction belongs
    pass


class NonPositiveEnergy(ToricError):
    pass


# ----------------------------------------------------------- Novikov scalars

class CutoffMismatch(ToricError):
    pass


class ZeroElement(ToricError):
    pass


class NotAUnit(ToricError):
    pass


# ----------------------------------------------------------- classical ring

class WrongDegree(ToricError):
    pass


class NonGenericVector(ToricError):
    pass


class DegenerateRing(ToricError):
    # a quotient that is not the cohomology of a compact toric manifold
    pass


# ----------------------------------------------------------- circle actions

class ZeroVector(ToricError):
    pass


class InconsistentWeights(ToricError):
    pass


class MomentNotConstant(ToricError):
    pass


class StratumNotClosed(ToricError):
    pass


class NotMeanNormalized(ToricError):
    pass


# ------------------------------------------------------------- quantum ring

class BadCorrectionValuation(ToricError):
    pass


class BadCorrectionDegree(ToricError):
    pass


class MissingYEntry(ToricError):
    pass


class MomentDataMismatch(ToricError):
    pass


# ------------------------------------------------------------------- seidel

class NoEligibleVertex(ToricError):
    pass


class DictionaryIncomplete(ToricError):
    pass


class PointLiftUnnormalized(ToricError):
    pass


class NotAnEdge(ToricError):
    pass


class DegenerateEdge(ToricError):
    pass


class LeadingFaceMismatch(ToricError):
    pass


class ElementMismatch(ToricError):
    pass


# ---------------------------------------------------------------------- cli

class ExprSyntaxError(ToricError):
    pass


class FileFormatError(ToricError):
    pass


class TooManyDigits(ToricError):
    # an answer with a number longer than Python turns into text
    pass
