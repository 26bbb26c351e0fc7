"""Exception hierarchy for the toolkit.

Every failure mode raised by the library derives from :class:`LolkitError`
so callers (in particular the benchmark sweep, which records per-cell
failures instead of aborting) can catch one base class.
"""


class LolkitError(Exception):
    pass


# --- data / model construction -------------------------------------------

class NonFiniteData(LolkitError):
    pass


class EmptyClass(LolkitError):
    pass


# --- linear algebra kernels ----------------------------------------------

class RankRequestTooLarge(LolkitError):
    pass


class CcaRankExceeded(LolkitError):
    pass


class DegeneratePooledCovariance(LolkitError):
    pass


# --- embeddings -----------------------------------------------------------

class DegenerateMeans(LolkitError):
    pass


class TooFewDims(LolkitError):
    pass


class ShapeMismatch(LolkitError):
    pass


# --- classifiers / theory -------------------------------------------------

class UnderdeterminedClassifier(LolkitError):
    pass


class SingularProjectedCov(LolkitError):
    pass


class NotPositiveDefinite(LolkitError):
    pass


class DegenerateGamma(LolkitError):
    pass


class PooledDenominatorDegenerate(LolkitError):
    pass


# --- simulations ----------------------------------------------------------

class PTooSmall(LolkitError):
    pass


class BadRho(LolkitError):
    pass


# --- benchmark harness ----------------------------------------------------

class ParseFailure(LolkitError):
    pass


class WriteFailure(LolkitError):
    pass


class DegenerateLabels(LolkitError):
    pass


class TooManyFolds(LolkitError):
    pass


class EmptyCurve(LolkitError):
    pass


class NoBaseline(LolkitError):
    pass


# --- extensions -----------------------------------------------------------

class UnderdeterminedTest(LolkitError):
    pass


class TooManyBins(LolkitError):
    pass


class DegenerateTarget(LolkitError):
    pass
