"""Exception taxonomy.

Three families matter to callers (and to the CLI exit-code contract):

* :class:`ValidationError` -- the input data itself is malformed or violates a
  construction invariant (bad JSON, non-prime characteristic, a filtration
  whose orders are not p-powers, ...).  CLI exit code 1.
* :class:`PreconditionError` -- the data is well-formed but a mathematical
  hypothesis of the requested operation fails (cover not cyclic, divisor
  degree too small, a point not weakly ramified, ...).  CLI exit code 2.
  Each subclass carries a short ``hypothesis`` string naming the violated
  assumption; it is surfaced in error payloads.
* :class:`InternalError` -- two computations inside the package that must
  agree do not (a closed form against its complex, a monomial count against
  Riemann-Roch, a basis that the group action leaves).  This is a bug in the
  package, not in the caller's data.  CLI exit code 3, which the CLI also
  uses for any exception outside this taxonomy.

Engine-level failures (precision exhausted, an iteration that stops making
progress) are grouped under :class:`PreconditionError`: they signal that
the caller asked for more than the supplied data supports.
"""


class EquideformError(Exception):
    """Base class for every error raised by this package."""

    hypothesis = ""

    def payload(self):
        """Machine-readable form used by the CLI."""
        out = {"error": type(self).__name__, "message": str(self)}
        if self.hypothesis:
            out["hypothesis"] = self.hypothesis
        return out


class ValidationError(EquideformError):
    """Malformed input data or violated construction invariant."""


class PreconditionError(EquideformError):
    """A mathematical hypothesis of the requested operation fails."""


class InternalError(EquideformError):
    """Two computations inside the package disagree: a bug, not bad input."""


# ---------------------------------------------------------------------------
# validation errors


class NotPrimeError(ValidationError):
    hypothesis = "characteristic p is prime"


class NonIntegralGenusError(ValidationError):
    hypothesis = "2g_X - 2 from the genus bookkeeping is even"


class FiltrationError(ValidationError):
    hypothesis = "ramification orders form a valid filtration"


# ---------------------------------------------------------------------------
# precondition errors


class NotHasseArfError(PreconditionError):
    hypothesis = "jumps follow the cyclic p-group pattern"


class NotCyclicError(PreconditionError):
    hypothesis = "the acting group is cyclic"


class NotCyclicOrderPError(PreconditionError):
    hypothesis = "the acting group is cyclic of order exactly p"


class DegreeTooSmallError(PreconditionError):
    hypothesis = "deg(D) > 2g_X - 2"


class GenusTooSmallError(PreconditionError):
    hypothesis = "g_X >= 2"


class NotWeaklyRamifiedError(PreconditionError):
    hypothesis = "G_2(P) trivial at every ramified point"


class SmallCharacteristicError(PreconditionError):
    hypothesis = "p > 3"


class UnramifiedError(PreconditionError):
    hypothesis = "the cover is ramified (r >= 1)"


class MissingPhiError(PreconditionError):
    hypothesis = "a differential divisor on the quotient is supplied when g_Y >= 1"


class BadCanonicalDegreeError(PreconditionError):
    hypothesis = "deg(K_Y) = 2g_Y - 2"


class NotEffectiveError(PreconditionError):
    hypothesis = "the constructed divisor is effective"


class AlphaNotInjectiveError(PreconditionError):
    hypothesis = "alpha values are linearly independent over the prime field"


class NonNegativeValuationError(PreconditionError):
    hypothesis = "the defining function has a pole (valuation < 0)"


class PrecisionExhaustedError(PreconditionError):
    hypothesis = "requested coefficients lie within tracked precision"


class NoConvergenceError(PreconditionError):
    hypothesis = "the successive-approximation residual keeps shrinking"


class NotWeaklyRamifiedActionError(PreconditionError):
    hypothesis = "the local action fixes the parameter to first order"


class MissingRootError(PreconditionError):
    hypothesis = "X^p - X = c has a root in the chosen coefficient field"


class NoOddPoleNumberError(PreconditionError):
    hypothesis = "an odd pole number occurs below the bound"


class NotRamifiedHereError(PreconditionError):
    hypothesis = "the chosen point is ramified"


# ---------------------------------------------------------------------------
# internal errors


class DimensionMismatchError(InternalError):
    hypothesis = "monomial count matches the Riemann-Roch dimension"


class BasisNotStableError(InternalError):
    hypothesis = "the monomial basis is stable under the group action"


class ConsistencyError(InternalError):
    hypothesis = "internal cross-check"
