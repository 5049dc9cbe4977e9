"""Combinatorial data of a p-group cover pi: X -> Y = X/G.

A :class:`CoverData` holds the characteristic p, log_p|G|, the quotient
genus g_Y, and one :class:`BranchOrbit` per ramified orbit (each a
ramification filtration; the orbit has |G| / e_0 points).  Everything else
is derived:

* the genus of X, via Riemann-Hurwitz with Hilbert's different
  ``2g_X - 2 = |G| (2g_Y - 2) + sum_j (orbit size)_j d_j``;
* the ramification divisor ``R = sum_j d_j [orbit j]`` and its reduced
  part;
* canonical divisors ``K_X = pi^* K_Y + R`` for a chosen K_Y on Y;
* in characteristic p > 3, an *effective* G-invariant canonical divisor
  supported as the theory prescribes (genus-0 quotients get explicit
  coefficients; higher genus quotients need a supplied differential
  divisor on Y avoiding the branch locus).

A cover may be flagged ``cyclic``.  With ``cyclic=None`` (the default) the
flag is inferred: the cover counts as cyclic exactly when every orbit
filtration drops by one factor of p per jump, which is the pattern a
cyclic p-group forces.  Passing ``cyclic=True`` validates that pattern at
construction time; ``cyclic=False`` records outside knowledge that the
group is not cyclic even if the pattern happens to fit.
"""

from dataclasses import dataclass, field

from .divisors import OrbitDivisor, QuotientDivisor, pullback
from .errors import (
    BadCanonicalDegreeError,
    ConsistencyError,
    MissingPhiError,
    NonIntegralGenusError,
    NotEffectiveError,
    SmallCharacteristicError,
    UnramifiedError,
    ValidationError,
)
from .primes import _is_prime
from .ramification import RamificationFiltration

__all__ = ["BranchOrbit", "CoverData"]


@dataclass(frozen=True)
class BranchOrbit:
    """One ramified orbit, described by its filtration."""

    filtration: RamificationFiltration

    @property
    def e0(self):
        return self.filtration.e0

    @property
    def different(self):
        return self.filtration.hilbert_different()

    def is_weakly_ramified(self):
        return self.filtration.is_weakly_ramified()


@dataclass(frozen=True)
class CoverData:
    """Ramification data of a finite p-group cover of curves."""

    p: int
    n: int
    g_y: int
    orbits: tuple
    cyclic: bool = field(default=None)

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValidationError("characteristic %r is not prime" % (self.p,))
        if self.n < 1:
            raise ValidationError("log_p|G| must be >= 1")
        if self.g_y < 0:
            raise ValidationError("quotient genus must be >= 0")
        orbits = tuple(
            o if isinstance(o, BranchOrbit) else BranchOrbit(o) for o in self.orbits
        )
        object.__setattr__(self, "orbits", orbits)
        order = self.p**self.n
        for j, orbit in enumerate(orbits):
            if orbit.filtration.p != self.p:
                raise ValidationError(
                    "orbit %d has characteristic %d, cover has %d"
                    % (j, orbit.filtration.p, self.p)
                )
            if orbit.e0 == 1:
                raise ValidationError("orbit %d is unramified; drop it" % j)
            if order % orbit.e0:
                raise ValidationError(
                    "orbit %d has e_0 = %d not dividing |G| = %d"
                    % (j, orbit.e0, order)
                )
        pattern = all(o.filtration.is_cyclic_pattern() for o in orbits)
        if self.cyclic is None:
            object.__setattr__(self, "cyclic", pattern)
        elif self.cyclic and not pattern:
            raise ValidationError(
                "cover flagged cyclic but an orbit filtration does not drop "
                "by single factors of p"
            )
        # Riemann-Hurwitz right-hand side must be even.
        rhs = self._two_g_minus_2()
        if rhs % 2:
            raise NonIntegralGenusError(
                "2g_X - 2 = %d is odd; the ramification data is inconsistent" % rhs
            )

    # -- basic derived quantities -------------------------------------------

    @property
    def order(self):
        return self.p**self.n

    @property
    def r(self):
        return len(self.orbits)

    def e0(self, key):
        """Inertia order at a divisor key (1 on unramified labels)."""
        if isinstance(key, int):
            return self.orbits[key].e0
        return 1

    def orbit_size(self, key):
        return self.order // self.e0(key)

    def _two_g_minus_2(self):
        total = self.order * (2 * self.g_y - 2)
        for j, orbit in enumerate(self.orbits):
            total += self.orbit_size(j) * orbit.different
        return total

    def genus_x(self):
        """Genus of X from Riemann-Hurwitz."""
        return (self._two_g_minus_2() + 2) // 2

    # -- divisors ------------------------------------------------------------

    def ramification_divisor(self):
        """R = sum_j d_j [orbit j]."""
        return OrbitDivisor(self, {j: o.different for j, o in enumerate(self.orbits)})

    def reduced_ramification(self):
        """R_red: each ramified orbit with coefficient 1."""
        return OrbitDivisor(self, {j: 1 for j in range(self.r)})

    def canonical_divisor_x(self, k_y):
        """K_X = pi^* K_Y + R for a canonical divisor K_Y on Y.

        ``k_y`` is a QuotientDivisor of degree 2g_Y - 2 (checked); the
        result has degree 2g_X - 2 (also checked).
        """
        if not isinstance(k_y, QuotientDivisor):
            raise TypeError("k_y must be a QuotientDivisor")
        if k_y.cover != self:
            raise ValidationError("k_y lives on a different cover")
        if k_y.degree_y() != 2 * self.g_y - 2:
            raise BadCanonicalDegreeError(
                "deg(K_Y) = %d but 2g_Y - 2 = %d"
                % (k_y.degree_y(), 2 * self.g_y - 2)
            )
        k_x = pullback(k_y) + self.ramification_divisor()
        if k_x.degree_x() != self._two_g_minus_2():  # pragma: no cover
            raise ConsistencyError("canonical degree bookkeeping failed")
        return k_x

    def effective_canonical(self, phi=None, orbit_pair=(0, 1)):
        """An effective G-invariant canonical divisor D on X (p > 3 only).

        * g_Y = 0, r = 1: D = (-2 + sum_{i>=2}(e_i - 1)) [orbit], which is
          effective precisely because the point is *not* weakly ramified
          and p > 3.
        * g_Y = 0, r >= 2: coefficients -1 + sum_{i>=1}(e_i - 1) on the two
          orbits named by ``orbit_pair`` and d_j elsewhere.
        * g_Y >= 1: requires ``phi``, the divisor on Y of a differential
          that does not vanish on the branch locus; then D = pi^* phi + R.
        """
        if self.p <= 3:
            raise SmallCharacteristicError(
                "effective canonical construction needs p > 3, got p = %d" % self.p
            )
        if self.r == 0:
            raise UnramifiedError("the cover is unramified; nothing to build")
        if self.g_y == 0:
            if self.r == 1:
                # -2 + sum_{i >= 2} (e_i - 1); negative exactly when the
                # orbit is weakly ramified, which the final effectiveness
                # check below turns into NotEffectiveError.
                orbit = self.orbits[0]
                coeff = -2 + sum(
                    orbit.filtration.order_at(i) - 1
                    for i in range(2, orbit.filtration.jumps[-1] + 1)
                )
                coeffs = {0: coeff}
            else:
                a, b = orbit_pair
                if a == b or not (0 <= a < self.r and 0 <= b < self.r):
                    raise ValidationError(
                        "orbit_pair must name two distinct ramified orbits"
                    )
                coeffs = {}
                for j, orbit in enumerate(self.orbits):
                    if j in (a, b):
                        coeffs[j] = orbit.different - orbit.e0
                    else:
                        coeffs[j] = orbit.different
            divisor = OrbitDivisor(self, coeffs)
        else:
            if phi is None:
                raise MissingPhiError(
                    "g_Y = %d >= 1: supply the divisor of a differential on Y "
                    "avoiding the branch locus" % self.g_y
                )
            if not isinstance(phi, QuotientDivisor):
                raise TypeError("phi must be a QuotientDivisor")
            if phi.cover != self:
                raise ValidationError("phi lives on a different cover")
            if phi.degree_y() != 2 * self.g_y - 2:
                raise BadCanonicalDegreeError(
                    "deg(div phi) = %d but 2g_Y - 2 = %d"
                    % (phi.degree_y(), 2 * self.g_y - 2)
                )
            for key in phi.coeffs:
                if isinstance(key, int):
                    raise ValidationError(
                        "phi must avoid the branch locus; key %r is a branch "
                        "point" % key
                    )
                if phi.coeff(key) < 0:
                    raise NotEffectiveError(
                        "phi must be the divisor of a holomorphic differential"
                    )
            divisor = pullback(phi) + self.ramification_divisor()
        for key, n in divisor.coeffs.items():
            if n < 0:
                raise NotEffectiveError(
                    "coefficient %d at %r is negative" % (n, key)
                )
        if divisor.degree_x() != self._two_g_minus_2():
            raise NotEffectiveError(
                "degree %d does not match 2g_X - 2 = %d"
                % (divisor.degree_x(), self._two_g_minus_2())
            )
        return divisor

    # -- JSON ----------------------------------------------------------------

    def to_json(self):
        out = {
            "p": self.p,
            "log_order": self.n,
            "genus_quotient": self.g_y,
            "orbits": [{"filtration": o.filtration.to_json()} for o in self.orbits],
        }
        out["cyclic"] = self.cyclic
        return out

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict):
            raise ValidationError("cover JSON must be an object")
        try:
            p = int(data["p"])
            n = int(data["log_order"])
            g_y = int(data["genus_quotient"])
            orbit_specs = data["orbits"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError("bad cover JSON: %s" % exc) from None
        orbits = []
        for spec in orbit_specs:
            if not isinstance(spec, dict) or "filtration" not in spec:
                raise ValidationError("each orbit needs a 'filtration' object")
            orbits.append(
                BranchOrbit(RamificationFiltration.from_json(spec["filtration"], p))
            )
        cyclic = data.get("cyclic", None)
        if cyclic is not None and not isinstance(cyclic, bool):
            raise ValidationError("'cyclic' must be a boolean when present")
        return cls(p, n, g_y, tuple(orbits), cyclic)
