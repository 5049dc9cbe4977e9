"""Invariant divisors on the cover, their quotient images, and Tot.

All divisors here are G-invariant, so a divisor upstairs is stored by
orbit: an :class:`OrbitDivisor` maps each orbit to the common coefficient
of the points in it.  Keys are either an integer index into the cover's
ramified orbits or a string label ``"unram:<name>"`` for an orbit of
unramified points (size |G|) introduced on demand.  A divisor downstairs
on Y = X/G is a :class:`QuotientDivisor` over the same keys, one point per
key.

``floor_pushforward_closed`` computes ``n -> floor(n / e_0)`` per point;
``floor_pushforward_iterated`` computes the same thing one factor of p at
a time (the route through the intermediate quotients of the cyclic
tower).  The two agree for every integer, including negatives, because
``floor(floor(n/p^j)/p) = floor(n/p^(j+1))``; tests exercise that identity
directly.  ``tot_riemann_roch`` evaluates the count of indecomposable
summands of H^0(X, O_X(D)) for cyclic G once deg(D) > 2g_X - 2:

    Tot = 1 - g_Y + deg_Y(floor pushforward of D).
"""

from .errors import DegreeTooSmallError, NotCyclicError, ValidationError

__all__ = [
    "OrbitDivisor",
    "QuotientDivisor",
    "floor_pushforward_closed",
    "floor_pushforward_iterated",
    "tot_riemann_roch",
    "pullback",
]


def _clean_coeffs(cover, coeffs):
    out = {}
    for key, n in coeffs.items():
        n = int(n)
        if isinstance(key, bool) or not isinstance(key, (int, str)):
            raise ValidationError("divisor key %r must be an int or a label" % (key,))
        if isinstance(key, int):
            if not 0 <= key < len(cover.orbits):
                raise ValidationError(
                    "orbit index %d out of range [0, %d)" % (key, len(cover.orbits))
                )
        elif not key.startswith("unram:"):
            raise ValidationError(
                "unramified labels must look like 'unram:<name>', got %r" % (key,)
            )
        if n:
            out[key] = n
    return out


class _DivisorBase:
    __hash__ = None

    def __init__(self, cover, coeffs):
        self.cover = cover
        self.coeffs = _clean_coeffs(cover, coeffs)

    def coeff(self, key):
        return self.coeffs.get(key, 0)

    def support(self):
        return sorted(self.coeffs, key=lambda k: (isinstance(k, str), k))

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.cover == other.cover and self.coeffs == other.coeffs
        return NotImplemented

    def _merge(self, other, sign):
        if type(other) is not type(self):
            raise TypeError("cannot combine %r with %r" % (type(self), type(other)))
        if other.cover != self.cover:
            raise ValidationError("divisors live on different covers")
        merged = dict(self.coeffs)
        for key, n in other.coeffs.items():
            merged[key] = merged.get(key, 0) + sign * n
        return type(self)(self.cover, merged)

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __rmul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return type(self)(self.cover, {k: scalar * n for k, n in self.coeffs.items()})

    __mul__ = __rmul__

    def to_json(self):
        return {
            "coeffs": [
                {"orbit": key, "n": n}
                for key, n in sorted(
                    self.coeffs.items(), key=lambda kv: (isinstance(kv[0], str), kv[0])
                )
            ]
        }

    @classmethod
    def from_json(cls, cover, data):
        if not isinstance(data, dict) or "coeffs" not in data:
            raise ValidationError("divisor JSON must have a 'coeffs' key")
        coeffs = {}
        for entry in data["coeffs"]:
            try:
                key, n = entry["orbit"], int(entry["n"])
            except (TypeError, KeyError, ValueError) as exc:
                raise ValidationError("bad divisor entry %r: %s" % (entry, exc)) from None
            if key in coeffs:
                raise ValidationError("duplicate divisor key %r" % (key,))
            coeffs[key] = n
        return cls(cover, coeffs)


class OrbitDivisor(_DivisorBase):
    """A G-invariant divisor on X, coefficients per orbit."""

    def degree_x(self):
        return sum(
            self.cover.orbit_size(key) * n for key, n in self.coeffs.items()
        )

    def __repr__(self):
        return "OrbitDivisor(%r)" % (self.coeffs,)


class QuotientDivisor(_DivisorBase):
    """A divisor on the quotient Y = X/G, coefficients per point."""

    def degree_y(self):
        return sum(self.coeffs.values())

    def __repr__(self):
        return "QuotientDivisor(%r)" % (self.coeffs,)


def pullback(quotient_divisor):
    """pi^* of a divisor on Y: coefficient e_0 * n over a branch point."""
    c = quotient_divisor.cover
    coeffs = {
        key: c.e0(key) * n for key, n in quotient_divisor.coeffs.items()
    }
    return OrbitDivisor(c, coeffs)


def _require_cyclic(cover):
    if not cover.cyclic:
        raise NotCyclicError(
            "the cover is not flagged (or inferable as) cyclic; "
            "floor pushforwards apply to cyclic covers only"
        )


def floor_pushforward_closed(divisor):
    """Per point: n |-> floor(n / e_0), in one step."""
    _require_cyclic(divisor.cover)
    c = divisor.cover
    return QuotientDivisor(
        c, {key: divisor.coeff(key) // c.e0(key) for key in divisor.coeffs}
    )


def floor_pushforward_iterated(divisor):
    """Per point: floor-divide by p exactly log_p(e_0) times.

    This walks the cyclic tower one degree-p step at a time; a point whose
    inertia is exhausted after kappa steps is carried through the remaining
    steps unchanged.  Agrees with :func:`floor_pushforward_closed`.
    """
    _require_cyclic(divisor.cover)
    c = divisor.cover
    p = c.p
    out = {}
    for key in divisor.coeffs:
        kappa = 0
        e = c.e0(key)
        while e > 1:
            e //= p
            kappa += 1
        n = divisor.coeff(key)
        for _ in range(kappa):
            n //= p
        out[key] = n
    return QuotientDivisor(c, out)


def tot_riemann_roch(divisor):
    """Number of indecomposable k[G]-summands of H^0(X, O_X(D)).

    Requires a cyclic cover and deg(D) > 2g_X - 2 (so that H^1 vanishes
    and the count is given by 1 - g_Y + deg_Y of the floor pushforward).
    No g_X >= 2 assumption is needed here.
    """
    _require_cyclic(divisor.cover)
    c = divisor.cover
    deg = divisor.degree_x()
    bound = 2 * c.genus_x() - 2
    if deg <= bound:
        raise DegreeTooSmallError(
            "deg(D) = %d but the count needs deg(D) > 2g_X - 2 = %d" % (deg, bound)
        )
    return 1 - c.g_y + floor_pushforward_closed(divisor).degree_y()
