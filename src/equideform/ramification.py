"""Higher ramification filtrations in the lower numbering, and their jumps.

A filtration at a point P records the orders ``e_i = |G_i(P)|`` of the
higher ramification groups.  For a p-group action the sequence starts with
``e_0 = e_1`` (wild inertia), is non-increasing, consists of p-powers, and
eventually reaches 1.  We store it run-length encoded as ``segments``:
a tuple of ``(last_index, order)`` pairs with strictly decreasing orders
``> 1``; after the final segment every order is 1.  The unramified
filtration is the empty tuple.

The *jumps* are the indices where the order drops.  For a cyclic group the
order drops by exactly one factor of p at each jump and the jump positions
satisfy the Hasse-Arf pattern: there are positive integers a_0, ..., a_{k-1}
with lower jumps ``i_t = a_0 + a_1 p + ... + a_{t-1} p^{t-1}`` and upper
jumps the partial sums ``a_0 + ... + a_{t-1}``.  Conversions between the
two numberings live here, as does Hilbert's different formula
``d = sum_i (e_i - 1)`` and its closed form ``d = (1+M) p^k - (1+N)`` in
terms of the highest upper jump M and highest lower jump N.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import FiltrationError, NotHasseArfError
from .gf import _is_prime

__all__ = [
    "RamificationFiltration",
    "JumpData",
    "lower_to_upper",
    "upper_to_lower",
    "different_from_jumps",
]


def _is_p_power(n, p):
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


@dataclass(frozen=True)
class RamificationFiltration:
    """Run-length encoded lower-numbering filtration at one point."""

    p: int
    segments: tuple

    def __post_init__(self):
        if not _is_prime(self.p):
            raise FiltrationError("characteristic %r is not prime" % (self.p,))
        segs = tuple((int(i), int(e)) for i, e in self.segments)
        object.__setattr__(self, "segments", segs)
        prev_i = -1
        prev_e = None
        for i, e in segs:
            if i <= prev_i:
                raise FiltrationError("segment indices must strictly increase")
            if e <= 1 or not _is_p_power(e, self.p):
                raise FiltrationError(
                    "order %d is not a power of %d exceeding 1" % (e, self.p)
                )
            if prev_e is not None and e >= prev_e:
                raise FiltrationError("orders must strictly decrease")
            prev_i, prev_e = i, e
        if segs and segs[0][0] < 1:
            raise FiltrationError(
                "G_0 = G_1 for a p-group: first segment must cover index 1"
            )

    # -- queries -------------------------------------------------------------

    @property
    def e0(self):
        """Order of the inertia group G_0."""
        return self.segments[0][1] if self.segments else 1

    def order_at(self, i):
        """e_i, the order of G_i."""
        if i < 0:
            raise ValueError("ramification index must be >= 0")
        for last, e in self.segments:
            if i <= last:
                return e
        return 1

    @property
    def jumps(self):
        """Indices where the order drops (the lower jumps)."""
        return tuple(last for last, _ in self.segments)

    def hilbert_different(self):
        """d(P) = sum_{i >= 0} (e_i - 1)."""
        total = 0
        prev = -1
        for last, e in self.segments:
            total += (last - prev) * (e - 1)
            prev = last
        return total

    def is_weakly_ramified(self):
        """True when G_2 is trivial (so d = 2(e_0 - 1) if ramified)."""
        return self.order_at(2) == 1

    def is_cyclic_pattern(self):
        """True when orders step down by exactly one factor of p per jump."""
        k = len(self.segments)
        return all(e == self.p ** (k - t) for t, (_, e) in enumerate(self.segments))

    def jump_data(self):
        """The jump positions as :class:`JumpData` (cyclic pattern only)."""
        if not self.is_cyclic_pattern():
            raise NotHasseArfError(
                "orders %s do not drop by single factors of %d"
                % ([e for _, e in self.segments], self.p)
            )
        return JumpData(self.p, self.jumps)

    @classmethod
    def from_lower_jumps(cls, p, lower):
        """The cyclic-pattern filtration with the given lower jumps."""
        lower = tuple(int(i) for i in lower)
        k = len(lower)
        return cls(p, tuple((i, p ** (k - t)) for t, i in enumerate(lower)))

    # -- JSON ----------------------------------------------------------------

    def to_json(self):
        return {"orders": [[i, e] for i, e in self.segments]}

    @classmethod
    def from_json(cls, data, p):
        if not isinstance(data, dict) or "orders" not in data:
            raise FiltrationError("filtration JSON must have an 'orders' key")
        orders = data["orders"]
        try:
            segs = tuple((int(i), int(e)) for i, e in orders)
        except (TypeError, ValueError) as exc:
            raise FiltrationError("bad 'orders' entry: %s" % exc) from None
        return cls(p, segs)


@dataclass(frozen=True)
class JumpData:
    """Lower jumps of a cyclic filtration, with derived upper jumps."""

    p: int
    lower: tuple

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(int(i) for i in self.lower))
        # raises NotHasseArfError on an invalid pattern
        lower_to_upper(self.p, self.lower)

    @property
    def k(self):
        """log_p of the inertia order."""
        return len(self.lower)

    @property
    def e0(self):
        return self.p**self.k

    @cached_property
    def upper(self):
        return lower_to_upper(self.p, self.lower)

    def different(self):
        return different_from_jumps(self.p, self.lower)


def lower_to_upper(p, lower):
    """Upper jumps from lower jumps under the cyclic Hasse-Arf pattern.

    Writing the lower jumps as i_t = a_0 + a_1 p + ... + a_{t-1} p^{t-1}
    with every a_t a positive integer, the upper jumps are the partial sums
    of the a_t.  Raises NotHasseArfError when no such a_t exist.
    """
    lower = tuple(int(i) for i in lower)
    a = []
    prev = 0
    for t, i in enumerate(lower):
        gap = i - prev
        scale = p**t
        if gap <= 0 or gap % scale:
            raise NotHasseArfError(
                "lower jumps %s do not fit the cyclic pattern for p=%d"
                % (list(lower), p)
            )
        a.append(gap // scale)
        prev = i
    upper = []
    total = 0
    for at in a:
        total += at
        upper.append(total)
    return tuple(upper)


def upper_to_lower(p, upper):
    """Inverse of :func:`lower_to_upper`."""
    upper = tuple(int(u) for u in upper)
    a = []
    prev = 0
    for u in upper:
        step = u - prev
        if step <= 0:
            raise NotHasseArfError(
                "upper jumps %s are not strictly increasing from > 0" % (list(upper),)
            )
        a.append(step)
        prev = u
    lower = []
    i = 0
    for t, at in enumerate(a):
        i += at * p**t
        lower.append(i)
    return tuple(lower)


def different_from_jumps(p, lower):
    """d = (1+M) p^k - (1+N): closed form of Hilbert's formula.

    N is the highest lower jump, M the highest upper jump, p^k the inertia
    order.  Matches summing e_i - 1 over the filtration.
    """
    lower = tuple(int(i) for i in lower)
    if not lower:
        return 0
    upper = lower_to_upper(p, lower)
    k = len(lower)
    return (1 + upper[-1]) * p**k - (1 + lower[-1])
