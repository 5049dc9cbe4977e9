"""Expected values computed apart from equideform.

Nothing here imports the program.  The curve invariants come from
Riemann-Hurwitz and the paper's closed form; finite-field arithmetic is a
small polynomial implementation over the documented representation (the
lowest monic irreducible modulus in code order, element codes as base-p
digits), so a check built on it does not reuse the program's own field code.
"""

import functools
import itertools


def genus(p, orders):
    """Genus of y^p - y = f(x) with pole orders ``orders`` (Riemann-Hurwitz)."""
    two_g_minus_2 = -2 * p + sum((n + 1) * (p - 1) for n in orders)
    return two_g_minus_2 // 2 + 1


def deformation_dim(p, orders):
    """dim of the G-coinvariants of the quadratic differentials, g_Y = 0."""
    return -3 + sum(2 * (n + 1) * (p - 1) // p for n in orders)


def different(p, n):
    return (n + 1) * (p - 1)


def canonical_coeffs(p, orders):
    """K_X = pi^* K_Y + R on the ramified points, K_Y supported on the branch locus.

    One branch point: K_Y = -2 [P]; two: K_Y = -[P0] - [Pinf].  Each ramified
    point lies over one branch point with ramification index p.
    """
    if len(orders) == 1:
        return [different(p, orders[0]) - 2 * p]
    return [different(p, n) - p for n in orders]


def jordan_problems(p, dim, ranks, mult):
    """Everything wrong with a Jordan decomposition, recomputed from its ranks."""
    problems = []
    if len(ranks) != p + 1:
        return ["%d ranks for p = %d" % (len(ranks), p)]
    if ranks[0] != dim:
        problems.append("rank of identity %d != dim %d" % (ranks[0], dim))
    if ranks[p] != 0:
        problems.append("ranks[p] = %d != 0" % ranks[p])
    if any(a < b for a, b in zip(ranks, ranks[1:])):
        problems.append("ranks increase: %s" % (ranks,))
    ext = list(ranks) + [0]
    own = [ext[l - 1] - 2 * ext[l] + ext[l + 1] for l in range(1, p + 1)]
    if list(mult) != own:
        problems.append("block counts %s != %s from the ranks" % (list(mult), own))
    if sum(l * m for l, m in enumerate(own, start=1)) != dim:
        problems.append("sum l*m_l != dim %d" % dim)
    return problems


def rank_mod_p(rows, p):
    """Rank of an integer matrix over F_p by plain elimination."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _poly_rem(a, f, p):
    """Remainder of a by the monic f; little-endian coefficient lists."""
    a = list(a)
    df = len(f) - 1
    for top in range(len(a) - 1, df - 1, -1):
        c = a[top] % p
        if c:
            for i, fc in enumerate(f):
                a[top - df + i] = (a[top - df + i] - c * fc) % p
    return [x % p for x in a[:df]] + [0] * max(0, df - len(a))


def _is_irreducible(f, p):
    m = len(f) - 1
    for d in range(1, m // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            if not any(_poly_rem(f, list(low) + [1], p)):
                return False
    return True


class Field:
    """GF(p^m) on base-p digit codes, with the lowest irreducible modulus."""

    def __init__(self, p, m):
        self.p, self.m, self.q = p, m, p**m
        self.modulus = None
        for n in range(self.q):
            f = self.digits(n) + [1]
            if m == 1 or _is_irreducible(f, p):
                self.modulus = tuple(f)
                break

    def digits(self, code):
        out = []
        for _ in range(self.m):
            out.append(code % self.p)
            code //= self.p
        return out

    def code(self, digits):
        out = 0
        for c in reversed(digits):
            out = out * self.p + c % self.p
        return out

    def add(self, a, b):
        return self.code([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        return self.code([-x for x in self.digits(a)])

    def mul(self, a, b):
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] += x * y
        return self.code(_poly_rem(prod, self.modulus, self.p))

    def power(self, a, e):
        out = 1
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def independent_over_prime_field(self, codes):
        return rank_mod_p([self.digits(c) for c in codes], self.p) == len(codes)


@functools.lru_cache(maxsize=None)
def field(p, m):
    """The cached Field for GF(p^m)."""
    return Field(p, m)


def homology_expected(field, alpha, beta):
    """(h0, h1) for p > 2, or the difference h0 - h1 for p = 2."""
    s, p = len(alpha), field.p
    if p > 3:
        return (1, s)
    if p == 3:
        return (1, s - 1)
    multiple = all(
        field.mul(alpha[i], beta[j]) == field.mul(alpha[j], beta[i])
        for i in range(s)
        for j in range(i + 1, s)
    )
    return 3 - 2 * s if multiple else 2 - s
