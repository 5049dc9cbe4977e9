"""Table-driven linear algebra kernels over small finite fields.

Matrices are numpy ``int64`` arrays of *element codes* (an element of
GF(p^m) with coefficient vector ``(c_0, ..., c_{m-1})`` has code
``sum c_i p^i``).  Field arithmetic is supplied as dense lookup tables
built once per field by :mod:`equideform.gf`:

* ``add[i, j]``  -- code of the sum,
* ``mul[i, j]``  -- code of the product,
* ``neg[i]``     -- code of the additive inverse,
* ``inv[i]``     -- code of the multiplicative inverse (``inv[0] = 0``).

:func:`rank` and :func:`matmul` are vectorised numpy: each step works on a
whole row or column through table lookups, and skips zero entries.  Both
are exact and deterministic.

Row reduction pivots on the first nonzero entry of each column, so the
echelon walk itself is reproducible, and the resulting rank is of course
independent of pivoting anyway.
"""

import numpy as np

__all__ = ["rank", "matmul"]


def rank(a, add, mul, neg, inv):
    """Rank of the code matrix ``a`` by Gaussian elimination; 0 when empty."""
    a = np.array(a, dtype=np.int64, copy=True)
    if a.size == 0:
        return 0
    rows, cols = a.shape
    r = 0
    for j in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, j])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        pv = inv[a[r, j]]
        if pv != 1:
            a[r] = mul[pv, a[r]]
        f = a[r + 1 :, j]
        mask = f != 0
        if mask.any():
            updates = mul[neg[f[mask]][:, None], a[r][None, :]]
            a[r + 1 :][mask] = add[a[r + 1 :][mask], updates]
        r += 1
    return r


def matmul(a, b, add, mul):
    """Product ``a @ b`` of two code matrices."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape[1] != b.shape[0]:
        raise ValueError("matrix shapes %s and %s do not chain" % (a.shape, b.shape))
    n, k = a.shape
    out = np.zeros((n, b.shape[1]), dtype=np.int64)
    for t in range(k):
        col = a[:, t]
        mask = col != 0
        if mask.any():
            out[mask] = add[out[mask], mul[col[mask][:, None], b[t][None, :]]]
    return out
