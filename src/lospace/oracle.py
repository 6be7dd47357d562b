"""Brute-force ground truths for the test suite.

Everything here is exact and small-n: fraction-free determinants, rational
Gaussian elimination, characteristic polynomials over Q via Faddeev-
LeVerrier, Sturm-sequence eigenvalue bracketing, and Hankel-system minimal
recurrences.  Production code never imports this module; only tests do,
which keeps the space-metered paths honest.

Rationals are fractions.Fraction (already canonical: gcd 1, positive
denominator).  Matrices are dense lists of lists.
"""

from __future__ import annotations

from fractions import Fraction

SINGULAR = "SINGULAR"


def dense_of(op):
    """Dense rows of a SparseMatrix or LinearOperator, read through its
    products only: column j is op.apply_int of the j-th unit vector."""
    cols = [op.apply_int([int(k == j) for k in range(op.m)])
            for j in range(op.m)]
    return [[col[i] for col in cols] for i in range(op.n)]


def oracle_det_bareiss(dense) -> int:
    """Exact determinant by Bareiss fraction-free elimination (n <= 64)."""
    n = len(dense)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in dense]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def oracle_solve_exact(dense, b):
    """Exact A^-1 b by rational elimination with partial pivoting, or SINGULAR."""
    n = len(dense)
    a = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(dense)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            return SINGULAR
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                factor = a[r][col] * inv
                for c in range(col, n + 1):
                    a[r][c] -= factor * a[col][c]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        s = a[r][n] - sum(a[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / a[r][r]
    return x


def oracle_charpoly(dense):
    """Monic characteristic polynomial det(XI - A) over Q, lowest degree first."""
    n = len(dense)
    a = [[Fraction(x) for x in row] for row in dense]
    coeffs = [Fraction(0)] * n + [Fraction(1)]  # X^n + c_{n-1} X^{n-1} + ...
    m = [[Fraction(0)] * n for _ in range(n)]   # M_0 = 0
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{n-k+1} I ; c_{n-k} = -tr(A M_k)/k
        for i in range(n):
            m[i][i] += coeffs[n - k + 1]
        m = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
             for i in range(n)]
        tr = sum(m[i][i] for i in range(n))
        coeffs[n - k] = -tr / k
    return coeffs


def oracle_charpoly_mod(dense, p):
    """det(XI - A) mod p, lowest degree first (denominators 1..n invertible)."""
    cp = oracle_charpoly(dense)
    return [int(c.numerator * pow(c.denominator, -1, p)) % p for c in cp]


def oracle_matrix_minpoly_mod(dense, p):
    """Minimal polynomial of (A mod p): least monic combo of I, A, A^2, ..."""
    n = len(dense)
    powers = [[[1 if i == j else 0 for j in range(n)] for i in range(n)]]
    a = [[x % p for x in row] for row in dense]
    while len(powers) <= n:
        last = powers[-1]
        powers.append([[sum(a[i][t] * last[t][j] for t in range(n)) % p
                        for j in range(n)] for i in range(n)])
    for d in range(1, n + 1):
        # solve sum_{i<d} c_i vec(A^i) = -vec(A^d) over F_p
        rows = []
        for i in range(n):
            for j in range(n):
                rows.append([powers[k][i][j] for k in range(d)] + [(-powers[d][i][j]) % p])
        sol = _solve_mod(rows, d, p)
        if sol is not None:
            return [s % p for s in sol] + [1]
    raise AssertionError("no annihilating polynomial up to degree n")


def _solve_mod(rows, ncols, p):
    """Consistent least-squares-free exact solve of an overdetermined system."""
    rows = [r[:] for r in rows]
    nr = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nr) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, nr):
        if rows[i][ncols] % p:
            return None
    sol = [0] * ncols
    for i, c in enumerate(pivots):
        sol[c] = rows[i][ncols]
    return sol


def oracle_min_recurrence(seq, p, max_deg):
    """Smallest-degree monic recurrence of seq mod p by Hankel solves."""
    seq = [x % p for x in seq]
    if all(x == 0 for x in seq):
        return [1]
    for d in range(1, max_deg + 1):
        if d > len(seq) - 1:
            break
        rows = []
        ok = True
        for j in range(len(seq) - d):
            rows.append([seq[i + j] for i in range(d)] + [(-seq[d + j]) % p])
        sol = _solve_mod(rows, d, p)
        if sol is not None:
            return [s % p for s in sol] + [1]
    raise LookupError(f"no recurrence of degree <= {max_deg}")


# -- eigenvalues by Sturm bisection -------------------------------------------

def _poly_eval(c, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def _poly_deriv(c):
    return [i * c[i] for i in range(1, len(c))]


def _poly_mod(a, b):
    """Remainder of a / b over Q (b nonzero), coefficients lowest first."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        k = len(a) - 1 - db
        f = a[-1] / lb
        for i in range(db + 1):
            a[k + i] -= f * b[i]
        a.pop()
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _sturm_chain(c):
    chain = [c, _poly_deriv(c)]
    while len(chain[-1]) > 1 or chain[-1][0] != 0:
        rem = _poly_mod(chain[-2], chain[-1])
        if all(x == 0 for x in rem):
            break
        chain.append([-x for x in rem])
    return chain


def _sign_changes(chain, x: Fraction) -> int:
    signs = []
    for c in chain:
        v = _poly_eval(c, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _squarefree(c):
    g = _poly_gcd(c, _poly_deriv(c))
    if len(g) == 1:
        return c
    q, _ = _poly_divmod(c, g)
    return q


def _poly_gcd(a, b):
    a, b = list(a), list(b)
    while any(b):
        a, b = b, _poly_mod(a, b)
        while len(b) > 1 and b[-1] == 0:
            b.pop()
    lead = a[-1]
    return [x / lead for x in a]


def _poly_divmod(a, b):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [Fraction(0)] * max(1, len(a) - db)
    while len(a) - 1 >= db and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        k = len(a) - 1 - db
        f = a[-1] / lb
        q[k] = f
        for i in range(db + 1):
            a[k + i] -= f * b[i]
        a.pop()
    return q, a


def oracle_eigs_bisect(dense, tol):
    """Sorted eigenvalues of a symmetric integer matrix to +-tol (n <= 10).

    Exact characteristic polynomial; Sturm counts on its square-free part
    drive the bisection.  A root of multiplicity m shows up in the first m
    polynomials of the gcd chain p, gcd(p, p'), gcd(gcd, gcd'), ..., so
    summing distinct-root counts across the chain recovers multiplicities
    exactly, clustered roots included.
    """
    n = len(dense)
    if n == 0:
        return []
    cp = oracle_charpoly(dense)
    u = max(max(abs(x) for x in row) for row in dense)
    bound = Fraction(n * max(u, 1) + 1)
    # gcd chain and a Sturm chain for the square-free part of each level
    levels = []
    cur = cp
    while len(cur) > 1:
        levels.append(_sturm_chain(_squarefree(cur)))
        g = _poly_gcd(cur, _poly_deriv(cur))
        if len(g) == 1:
            break
        cur = g

    def mult_in(lo, hi):
        return sum(
            _sign_changes(ch, lo) - _sign_changes(ch, hi) for ch in levels)

    out = []

    def isolate(lo, hi, want):
        if want == 0:
            return
        if hi - lo <= Fraction(tol) / 2:
            guess = (lo + hi) / 2
            # rational eigenvalues of integer matrices are integers: snap
            k = Fraction(round(guess))
            if abs(k - guess) <= hi - lo and _poly_eval(cp, k) == 0:
                guess = k
            out.extend([guess] * want)
            return
        mid = (lo + hi) / 2
        left = mult_in(lo, mid)
        isolate(lo, mid, left)
        isolate(mid, hi, want - left)

    isolate(-bound, bound, mult_in(-bound, bound))
    if len(out) != n:
        raise RuntimeError("multiplicity accounting is off")
    return sorted(float(x) for x in out)
