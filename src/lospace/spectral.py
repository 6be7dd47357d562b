"""Eigenvalues, eigenvectors and SVD on top of the rational solver.

Everything is kept on dyadic grids so that interval halving, shifts and
scaling are exact: a symmetric integer matrix A is perturbed to
B = A + D with D a nonnegative diagonal of fixed points, B is held as the
integer matrix 2^s B, and every quantity fed back into the solver is an
integer again.  The pipeline:

  perturb_spectrum   random diagonal <= eps/2 separating the eigenvalues
  inverse power      lambda ~= max(delta, |lambda_min|) via repeated
                     entry-wise-approximate solves (detects singularity,
                     bails out early when the iterates blow up, stops on a
                     plateau or, given a decision threshold, as soon as the
                     never-rising estimate drops below it, capped at the
                     worst-case iteration count)
  shift_invert       is there an eigenvalue near the interval midpoint?
  spectrum           divide and conquer over [-2U, 2U] down to leaf width
                     a fraction of the separation
  eigendecompose     spectrum of B, then one gap-mode inverse power per
                     shifted matrix, streaming out one eigenpair at a time
  svd                eigendecomposition of 2^2t (A A^T + eps0 I); right
                     vectors come from the live left vector only

The spectrum tree departs from the paper's, which runs shift_invert at
every node.  The exact determinant f(m) = det(2^s B - m I) =
prod(lambda_i - m) at a split point m has the sign (-1)^(number of
eigenvalues below m), the one-determinant case of the inertia law, so
the signs at an interval's ends give the parity of its eigenvalue count;
the root's ends have 0 and n eigenvalues below them.  An odd interval
holds at least one eigenvalue and never runs inverse power.  An even
one first gets f at its midpoint.  If that is zero, or its sign differs
from the ends', an eigenvalue lies in the interval, where shift_invert
answers YES, and it is split at once; only when both halves are even
does shift_invert run, on the determinant just computed, and drop the
interval (NO) or split it (YES).  Odd intervals are disjoint, so once
there are n of them each holds exactly one eigenvalue and is narrowed
to leaf width with no solves, by Illinois regula falsi (Dowell &
Jarratt, BIT 11, 1971) on the values of f, kept as 64-bit floats: the
next point is the leaf-grid point at the floor of the interpolated
root, clamped one leaf inside the bracket.  A step that leaves the
smallest aligned tree node holding the bracket unchanged is
followed by a split at that node's midpoint, so an eigenvalue costs at
most two determinants per tree level it visits.  Only exact signs move a
bracket, so the rounding in the interpolation decides which points are
evaluated, never the leaf found: it is the one bisection would reach.
With fewer than n odd intervals, the widest are split once and counted
again.  A zero determinant means the point is an eigenvalue, exactly:
inside a one-eigenvalue interval it is reported and the narrowing stops;
elsewhere it is reported too, and its two neighbours get unknown parity;
such an interval holds the eigenvalue at its end, so it is split like an
odd-half one, until it is narrower than a leaf.  The leaves are disjoint by
construction and no eigenvalue is counted twice, so the count never
exceeds n.  spectrum's stats counts, per depth, the tree nodes the
search enters: each node split while isolating, and each node a
narrowing bracket enters.

The base matrix may also be a black-box symmetric operator (the SVD path
passes its ridged Gram product); scaling and shifting then compose
operators instead of materializing anything.  No operator keeps a reduced
copy between calls: a fused kernel builds its copy for the call, and a
shifted operator's products mod p are its exact products reduced.

Probabilistic failures (a perturbation that left two eigenvalues closer
than a leaf) surface as ResultCountMismatch after one retry with a fresh
perturbation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import meter
from .numeric import (
    FixedL,
    FloatL,
    GREATER,
    LESS,
    fixed_from_fraction,
    fl_add_same_sign,
    fl_cmp,
    fl_cmp_fraction,
    fl_div,
    fl_from_bigratio,
    fl_from_int,
    fl_mul,
    fl_neg,
    fl_recip,
    fl_scale_pow2,
    fl_sqrt,
    fl_zero,
)
from .linop import LinearOperator, SparseMatrix
from .solver import RationalSolver, derive_rng, determinant

YES, NO = "YES", "NO"


class ResultCountMismatch(RuntimeError):
    """The spectrum tree did not count exactly n eigenvalues.

    A short count means the perturbation left two eigenvalues in one leaf,
    or made one a multiple eigenvalue at a split point, on both attempts;
    the tree reports such a cluster once, never a wrong value."""


def _ceil_log2(q: Fraction) -> int:
    k = 0
    v = Fraction(1)
    while v < q:
        v *= 2
        k += 1
    return k


@dataclass
class PerturbedMatrix:
    """B = base + diag(diag_scaled / 2**scale_pow), diagonal in [0, eps/2]."""

    base: object              # SparseMatrix or a symmetric LinearOperator
    diag_scaled: list
    scale_pow: int

    @property
    def n(self):
        return self.base.n

    def scaled(self, s: int):
        """2^s B; a plain integer matrix when the base is one."""
        shift = s - self.scale_pow
        if isinstance(self.base, SparseMatrix):
            d = {(i, i): v << shift for i, v in enumerate(self.diag_scaled) if v}
            for i, j, v in zip(self.base.rows, self.base.cols, self.base.vals):
                d[(i, j)] = d.get((i, j), 0) + (v << s)
            return SparseMatrix.from_entries(
                self.n, self.n, [(i, j, v) for (i, j), v in d.items() if v])
        scaled = LinearOperator.diag_scale([1 << s] * self.n, self.base)
        return LinearOperator.shift(scaled, [v << shift for v in self.diag_scaled])


def perturb_spectrum(a, eps: float, rng: random.Random) -> PerturbedMatrix:
    """Random diagonal perturbation separating eigenvalues by ~eps^2/(n^4 U).

    Entries are uniform fixed points in [0, eps/2] on a grid fine enough
    that the rounding sits far below the separation target.
    """
    n, u = a.n, a.entry_bound
    gamma = Fraction(eps) ** 2 / (n ** 4 * u)
    s = max(8, _ceil_log2(Fraction(2) / gamma))
    hi = int(Fraction(eps) / 2 * (1 << s))
    diag = [rng.randrange(hi + 1) for _ in range(n)]
    return PerturbedMatrix(a, diag, s)


# -- inverse power -------------------------------------------------------------


def _norm_sq(vec_fl):
    acc = None
    for x in vec_fl:
        sq = fl_mul(x, x)
        acc = sq if acc is None else fl_add_same_sign(acc, sq)
    return acc


def _abs(x: FloatL) -> FloatL:
    return x if x.mantissa >= 0 else fl_neg(x)


def _regrid(u_fl, bits):
    """Integer vector proportional to u with max magnitude ~2^bits."""
    mx = None
    for x in u_fl:
        ax = _abs(x)
        if mx is None or fl_cmp(ax, mx) == GREATER:
            mx = ax
    if mx is None or mx.is_zero():
        return None
    out = []
    for x in u_fl:
        num = x.mantissa * (1 << bits)
        den = mx.mantissa
        e = x.exponent - mx.exponent
        if e >= 0:
            num <<= e
        else:
            den <<= -e
        q, r = divmod(num, den)
        if 2 * r >= den:
            q += 1
        out.append(q)
    return out


def _unitize(u_fl):
    inv = fl_recip(fl_sqrt(_norm_sq(u_fl)))
    return [fl_mul(x, inv) for x in u_fl]


def _plateaued(history, eps, hint):
    window = 5
    need = window
    if hint is not None and history and not history[-1].is_zero():
        cur = abs(history[-1].to_fraction())
        if hint / 2 <= cur <= 2 * hint:
            need = 2 * window  # near the decision boundary: be patient
    if len(history) < max(6, need):
        return False
    lo = hi = history[-need]
    for x in history[-need:]:
        if fl_cmp(x, lo) == LESS:
            lo = x
        if fl_cmp(x, hi) == GREATER:
            hi = x
    if lo.is_zero():
        return hi.is_zero()
    return float(fl_div(hi, lo).to_fraction()) - 1.0 <= eps / 16


@dataclass
class PowerResult:
    lam: FloatL            # ~= max(delta, |lambda_min|)
    vector: list | None    # final normalized iterate (FloatL) if requested
    early_exit: bool
    iterations: int


def _inverse_power(op_int, scale_pow, eps, delta: Fraction, rng,
                   t_cap, solver_eps, want_vector=False,
                   hint: Fraction | None = None, det: int | None = None):
    """Inverse power on (op_int / 2^scale_pow); delta in unscaled units,
    det = det(op_int) when the caller already has it."""
    n = op_int.n
    solver = RationalSolver(op_int, solver_eps, derive_rng(rng, "solver"),
                            det=det)
    try:
        if solver.det == 0:
            return PowerResult(fl_zero(64), None, False, 0)
        grid_bits = max(48, math.ceil(math.log2(1 / solver_eps)) + 8)
        v_int = None
        while v_int is None:
            v_int = [round(rng.gauss(0.0, 1.0) * (1 << grid_bits))
                     for _ in range(n)]
            if not any(v_int):
                v_int = None
        L = solver.L
        history = []
        lam = None
        v_fl = None
        thresh_sq = Fraction(2) / (delta * delta) if delta > 0 else None
        with meter.track("invpower.iterates", 3 * n * (grid_bits + 64)):
            for _it in range(1, t_cap + 1):
                out = solver.solve(v_int)
                # v_int sits on the 2^-grid_bits grid: bring u back to the
                # units of v before comparing norms
                u_fl = [fl_scale_pow2(x, scale_pow - grid_bits) for x in out.x]
                vnorm_sq = fl_from_bigratio(
                    sum(x * x for x in v_int), 1 << (2 * grid_bits), L)
                unorm_sq = _norm_sq(u_fl)
                if unorm_sq.is_zero():
                    return PowerResult(fl_zero(L), None, False, _it)
                ratio_sq = fl_div(unorm_sq, vnorm_sq)
                if thresh_sq is not None and \
                        fl_cmp_fraction(ratio_sq, thresh_sq) != LESS:
                    lam = fl_from_bigratio(delta.numerator, delta.denominator, L)
                    return PowerResult(lam, _unitize(u_fl), True, _it)
                lam = fl_recip(fl_sqrt(ratio_sq))
                if want_vector:
                    v_fl = u_fl
                history.append(lam)
                # lam >= |lambda_min| and, by Cauchy-Schwarz, never rises
                # (|M^-1 v|^2 = <v, M^-2 v> <= |v| |M^-2 v|): below the
                # hint the caller's answer is already settled
                if hint is not None and fl_cmp_fraction(lam, hint) == LESS:
                    break
                if _plateaued(history, eps, hint):
                    break
                nxt = _regrid(u_fl, grid_bits)
                if nxt is None:
                    break
                v_int = nxt
        vec = _unitize(v_fl) if want_vector and v_fl is not None else None
        return PowerResult(lam, vec, False, len(history))
    finally:
        solver.close()


def _t_cap(n, eps):
    eps_s = eps / 4
    return min(800, math.ceil(28 * math.log(4 * n / eps_s) / eps))


def inv_power(a, eps: float, delta, rng=None, scale_pow: int = 0,
              solver_eps: float | None = None) -> FloatL:
    """lambda ~=_eps max(delta, min_i |lambda_i|) for symmetric integer a.

    Returns exact 0 when a is singular (the solver reports SINGULAR).
    """
    op = LinearOperator.wrap(a)
    rng = rng if isinstance(rng, random.Random) else random.Random(rng or 0)
    res = _inverse_power(op, scale_pow, eps, Fraction(delta), rng,
                         _t_cap(op.n, eps), solver_eps or 2.0 ** -40)
    return res.lam


def inv_power_gap(a, eps: float, delta, rng=None, scale_pow: int = 0,
                  solver_eps: float | None = None):
    """(lambda, v): least-magnitude eigenvalue plus its eigenvector.

    The caller guarantees the 1.1x spectral gap; convergence is then
    geometric and the iteration count only logarithmic in the accuracy.
    """
    op = LinearOperator.wrap(a)
    rng = rng if isinstance(rng, random.Random) else random.Random(rng or 0)
    cap = min(600, math.ceil(12 * math.log(4 * op.n / min(0.5, eps))) + 24)
    res = _inverse_power(op, scale_pow, max(eps, 1e-9), Fraction(delta), rng,
                         cap, solver_eps or min(2.0 ** -40, eps / 256),
                         want_vector=True)
    return res.lam, res.vector


# -- divide and conquer over the spectrum ---------------------------------------


def shift_invert(b_scaled, scale_pow: int, lo: Fraction, hi: Fraction,
                 rng, det: int | None = None) -> str:
    """NO certifies (b/2^s) has no eigenvalue in [lo, hi]; YES places one
    within the interval widened by a quarter width on each side.  det,
    when given, is the midpoint's _midpoint_det value."""
    mid = (lo + hi) / 2
    radius = (hi - lo) / 2
    shifted = _shifted(b_scaled, mid * (1 << scale_pow))
    delta_scaled = radius * (1 << scale_pow)
    res = _inverse_power(shifted, 0, 0.1, delta_scaled, rng,
                         _t_cap(b_scaled.n, 0.1), 2.0 ** -40,
                         hint=Fraction(12, 10) * delta_scaled, det=det)
    if fl_cmp_fraction(res.lam, Fraction(12, 10) * delta_scaled) == LESS:
        return YES
    return NO


def _shifted(b_scaled, m_scaled: Fraction):
    if m_scaled.denominator != 1:
        raise ValueError("midpoint off the dyadic grid")
    return LinearOperator.shift(b_scaled, -int(m_scaled))


def _midpoint_det(b_scaled, m_scaled: Fraction, rng) -> int:
    """det(b_scaled - m_scaled I) = prod(lambda_i - m), exactly: negative
    exactly when an odd number of eigenvalues lie below m_scaled, and
    zero exactly when m_scaled is one."""
    return determinant(_shifted(b_scaled, m_scaled), rng=rng)


def _shifted_det(b_scaled, m_scaled: Fraction, rng) -> FloatL:
    """_midpoint_det rounded to 64 bits."""
    return fl_from_int(_midpoint_det(b_scaled, m_scaled, rng), 64)


def _narrow(f, ka: int, kb: int, f_lo: FloatL, f_hi: FloatL, leaves: int,
            stats=None) -> int:
    """Leaf-grid index k of the one eigenvalue in (ka, kb): f(k) is zero,
    or f(k) and f(k + 1) differ in sign.

    Grid points run from 0 to leaves = 2^depth, f(k) is the point's
    _shifted_det value, and f_lo, f_hi are the values at ka and kb, of
    opposite signs; a root end (0 or leaves) carries its sign only.
    Illinois regula falsi: evaluate the point at the floor of the
    interpolated root, clamped one leaf inside the bracket, and halve the
    value at an end kept twice in a row.  Only exact signs move the
    bracket.  N, the smallest aligned tree node holding the bracket, is
    counted in stats[depth of N] when the bracket enters it; a step that
    leaves N unchanged, and every step at a root end, evaluates N's
    midpoint instead, a bisection split.  So each node entered costs at
    most two evaluations.
    """
    depth = leaves.bit_length() - 1
    node = moved = None
    while kb - ka > 1:
        h = (ka ^ (kb - 1)).bit_length()      # N holds 2^h leaves
        entered = (h, ka >> h) != node
        if entered:
            node = (h, ka >> h)
            if stats is not None:
                stats[depth - h] = stats.get(depth - h, 0) + 1
        if not entered or ka == 0 or kb == leaves:
            k = (ka >> h << h) + (1 << (h - 1))
        else:
            a, b = _abs(f_lo), _abs(f_hi)
            r = fl_mul(fl_div(a, fl_add_same_sign(a, b)), fl_from_int(kb - ka, 64))
            k = min(max(ka + math.floor(r.to_fraction()), ka + 1), kb - 1)
        fk = f(k)
        if fk.is_zero():
            return k
        if fk.sign() == f_lo.sign():
            ka, f_lo, side = k, fk, LESS
        else:
            kb, f_hi, side = k, fk, GREATER
        if side == moved:   # the other end was kept twice: Illinois halving
            if side == LESS:
                f_hi = fl_scale_pow2(f_hi, -1)
            else:
                f_lo = fl_scale_pow2(f_lo, -1)
        moved = side
    return ka


def _extract_eigs(b: PerturbedMatrix, u: int, leaf_width: Fraction, rng,
                  stats=None):
    """Ascending eigenvalue estimates of B, exactly n of them or fewer.

    Root interval [-2nU, 2nU] (Gershgorin keeps every eigenvalue inside
    nU + eps/2), widths halve, so depth-d endpoints live on the 4nU/2^d
    grid; scale_pow is chosen to keep every midpoint integral.  An
    interval is (lo, hi, depth, label, f(lo), f(hi)), f being
    _shifted_det's value; the root's ends carry only their signs, + and
    (-1)^n, as they have 0 and n eigenvalues below them.  stats[d] counts
    the depth-d tree nodes entered: each node split while isolating, and
    each node _narrow's bracket enters.
    """
    n = b.n
    reach = n * u
    depth_needed = 0
    width = Fraction(4 * reach)
    while width >= leaf_width:
        width /= 2
        depth_needed += 1
    scale_pow = max(b.scale_pow, depth_needed + 4)
    b_scaled = b.scaled(scale_pow)
    if isinstance(b_scaled, SparseMatrix):
        bits = sum(v.bit_length() + 1 for v in b_scaled.vals)
    else:
        bits = b.n * (scale_pow + 8)
    exact = []     # split points that are eigenvalues, then narrowed leaves
    odd = []       # intervals holding an odd number of eigenvalues
    pending = []   # intervals of even or unknown count

    def value(m, *labels):
        return _shifted_det(b_scaled, m * (1 << scale_pow),
                            derive_rng(rng, "det", *labels))

    def split(iv, f_mid):
        lo, hi, depth, label, f_lo, f_hi = iv
        if stats is not None:
            stats[depth] = stats.get(depth, 0) + 1
        mid = (lo + hi) / 2
        if f_mid.is_zero():
            exact.append(mid)
        return ((lo, mid, depth + 1, 2 * label + 1, f_lo, f_mid),
                (mid, hi, depth + 1, 2 * label + 2, f_mid, f_hi))

    def place(ivs):
        for iv in ivs:
            if iv[4].sign() * iv[5].sign() < 0:
                odd.append(iv)
            elif iv[1] - iv[0] >= leaf_width:
                pending.append(iv)
            # else: a leaf is narrower than the separation, so an even one
            # holds no eigenvalue and one of unknown parity only the
            # split-point eigenvalue at its end, already in `exact`

    leaves = 1 << depth_needed
    leaf = Fraction(4 * reach, leaves)

    def point(k):
        return -2 * reach + k * leaf

    with meter.track("spectrum.bmatrix", bits):
        place([(Fraction(-2 * reach), Fraction(2 * reach), 0, 0,
                fl_from_int(1, 64), fl_from_int((-1) ** n, 64))])
        # odd intervals and split-point eigenvalues are disjoint, each worth
        # at least one eigenvalue: n of them are worth one each, and every
        # interval still pending holds none
        while len(odd) + len(exact) < n:
            if pending:
                lo, hi, _, label, f_lo, f_hi = iv = pending.pop()
                # the node's stream is drawn before its determinant's,
                # whatever follows, so no later stream depends on which
                # nodes the determinant settles
                node_rng = derive_rng(rng, "node", label)
                d = _midpoint_det(b_scaled, (lo + hi) / 2 * (1 << scale_pow),
                                  derive_rng(rng, "det", label))
                f_mid = fl_from_int(d, 64)
                # an eigenvalue at an end or the midpoint, or an odd half,
                # lies in [lo, hi], where shift_invert answers YES; only
                # two even halves need it
                if f_lo.sign() == f_mid.sign() == f_hi.sign() != 0 and \
                        shift_invert(b_scaled, scale_pow, lo, hi, node_rng,
                                     det=d) == NO:
                    continue
                place(split(iv, f_mid))
                continue
            widest = max((iv[1] - iv[0] for iv in odd), default=0)
            if widest < leaf_width:
                return sorted(exact), scale_pow, b_scaled
            chosen = [iv for iv in odd if iv[1] - iv[0] == widest]
            odd[:] = [iv for iv in odd if iv[1] - iv[0] != widest]
            for iv in chosen:
                place(split(iv, value((iv[0] + iv[1]) / 2, iv[3])))
        if len(odd) + len(exact) > n:
            raise ResultCountMismatch(f"more than {n} eigenvalues counted")
        for lo, hi, _, _, f_lo, f_hi in odd:
            k = _narrow(lambda k: value(point(k), "grid", k),
                        int((lo + 2 * reach) / leaf), int((hi + 2 * reach) / leaf),
                        f_lo, f_hi, leaves, stats)
            exact.append(point(k))
    return sorted(exact), scale_pow, b_scaled


def _perturb_and_extract(a, eps: float, rng, leaf_div: int, stats=None):
    """Shared front end of spectrum/eigendecompose/svd, with one retry on a
    fresh perturbation: 2^s B for B = a perturbed by at most eps/2, the
    eigenvalue estimates from tree leaves sep/leaf_div wide, s and sep."""
    n, u = a.n, a.entry_bound
    sep = Fraction(eps) ** 2 / (4 * n ** 4 * u)  # separation after eps/2 perturb
    for attempt in range(2):
        b = perturb_spectrum(a, eps / 2, derive_rng(rng, "perturb", attempt))
        vals, scale_pow, b_scaled = _extract_eigs(
            b, u, sep / leaf_div, derive_rng(rng, "tree", attempt), stats=stats)
        if len(vals) == n:
            return b_scaled, vals, scale_pow, sep
    raise ResultCountMismatch(f"expected {n} eigenvalues, got {len(vals)}")


def spectrum(a: SparseMatrix, eps: float, rng=None, stats=None):
    """All eigenvalues of symmetric a to within +-eps, ascending FixedL list."""
    if not a.is_symmetric():
        raise ValueError("spectrum needs a symmetric matrix")
    rng = rng if isinstance(rng, random.Random) else random.Random(rng or 0)
    _, vals, scale_pow, _ = _perturb_and_extract(a, eps, rng, 8, stats)
    return [fixed_from_fraction(v, scale_pow) for v in vals]


def _dyadic_at_least(q: Fraction, scale_pow: int) -> Fraction:
    num = q * (1 << scale_pow)
    k = -((-num.numerator) // num.denominator)  # ceil
    return Fraction(k, 1 << scale_pow)


def _one_eigenvector(b_scaled, scale_pow, lam: Fraction, g5: Fraction,
                     delta: Fraction, vec_eps: float, rng):
    """Gap-mode inverse power against B - (lam + g5) I."""
    shift_val = (lam + g5) * (1 << scale_pow)
    if shift_val.denominator != 1:
        raise ValueError("eigenvector shift off the dyadic grid")
    shifted = LinearOperator.shift(b_scaled, -int(shift_val))
    _, v_fl = inv_power_gap(shifted, vec_eps, delta * (1 << scale_pow), rng)
    return v_fl


def eigendecompose(a: SparseMatrix, eps: float, rng=None,
                   vec_eps: float | None = None):
    """Yields n (lambda_i, v_i) pairs, eigenvalues ascending, one vector
    live at a time; |lambda_i(a) - lambda_i| <= eps, |v_i|^2 in [1 +- eps],
    |A v_i - lambda_i v_i| <= eps, pairwise inner products <= eps."""
    if isinstance(a, SparseMatrix) and not a.is_symmetric():
        raise ValueError("eigendecompose needs a symmetric matrix")
    rng = rng if isinstance(rng, random.Random) else random.Random(rng or 0)
    n, u = a.n, a.entry_bound
    vec_eps = vec_eps if vec_eps is not None else (eps / (60 * n * u)) ** 2
    b_scaled, vals, scale_pow, sep = _perturb_and_extract(a, eps, rng, 16)
    g5 = _dyadic_at_least(sep / 5, scale_pow)
    out_bits = max(32, math.ceil(math.log2(4 / vec_eps)) + 6)
    for i, lam in enumerate(vals):
        v_fl = _one_eigenvector(b_scaled, scale_pow, lam, g5, sep / 10,
                                vec_eps, derive_rng(rng, "vec", i))
        if v_fl is None:
            raise ResultCountMismatch(f"no eigenvector for eigenvalue {i}")
        vec = [fixed_from_fraction(x.to_fraction(), out_bits) for x in v_fl]
        yield fixed_from_fraction(lam, scale_pow), vec


def svd(a: SparseMatrix, eps: float, rng=None):
    """Yields (u_i, sigma_i, v_i) with sigma descending for i < m, then the
    remaining null-direction columns of U as (u_i, None, None).

    sigma_i are FloatL; u_i, v_i are FixedL lists.  v_i = sigma^-1 A^T u_i
    is computed from the live u_i only.
    """
    n, m = a.n, a.m
    if n < m:
        raise ValueError("svd wants n >= m")
    rng = rng if isinstance(rng, random.Random) else random.Random(rng or 0)
    u_bound = a.entry_bound
    eps0 = Fraction(eps) / (60 * n * n * max(1, u_bound))
    t = _ceil_log2(Fraction(4) / eps0) // 2 + 2
    a_scaled = a.scaled(1 << t)
    ridge = int(eps0 * (1 << (2 * t))) + 1
    gram = LinearOperator.shift(LinearOperator.gram_t(a_scaled), ridge)
    eps0_eff = Fraction(ridge, 1 << (2 * t))
    # targets on the scaled matrix: eigenvalues of 2^2t (A A^T + eps0 I)
    eps_scaled = float(eps0_eff / 10) * (1 << (2 * t))
    vec_eps = float(eps0_eff / 10) ** 2
    bsc, vals, scale_pow, sep = _perturb_and_extract(gram, eps_scaled, rng, 16)
    g5 = _dyadic_at_least(sep / 5, scale_pow)
    out_bits = max(32, math.ceil(math.log2(4 / vec_eps)) + 6)
    L = 64
    for idx, i in enumerate(reversed(range(len(vals)))):
        lam = vals[i]
        v_fl = _one_eigenvector(bsc, scale_pow, lam, g5, sep / 10, vec_eps,
                                derive_rng(rng, "vec", i))
        if v_fl is None:
            raise ResultCountMismatch(f"no eigenvector for eigenvalue {i}")
        uvec = [fixed_from_fraction(x.to_fraction(), out_bits) for x in v_fl]
        if idx >= m:
            yield uvec, None, None
            continue
        lam_frac = lam / (1 << (2 * t))      # eigenvalue of A A^T + eps0
        sig_sq = lam_frac - eps0_eff
        if sig_sq <= 0:
            yield uvec, fl_zero(L), [FixedL(0, out_bits)] * m
            continue
        sigma = fl_sqrt(fl_from_bigratio(sig_sq.numerator, sig_sq.denominator, L))
        atu = a.apply_transpose_int([x.to_fraction() for x in v_fl])
        inv_sigma = fl_recip(sigma)
        vvec = [fl_mul(fl_from_bigratio(x.numerator, x.denominator, L), inv_sigma)
                for x in atu]
        yield uvec, sigma, [fixed_from_fraction(x.to_fraction(), out_bits)
                            for x in vvec]

