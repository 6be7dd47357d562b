"""Eigenvalues, eigenvectors and SVD on top of the rational solver.

Everything is kept on dyadic grids so that interval halving, shifts and
scaling are exact: a symmetric integer matrix A is perturbed to
B = A + D with D a nonnegative diagonal of fixed points, 2^s B is the
composed operator diag(2^s) A + 2^s D over the input, never a copy of
it, and every quantity fed back into the solver is an integer again.
The pipeline:

  perturb_spectrum   random diagonal <= eps/2 separating the eigenvalues
  inverse power      lambda ~= max(delta, |lambda_min|) via repeated
                     entry-wise-approximate solves (detects singularity,
                     bails out early when the iterates blow up, stops on a
                     plateau or, given a decision threshold, as soon as the
                     never-rising estimate drops below it, capped at the
                     worst-case iteration count)
  shift_invert       is there an eigenvalue near the interval midpoint?
  spectrum           divide and conquer over [-2nU, 2nU], isolating at leaf
                     width a fraction of the separation, narrowing to eps/2
  eigendecompose     spectrum of B, then one gap-mode inverse power per
                     shifted matrix, streaming out one eigenpair at a time
  svd                eigendecomposition of 2^2t (A A^T + eps0 I); right
                     vectors come from the live left vector only

The spectrum tree runs on integer leaf-grid indices.  [-2nU, 2nU] is
cut into 2^depth leaves narrower than a fraction of the separation, and
s >= depth + 4, so grid point k is the integer shift m0 + k step of
2^s B, with m0 = -2nU 2^s and step = 4nU 2^(s - depth): an interval is a
pair of indices (ka, kb), its midpoint the index (ka + kb) / 2, and an
eigenvalue estimate the integer m0 + k step in units of 2^-s.

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
with no solves, by ITP steps on the values of f kept as 64-bit floats
(_narrow), to an aligned tree node: a leaf for eigendecompose and svd,
which keep its left end, and for spectrum the widest node no wider than
eps/2, whose midpoint is within eps/4 of B's eigenvalue.  Only exact
signs move a bracket, so the node found is the one sign bisection
reaches.  With fewer than n odd intervals, the widest are split once and
counted again.  A zero determinant means the point is an eigenvalue, exactly:
inside a one-eigenvalue interval it is reported and the narrowing stops;
elsewhere it is reported too, and its two neighbours get unknown parity;
such an interval holds the eigenvalue at its end, so it is split like an
odd-half one, until it is narrower than a leaf.  The leaves are disjoint by
construction and no eigenvalue is counted twice, so the count never
exceeds n.  spectrum's stats counts, per depth, the tree nodes the
search enters: each node split while isolating, and each node a
narrowing bracket enters.

The base may be a matrix or a black-box symmetric operator (the SVD path
passes its ridged, scaled Gram product); either way scaling and
shifting compose operators, so no routine copies its input and every
product reaches it through apply_int.  A shift at a split point folds
into the perturbation's SHIFT, so each shifted product is one SHIFT over
diag(2^s) times the base.  No operator keeps a reduced copy between
calls: a shifted operator's products mod p are its exact products
reduced.

One prime window serves a whole call.  Every operator a call builds is
2^s B - m I, with |m| at most M: the root interval's half-width 2nU 2^s,
plus, for the eigenvector shifts lambda_i + g5, the gap g5 <= sep/5 +
2^-s, so M = 2nU 2^s + ceil(sep 2^s).  The perturbation is nonnegative,
so the entry bound 2^s U + max |d_i - m| of 2^s B - m I is at most
2^s U + max d_i + M, its value at m = -M, and the window of 2^s B + M I
(``solver._prime_window``) starts at or above every node's own n^3 U.
Determinants and lifts need only primes at or above their operator's own
lower end, so 2^s B carries that window (``LinearOperator.window``), its
scalar shifts keep it, and all of them draw from it: one prime stream
per call (per attempt, when the perturbation is retried), instead of one
per power of two of n^3 U that the shifts reach.

One characteristic polynomial serves that window's first prime p.  Once
per attempt, one plain Wiedemann trial on 2^s B mod p, a second when the
first falls short, gives a recurrence; a monic factor of the minimal
polynomial of degree n is the characteristic polynomial chi, so degree n
certifies it, and 2^s B carries it (``LinearOperator.chi``).  Its trial
stream is derive_rng(p, "charpoly"), named by p alone, so no other
stream moves.  Each shift 2^s B - m I then has the characteristic
polynomial chi(X + m), which ``LinearOperator.shift`` carries and
``charpoly`` derives by Taylor shift: a determinant takes its residue at
p as (-1)^n chi(m), and a solver lifting with p starts from chi(X + m),
neither with a Wiedemann trial.  Residues mod p and solves mod p are
unique, so every output bit is the one the per-shift trials give.  With
no certificate after two trials, every shift runs its own trials, and a
shift whose determinant p divides lifts with the next prime, building
its recurrence itself.  chi, n + 1 words of p, is charged with 2^s B's
diagonals for the call.

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
from .meter import int_bits, intvec_bits
from .numeric import (
    FixedL,
    FloatL,
    FloatOverflow,
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
    fl_sqrt,
    fl_zero,
)
from .linop import LinearOperator, SparseMatrix
from .solver import (RationalSolver, _cramer_bound, _exponent_room,
                     _first_prime, _prime_window, derive_rng, determinant)
from .wiedemann import minimal_polynomial

YES, NO = "YES", "NO"


class ResultCountMismatch(RuntimeError):
    """The spectrum tree did not count exactly n eigenvalues.

    A short count means the perturbation left two eigenvalues in one leaf,
    or made one a multiple eigenvalue at a split point, on both attempts;
    the tree reports such a cluster once, never a wrong value."""


def _ceil_log2(q: Fraction) -> int:
    """The least k >= 0 with 2^k >= q, for q > 0."""
    return (math.ceil(q) - 1).bit_length()


@dataclass
class PerturbedMatrix:
    """B = base + diag(diag_scaled / 2**scale_pow), diagonal in [0, eps/2]."""

    base: object              # a symmetric operator, a SparseMatrix included
    diag_scaled: list
    scale_pow: int

    @property
    def n(self):
        return self.base.n

    def scaled(self, s: int):
        """2^s B for s >= scale_pow, as the operator SHIFT(DIAG_SCALE(base)):
        the base is read through its products only, never copied."""
        scaled = LinearOperator.diag_scale([1 << s] * self.n, self.base)
        shift = s - self.scale_pow
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


def _inverse_power(op_int, eps, delta: Fraction, rng, want_vector=False,
                   hint: Fraction | None = None, det: int | None = None):
    """Inverse power on the integer operator op_int; det = det(op_int)
    when the caller already has it.  The solves' accuracy and the
    iteration cap follow from eps: the cap is logarithmic in 1/eps in gap
    mode (want_vector), linear otherwise."""
    n = op_int.n
    solver_eps = min(2.0 ** -40, eps / 256)
    if want_vector:
        t_cap = min(600, math.ceil(12 * math.log(4 * n / min(0.5, eps))) + 24)
    else:
        t_cap = min(800, math.ceil(28 * math.log(16 * n / eps) / eps))
    plateau_eps = max(eps, 1e-9)
    with RationalSolver(op_int, solver_eps, derive_rng(rng, "solver"),
                        det=det) as solver:
        L = solver.L
        if solver.det == 0:
            return PowerResult(fl_zero(L), None)
        grid_bits = L + 6
        v_int = None
        while v_int is None:
            v_int = [round(rng.gauss(0.0, 1.0) * (1 << grid_bits))
                     for _ in range(n)]
            if not any(v_int):
                v_int = None
        history = []   # the last 10 estimates, all _plateaued reads
        lam = None
        v_fl = None
        thresh_sq = Fraction(2) / (delta * delta) if delta > 0 else None
        # Live at once: v_int and the next grid vector, within vmax, and
        # u = A^-1 v_int and the kept v, L-bit quotients s / det (L >= 42
        # needs no exponent room) with 1/2 <= |s| <= 2C, C the Cramer bound
        # at vmax, charged as the lift charges one accumulator
        vmax = max(1 << grid_bits, max(map(abs, v_int)))
        c = _cramer_bound(op_int, op_int.entry_bound, [vmax] * n)
        fl_bits = L + 1 + int_bits(int_bits(2 * c) + int_bits(solver.det) + L)
        held = 2 * n * (int_bits(vmax) + fl_bits)
        with meter.track("invpower.iterates", held):
            for _it in range(1, t_cap + 1):
                # u and v_int's norms share the scale 2^grid_bits, which
                # the ratio, the regrid and the unit vector all drop
                u_fl = solver.solve(v_int).x
                vnorm_sq = fl_from_int(sum(x * x for x in v_int), L)
                unorm_sq = _norm_sq(u_fl)
                if unorm_sq.is_zero():
                    return PowerResult(fl_zero(L), None)
                ratio_sq = fl_div(unorm_sq, vnorm_sq)
                if thresh_sq is not None and \
                        fl_cmp_fraction(ratio_sq, thresh_sq) != LESS:
                    lam = fl_from_bigratio(delta.numerator, delta.denominator, L)
                    return PowerResult(lam, _unitize(u_fl) if want_vector else None)
                lam = fl_recip(fl_sqrt(ratio_sq))
                if want_vector:
                    v_fl = u_fl
                history.append(lam)
                del history[:-10]
                # lam >= |lambda_min| and, by Cauchy-Schwarz, never rises
                # (|M^-1 v|^2 = <v, M^-2 v> <= |v| |M^-2 v|): below the
                # hint the caller's answer is already settled
                if hint is not None and fl_cmp_fraction(lam, hint) == LESS:
                    break
                if _plateaued(history, plateau_eps, hint):
                    break
                nxt = _regrid(u_fl, grid_bits)
                if nxt is None:
                    break
                v_int = nxt
        vec = _unitize(v_fl) if want_vector and v_fl is not None else None
        return PowerResult(lam, vec)


def inv_power_gap(a, eps: float, delta, rng=None):
    """(lambda, v): least-magnitude eigenvalue plus its eigenvector.

    The caller guarantees the 1.1x spectral gap; convergence is then
    geometric and the iteration count only logarithmic in the accuracy.
    """
    rng = rng if isinstance(rng, random.Random) else random.Random(rng or 0)
    res = _inverse_power(a, eps, Fraction(delta), rng, want_vector=True)
    return res.lam, res.vector


# -- divide and conquer over the spectrum ---------------------------------------


def shift_invert(b_scaled, scale_pow: int, lo: Fraction, hi: Fraction,
                 rng, det: int | None = None) -> str:
    """NO certifies (b/2^s) has no eigenvalue in [lo, hi]; YES places one
    within the interval widened by a quarter width on each side.  The
    midpoint must lie on the 2^-s grid.  det, when given, is
    det(b_scaled - mid 2^s I)."""
    mid = (lo + hi) / 2 * (1 << scale_pow)
    if mid.denominator != 1:
        raise ValueError("midpoint off the dyadic grid")
    delta_scaled = (hi - lo) / 2 * (1 << scale_pow)
    hint = Fraction(12, 10) * delta_scaled
    shifted = LinearOperator.shift(b_scaled, -mid.numerator)
    # the folded SHIFT holds its own n-entry diagonal
    with meter.track("spectrum.bmatrix", intvec_bits(shifted.diag)):
        res = _inverse_power(shifted, 0.1, delta_scaled, rng, hint=hint,
                             det=det)
    return YES if fl_cmp_fraction(res.lam, hint) == LESS else NO


def _narrow(f, ka: int, kb: int, f_lo: FloatL, f_hi: FloatL, leaves: int,
            g: int, stats=None):
    """(lo, lo + 2^g), the aligned node of 2^g leaves holding the one
    eigenvalue in (ka, kb), or (k, k) when f(k) is zero; a bracket inside
    such a node already is returned as it is.

    Grid points run from 0 to leaves = 2^depth, f(k) is the point's
    determinant rounded to 64 bits, and f_lo, f_hi are the values at ka
    and kb, of opposite signs; a root end (0 or leaves) carries its sign
    only.  ka and kb are multiples of 2^g, as a wider tree node's are.
    ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2020) on the multiples of
    2^g, widths exact: the regula-falsi point, moved toward the midpoint
    by (kb - ka)^2 / (2 w0), w0 the starting width, projected into the
    radius (reach - (kb - ka)) / 2 around it, rounded toward the midpoint
    and clamped one node inside the bracket; a root end takes the
    midpoint.  reach starts at 2^(g + n_max), n_max = ceil(log2(w0 / 2^g))
    + 2, and halves per step; no step leaves the bracket wider than the
    halved reach, so there are at most n_max evaluations.  N, the smallest
    aligned tree node holding the bracket, is counted in stats[depth of
    N] as the bracket enters it."""
    depth = leaves.bit_length() - 1
    unit, w0 = 1 << g, kb - ka
    reach = unit << (((w0 - 1) >> g).bit_length() + 2)
    node = None
    while kb - ka > unit:
        h = (ka ^ (kb - 1)).bit_length()      # N holds 2^h leaves
        if (h, ka >> h) != node:
            node = (h, ka >> h)
            if stats is not None:
                stats[depth - h] = stats.get(depth - h, 0) + 1
        x = mid = Fraction(ka + kb, 2)
        if ka != 0 and kb != leaves:
            w, a, b = kb - ka, _abs(f_lo), _abs(f_hi)
            x = ka + w * fl_div(a, fl_add_same_sign(a, b)).to_fraction()
            d = min(abs(mid - x) - Fraction(w * w, 2 * w0), Fraction(reach - w, 2))
            x = mid - max(0, d) if x < mid else mid + max(0, d)
        reach >>= 1
        k = (math.ceil(x / unit) if x < mid else math.floor(x / unit)) * unit
        k = min(max(k, ka + unit), kb - unit)
        fk = f(k)
        if fk.is_zero():
            return k, k
        if fk.sign() == f_lo.sign():
            ka, f_lo = k, fk
        else:
            kb, f_hi = k, fk
    return ka, kb


def _scaled_bits(b_scaled):
    """The bits 2^s B = SHIFT(DIAG_SCALE(base)) holds besides its input:
    two n-entry diagonals, DIAG_SCALE's 2^s and the shifted perturbation,
    and, once known, its characteristic polynomial, n + 1 words of p."""
    bits = intvec_bits(b_scaled.diag) + intvec_bits(b_scaled.base.diag)
    if b_scaled.chi is not None:
        p, g, _ = b_scaled.chi
        bits += len(g) * (p.bit_length() + 1)
    return bits


def _certify_charpoly(b_scaled):
    """Gives 2^s B its characteristic polynomial mod p, p the first prime
    of its window (``solver._prime_window``), when one of at most two
    plain Wiedemann trials reaches degree n: a monic factor of the
    minimal polynomial of degree n is the characteristic polynomial.  The
    trials' stream is named by p alone, so they take no draw from any
    other stream."""
    p = _first_prime(_prime_window(b_scaled))
    g = minimal_polynomial(b_scaled, p, boost=2,
                           rng=derive_rng(p, "charpoly"))
    if len(g) == b_scaled.n + 1:
        b_scaled.chi = (p, g, 0)


def _extract_eigs(b: PerturbedMatrix, u: int, leaf_width: Fraction,
                  pad: Fraction, rng, stop, stats=None):
    """Ascending eigenvalue estimates of B as integers in units of 2^-s,
    exactly n of them or fewer, with s and 2^s B.  2^s B carries the prime
    window of the call, that of shifts up to pad beyond the root interval,
    and its characteristic polynomial at the window's first prime when a
    trial certifies it (``_certify_charpoly``).  An isolated eigenvalue is
    reported by its leaf's left end if stop = 0, else by the midpoint of
    the widest node no wider than stop (_narrow).

    The root interval [-2nU, 2nU] (Gershgorin keeps every eigenvalue
    inside nU + eps/2) has 2^depth leaves, the fewest narrower than
    leaf_width.  An interval is (ka, kb, label, f(ka), f(kb)), ka and kb
    leaf-grid indices (module docstring) and f the determinant there
    rounded to 64 bits; the root's ends carry only their signs, + and
    (-1)^n, as they have 0 and n eigenvalues below them.  stats[d] counts
    the depth-d tree nodes entered (module docstring).
    """
    n = b.n
    nu = n * u
    depth = (4 * nu // leaf_width).bit_length()
    s = max(b.scale_pow, depth + 4)
    b_scaled = b.scaled(s)
    step, m0 = 4 * nu << (s - depth), -(2 * nu << s)
    g = max(1, int(stop * (1 << depth) / (4 * nu))).bit_length() - 1
    # the window of 2^s B + M I covers every shift's (module docstring)
    b_scaled.window = _prime_window(
        LinearOperator.shift(b_scaled, math.ceil(pad * (1 << s)) - m0))
    exact = []     # grid points that are eigenvalues, as shifts
    odd = []       # intervals holding an odd number of eigenvalues
    pending = []   # intervals of even or unknown count

    def det(k, *labels):
        """det(2^s B - (m0 + k step) I), exactly: negative exactly when an
        odd number of eigenvalues lie below grid point k, and zero exactly
        when it is one."""
        shifted = LinearOperator.shift(b_scaled, -(m0 + k * step))
        # the folded SHIFT holds its own n-entry diagonal
        with meter.track("spectrum.bmatrix", intvec_bits(shifted.diag)):
            return determinant(shifted, rng=derive_rng(rng, "det", *labels))

    def split(iv, f_mid):
        ka, kb, label, f_lo, f_hi = iv
        if stats is not None:
            d = depth + 1 - (kb - ka).bit_length()
            stats[d] = stats.get(d, 0) + 1
        k = (ka + kb) // 2
        if f_mid.is_zero():
            exact.append(m0 + k * step)
        return ((ka, k, 2 * label + 1, f_lo, f_mid),
                (k, kb, 2 * label + 2, f_mid, f_hi))

    def place(ivs):
        for iv in ivs:
            if iv[3].sign() * iv[4].sign() < 0:
                odd.append(iv)
            elif iv[1] - iv[0] > 1:
                pending.append(iv)
            # else: a leaf is narrower than the separation, so an even one
            # holds no eigenvalue and one of unknown parity only the
            # split-point eigenvalue at its end, already in `exact`

    with meter.track("spectrum.bmatrix", _scaled_bits(b_scaled)) as held:
        _certify_charpoly(b_scaled)
        held.resize(_scaled_bits(b_scaled))
        place([(0, 1 << depth, 0, fl_from_int(1, 64),
                fl_from_int((-1) ** n, 64))])
        # odd intervals and split-point eigenvalues are disjoint, each worth
        # at least one eigenvalue: n of them are worth one each, and every
        # interval still pending holds none
        while len(odd) + len(exact) < n:
            if pending:
                ka, kb, label, f_lo, f_hi = iv = pending.pop()
                # the node's stream is drawn before its determinant's,
                # whatever follows, so no later stream depends on which
                # nodes the determinant settles
                node_rng = derive_rng(rng, "node", label)
                d = det((ka + kb) // 2, label)
                f_mid = fl_from_int(d, 64)
                # an eigenvalue at an end or the midpoint, or an odd half,
                # lies in the interval, where shift_invert answers YES;
                # only two even halves need it
                if f_lo.sign() == f_mid.sign() == f_hi.sign() != 0 and \
                        shift_invert(b_scaled, s, Fraction(m0 + ka * step, 1 << s),
                                     Fraction(m0 + kb * step, 1 << s),
                                     node_rng, det=d) == NO:
                    continue
                place(split(iv, f_mid))
                continue
            widest = max((iv[1] - iv[0] for iv in odd), default=0)
            if widest <= 1:
                return sorted(exact), s, b_scaled
            chosen = [iv for iv in odd if iv[1] - iv[0] == widest]
            odd[:] = [iv for iv in odd if iv[1] - iv[0] != widest]
            for iv in chosen:
                place(split(iv, fl_from_int(det((iv[0] + iv[1]) // 2, iv[2]), 64)))
        if len(odd) + len(exact) > n:
            raise ResultCountMismatch(f"more than {n} eigenvalues counted")
        for ka, kb, _, f_lo, f_hi in odd:
            lo, hi = _narrow(lambda k: fl_from_int(det(k, "grid", k), 64),
                             ka, kb, f_lo, f_hi, 1 << depth, g, stats)
            exact.append(m0 + (lo + hi) * step // 2 if stop else m0 + lo * step)
    return sorted(exact), s, b_scaled


def _perturb_and_extract(a, eps: float, rng, leaf_div: int, stop=0, stats=None):
    """Shared front end of spectrum/eigendecompose/svd, with one retry on a
    fresh perturbation: 2^s B for B = a perturbed by at most eps/2, the
    eigenvalue estimates from tree leaves sep/leaf_div wide, narrowed to
    stop (_extract_eigs), s and sep.  2^s B carries the prime window of
    shifts up to sep beyond the root interval, which covers the
    eigenvector shifts' gap."""
    n, u = a.n, a.entry_bound
    sep = Fraction(eps) ** 2 / (4 * n ** 4 * u)  # separation after eps/2 perturb
    for attempt in range(2):
        b = perturb_spectrum(a, eps / 2, derive_rng(rng, "perturb", attempt))
        vals, scale_pow, b_scaled = _extract_eigs(
            b, u, sep / leaf_div, sep, derive_rng(rng, "tree", attempt),
            stop, stats)
        if len(vals) == n:
            return b_scaled, vals, scale_pow, sep
    raise ResultCountMismatch(f"expected {n} eigenvalues, got {len(vals)}")


def _check_input(a, eps):
    """A nonempty matrix and eps in (0, 1), as RationalSolver takes: the
    root interval and the perturbation's bounds assume both."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if a.n == 0:
        raise ValueError(f"needs a nonempty matrix, got a 0 x {a.m} matrix")


def spectrum(a: SparseMatrix, eps: float, rng=None, stats=None):
    """All eigenvalues of symmetric a to within +-eps, ascending FixedL list,
    each the midpoint of a node <= eps/2 wide holding one of B's."""
    _check_input(a, eps)
    if not a.is_symmetric():
        raise ValueError("spectrum needs a symmetric matrix")
    rng = rng if isinstance(rng, random.Random) else random.Random(rng or 0)
    _, vals, scale_pow, _ = _perturb_and_extract(
        a, eps, rng, 8, Fraction(eps) / 2, stats)
    return [FixedL(m, scale_pow) for m in vals]


def _out_bits(vec_eps: float) -> int:
    """Fixed-point bits for the entries of a unit vector computed to the
    target vec_eps: ceil(log2(4 / vec_eps)) + 6, at least 32.  Inverse
    power takes vec_eps as a double, dividing it by 256 and 4n by it:
    targets below 2^-1000 raise FloatOverflow."""
    if vec_eps < 2.0 ** -1000:
        raise FloatOverflow("eigenvector accuracy target below the double range")
    return max(32, math.ceil(math.log2(4 / vec_eps)) + 6)


def _eigenvectors(a, eps: float, vec_eps: float, rng, descending=False):
    """Yields (m_i, s, v_i) for B = a perturbed by at most eps/2,
    eigenvalues lambda_i = m_i 2^-s ascending or descending and v_i a unit
    FloatL eigenvector: one gap-mode inverse power against
    B - (lambda_i + g5) I, g5 the least point of the 2^-s grid >= sep/5,
    on the stream derive_rng(rng, "vec", i), drawn in the order the
    vectors are yielded, and on the prime window of the tree, which the
    shift keeps.  One vector is live at a time."""
    b_scaled, vals, scale_pow, sep = _perturb_and_extract(
        a, eps, rng, 16)
    g5 = math.ceil(sep / 5 * (1 << scale_pow))
    delta = sep / 10 * (1 << scale_pow)
    order = range(len(vals))
    with meter.track("spectrum.bmatrix", _scaled_bits(b_scaled)):
        for i in reversed(order) if descending else order:
            shifted = LinearOperator.shift(b_scaled, -(vals[i] + g5))
            with meter.track("spectrum.bmatrix", intvec_bits(shifted.diag)):
                _, v_fl = inv_power_gap(shifted, vec_eps, delta,
                                        derive_rng(rng, "vec", i))
            if v_fl is None:
                raise ResultCountMismatch(f"no eigenvector for eigenvalue {i}")
            yield vals[i], scale_pow, v_fl


def eigendecompose(a: SparseMatrix, eps: float, rng=None):
    """Yields n (lambda_i, v_i) pairs, eigenvalues ascending, one vector
    live at a time; |lambda_i(a) - lambda_i| <= eps, |v_i|^2 in [1 +- eps],
    |A v_i - lambda_i v_i| <= eps, pairwise inner products <= eps."""
    _check_input(a, eps)
    if isinstance(a, SparseMatrix) and not a.is_symmetric():
        raise ValueError("eigendecompose needs a symmetric matrix")
    rng = rng if isinstance(rng, random.Random) else random.Random(rng or 0)
    n, u = a.n, a.entry_bound
    vec_eps = float(Fraction(eps) / (60 * n * u)) ** 2
    out_bits = _out_bits(vec_eps)
    for lam, scale_pow, v_fl in _eigenvectors(a, eps, vec_eps, rng):
        vec = [fixed_from_fraction(x.to_fraction(), out_bits) for x in v_fl]
        yield FixedL(lam, scale_pow), vec


def svd(a: SparseMatrix, eps: float, rng=None):
    """Yields (u_i, sigma_i, v_i) with sigma descending for i < m, then the
    remaining null-direction columns of U as (u_i, None, None).

    sigma_i are FloatL; u_i, v_i are FixedL lists.  v_i = sigma^-1 A^T u_i
    is computed from the live u_i only.
    """
    _check_input(a, eps)
    n, m = a.n, a.m
    if n < m:
        raise ValueError("svd wants n >= m")
    rng = rng if isinstance(rng, random.Random) else random.Random(rng or 0)
    u_bound = a.entry_bound
    eps0 = Fraction(eps) / (60 * n * n * max(1, u_bound))
    t = _ceil_log2(Fraction(4) / eps0) // 2 + 2
    ridge = int(eps0 * (1 << (2 * t))) + 1
    gram = LinearOperator.shift(LinearOperator.diag_scale(
        [1 << (2 * t)] * n, LinearOperator.gram_t(a)), ridge)
    eps0_eff = Fraction(ridge, 1 << (2 * t))
    # targets on the scaled matrix: eigenvalues of 2^2t (A A^T + eps0 I),
    # eps0_eff / 10 = eps_scaled 2^-2t and vec_eps its square, built from
    # the small integer ridge so that no float holds 2^2t
    eps_scaled = ridge / 10
    vec_eps = math.ldexp(eps_scaled ** 2, -4 * t)
    out_bits = _out_bits(vec_eps)
    # sigma to eps absolute: its integer bits, eps's bits and 6 guard bits
    sig_bits = math.ceil(-math.log2(eps)) + 6
    # the two diagonals of the composed 2^2t A A^T + ridge I live for
    # the whole call
    with meter.track("spectrum.bmatrix", _scaled_bits(gram)):
        for idx, (lam, scale_pow, v_fl) in enumerate(
                _eigenvectors(gram, eps_scaled, vec_eps, rng, descending=True)):
            uvec = [fixed_from_fraction(x.to_fraction(), out_bits) for x in v_fl]
            if idx >= m:
                yield uvec, None, None
                continue
            # an eigenvalue of A A^T + eps0
            lam_frac = Fraction(lam, 1 << (scale_pow + 2 * t))
            sig_sq = lam_frac - eps0_eff
            if sig_sq <= 0:
                yield uvec, fl_zero(sig_bits), [FixedL(0, out_bits)] * m
                continue
            # with room for sig_sq's exponent, down to -(s + 2t)
            L = _exponent_room((_ceil_log2(sig_sq) + 1) // 2 + sig_bits,
                               scale_pow + 2 * t)
            num, den = sig_sq.numerator, sig_sq.denominator
            sigma = fl_sqrt(fl_from_bigratio(num, den, L))
            # v = A^T u / sigma, its entries within 1 in magnitude, to out_bits
            root = fl_sqrt(fl_from_bigratio(num, den, out_bits))
            atu = a.apply_transpose_int([x.to_fraction() for x in v_fl])
            vvec = [fl_div(fl_from_bigratio(x.numerator, x.denominator,
                                            out_bits), root) for x in atu]
            yield uvec, sigma, [fixed_from_fraction(x.to_fraction(), out_bits)
                                for x in vvec]
