"""Euler characteristic tables by torus fixed-point localization.

The fixed points are indexed by the (n+1)! orderings w of the ground set.
Walking w and recording where the rank jumps splits the positions into r
"step" elements and m = #E - r non-steps; the step elements carry the
fiber characters of one tautological bundle, the non-steps the other, and
the tangent characters at w are the consecutive differences e_{w_i} -
e_{w_{i+1}}.

Sign convention: fiber characters enter with FIBER_SIGN, tangent characters
with TANGENT_SIGN. The pair below is pinned by calibrate_signs(), which
recomputes two tiny tables from scratch and compares against closed forms;
mixing the two signs differently transposes/breaks those tables. (Negating
both simultaneously evaluates the same Laurent polynomial at z^-1 and is
observationally identical at z = 1.)

Each summand is evaluated on the one-parameter subgroup z = (1+eps)^a for a
generic integer vector a (generic = pairwise distinct coordinates, which
makes every tangent pairing nonzero). The table does not depend on a; the
default is a = (0, 1, ..., #E - 1), whose small pairings keep the walk's
integers small. The denominator contributes exactly eps^n times a unit, so
each term is an exact Laurent series with a pole of order at most n; the
poles cancel in the sum, which the code asserts slot by slot, and the
eps^0 coefficient is the integer answer. Series stop at eps^n (L = n + 1
slots), the last slot that is read.

The sum is one depth-first walk, in integers, over the orderings that
start at each element in turn:

  * every push into the rank oracle of Matroid.incremental_rank() and
    every running product of tangent-unit inverses is shared by all
    orderings with the same prefix; each inverse 1/u_tau is
    scaled by tau^L into an integer series, once per tangent pairing tau;
  * the n tangent pairs of one ordering are distinct pairs of coordinates,
    so their product divides D = prod_{i<j} |a_i - a_j|, and D^L / prod u
    is an integer series; the walk adds it into one accumulator per step
    set S (always a basis);
  * the fiber numerator of a cell (p, q) depends only on S, so it is built
    once per basis and multiplied into that basis's accumulator.

The total is D^L times the sum: its pole slots must be 0 and its eps^0 slot
a multiple of D^L. On a 2-core box (Python 3.11) the Fano table takes about
0.15 s in process against about 32 s for the earlier route, which inverted
one Fraction series per fixed point; that route is kept in the tests as the
oracle.
"""
from __future__ import annotations

from math import factorial

from .errors import InternalInvariantViolation, InvalidInput, TooLarge
from .matroids import Matroid
from .series import TruncatedSeries

FIBER_SIGN = -1
TANGENT_SIGN = 1
DEFAULT_MAX_POINTS = 5040  # 7! -- up to seven ground elements by default


class FixedPointData:
    """Characters at one fixed point: fiber (S and Q sides) and tangent."""

    __slots__ = ("order", "steps", "s_chars", "q_chars", "tangent_chars")

    def __init__(self, order, steps, s_chars, q_chars, tangent_chars):
        self.order = order
        self.steps = steps
        self.s_chars = s_chars
        self.q_chars = q_chars
        self.tangent_chars = tangent_chars


def fixed_point_data(M: Matroid, w) -> FixedPointData:
    """Characters at the fixed point labeled by the ordering w.

    w must be a permutation of the ground set. Characters are integer
    vectors indexed by the positions of the elements in M.elements, which
    is also how a one-parameter subgroup is indexed.
    """
    w = tuple(w)
    if sorted(w) != sorted(M.elements):
        raise InvalidInput(f"{w} is not an ordering of the ground set")
    n1 = len(w)
    pos = {e: i for i, e in enumerate(M.elements)}
    inc = M.incremental_rank()
    steps = [bool(inc.push(e)) for e in w]

    def unit(e, sign):
        v = [0] * n1
        v[pos[e]] = sign
        return tuple(v)

    s_chars = [unit(e, FIBER_SIGN) for e, st in zip(w, steps) if st]
    q_chars = [unit(e, FIBER_SIGN) for e, st in zip(w, steps) if not st]
    tangent = []
    for i in range(n1 - 1):
        v = [0] * n1
        v[pos[w[i]]] = TANGENT_SIGN
        v[pos[w[i + 1]]] = -TANGENT_SIGN
        tangent.append(tuple(v))
    if len(s_chars) != M.r or len(q_chars) != M.size - M.r:
        raise InternalInvariantViolation("rank steps do not match the rank")
    return FixedPointData(w, steps, s_chars, q_chars, tangent)


def generic_one_ps(count):
    """The default weight vector (0, 1, ..., count - 1): generic, with the
    smallest tangent pairings."""
    return tuple(range(count))


def _unit_series(tau, order):
    """(1 - (1+eps)^(-tau)) / eps: an invertible series when tau != 0."""
    pw = TruncatedSeries.one_plus_eps_power(-tau, order + 1)
    return TruncatedSeries([-c for c in pw.coeffs[1:]], order)


def _resolve_one_ps(M, one_ps):
    n1 = M.size
    if one_ps is None:
        return generic_one_ps(n1)
    a = tuple(one_ps)
    if len(a) != n1 or not all(isinstance(x, int) and not isinstance(x, bool) for x in a):
        raise InvalidInput(f"one_ps must be {n1} integers")
    if len(set(a)) != len(a):
        raise InvalidInput("one_ps is not generic: coordinates must be pairwise distinct")
    return a


def _pair_product(a):
    """D = prod over i < j of |a_i - a_j|, a common multiple of every
    fixed point's tangent product."""
    d = 1
    for i, x in enumerate(a):
        for y in a[i + 1:]:
            d *= abs(x - y)
    return d


def _subset_sum_polys(exps, upto):
    """polys[d] = {sum: multiplicity} over d-subsets of exps, d = 0..upto."""
    polys = [dict() for _ in range(upto + 1)]
    polys[0][0] = 1
    for x in exps:
        for d in range(min(upto, len(polys) - 1) - 1, -1, -1):
            tgt = polys[d + 1]
            for e, c in polys[d].items():
                tgt[e + x] = tgt.get(e + x, 0) + c
    return polys


def _accumulate_points(M, a, cells, L):
    """Sum the localization series over all orderings of the ground set, by
    a depth-first walk over their prefixes.

    Returns {cell: L integers}: D^L (see _pair_product) times the sum, slot
    j holding the eps^(j - n) coefficient. The weights `a` are indexed by
    position in M.elements; step sets are bitmasks over element labels.
    """
    elements = M.elements
    weight = dict(zip(elements, a))
    inverses = {}
    by_basis = {}  # bitmask of the step set S -> integer series coefficients
    inc = M.incremental_rank()

    def scaled_inverse(tau):
        """tau^L / u_tau, an integer series: 1/u_tau has slot k in tau^-(k+1) Z."""
        s = inverses.get(tau)
        if s is None:
            if tau == 0:
                raise InternalInvariantViolation("zero tangent pairing on a generic 1-PS")
            scale = tau**L
            coeffs = [c * scale for c in _unit_series(tau, L).inverse().coeffs]
            if any(c.denominator != 1 for c in coeffs):
                raise InternalInvariantViolation(f"tau^L / u_tau is not integral at tau = {tau}")
            s = inverses[tau] = TruncatedSeries([int(c) for c in coeffs], L)
        return s

    def walk(last, rest, prod, quot, mask):
        # prod = prod_tau tau^L / u_tau and quot = D / prod_tau tau over the
        # tangent pairs of the prefix; mask = its rank steps
        if not rest:
            if mask.bit_count() != M.r:
                raise InternalInvariantViolation("rank steps do not match the rank")
            acc = by_basis.get(mask)
            if acc is None:
                acc = by_basis[mask] = [0] * L
            scale = quot**L
            for j, c in enumerate(prod.coeffs):
                acc[j] += scale * c
            return
        for i, e in enumerate(rest):
            tau = TANGENT_SIGN * (weight[last] - weight[e])
            step = inc.push(e)
            walk(e, rest[:i] + rest[i + 1:], prod * scaled_inverse(tau), quot // tau,
                 mask | (1 << e) if step else mask)
            inc.pop()

    one = TruncatedSeries([1], L)
    d = _pair_product(a)
    for root in elements:
        step = inc.push(root)
        walk(root, tuple(e for e in elements if e != root), one, d, (1 << root) if step else 0)
        inc.pop()

    powers = {}

    def pw(c):
        s = powers.get(c)
        if s is None:
            s = powers[c] = TruncatedSeries.one_plus_eps_power(c, L)
        return s

    r, m = M.r, M.size - M.r
    total = {cell: [0] * L for cell in cells}
    for mask, acc in by_basis.items():
        acc = TruncatedSeries(acc, L)
        spolys = _subset_sum_polys([FIBER_SIGN * weight[e] for e in elements if mask >> e & 1], r)
        qpolys = _subset_sum_polys([FIBER_SIGN * weight[e] for e in elements if not mask >> e & 1], m)
        for p, q in cells:
            numer = [0] * L
            for e1, c1 in spolys[p].items():
                for e2, c2 in qpolys[q].items():
                    cnt = c1 * c2
                    for j, c in enumerate(pw(e1 + e2).coeffs):
                        numer[j] += cnt * c
            slot = total[(p, q)]
            for j, c in enumerate((TruncatedSeries(numer, L) * acc).coeffs):
                slot[j] += c
    return total


def _extract_integer(cell, coeffs, n, scale):
    """The eps^0 slot over `scale`, after checking that every pole slot is 0."""
    for j in range(n):
        if coeffs[j] != 0:
            raise InternalInvariantViolation(
                f"cell {cell}: residual pole eps^{j - n} with coefficient {coeffs[j]}"
            )
    val, rem = divmod(coeffs[n], scale)
    if rem:
        raise InternalInvariantViolation(f"cell {cell}: non-integer value {coeffs[n]}/{scale}")
    return val


def _euler_cells(M, cells, one_ps, max_points):
    a = _resolve_one_ps(M, one_ps)
    n1 = M.size
    n = n1 - 1
    npoints = factorial(n1)
    if npoints > max_points:
        raise TooLarge(
            f"{npoints} fixed points exceed the budget of {max_points}; "
            "raise max_points to force the computation"
        )
    L = n + 1
    total = _accumulate_points(M, a, cells, L)
    scale = _pair_product(a) ** L
    return {cell: _extract_integer(cell, total[cell], n, scale) for cell in cells}


_calibrated = False


def calibrate_signs():
    """Verify the pinned sign convention on two closed-form tables.

    U_{1,2}: [[1, 2], [0, 1]]. Boolean rank 2: [[1], [2], [1]]. Any sign
    pair other than the pinned one and its global negation gets at least
    one of these wrong.
    """
    global _calibrated
    if _calibrated:
        return (FIBER_SIGN, TANGENT_SIGN)
    from .matroids import from_matrix
    from .fields import QQ

    checks = [
        (from_matrix(QQ, [[1, 1]]), [[1, 2], [0, 1]]),
        (from_matrix(QQ, [[1, 0], [0, 1]]), [[1], [2], [1]]),
    ]
    for M, want in checks:
        cells = [(p, q) for p in range(M.r + 1) for q in range(M.size - M.r + 1)]
        got = _euler_cells(M, cells, None, DEFAULT_MAX_POINTS)
        table = [
            [got[(p, q)] for q in range(M.size - M.r + 1)] for p in range(M.r + 1)
        ]
        if table != want:
            raise InternalInvariantViolation(
                f"sign calibration failed: got {table}, expected {want}"
            )
    _calibrated = True
    return (FIBER_SIGN, TANGENT_SIGN)


def euler_char(M: Matroid, p, q, one_ps=None, max_points=DEFAULT_MAX_POINTS) -> int:
    """One localization sum: the (p, q) entry of the Euler table."""
    if not isinstance(p, int) or not isinstance(q, int) or p < 0 or q < 0:
        raise InvalidInput("p and q must be nonnegative integers")
    if p > M.r or q > M.size - M.r:
        return 0
    calibrate_signs()
    return _euler_cells(M, [(p, q)], one_ps, max_points)[(p, q)]


def euler_table(M: Matroid, one_ps=None, max_points=DEFAULT_MAX_POINTS):
    """The full (r+1) x (#E-r+1) table of localization sums.

    Independent of the choice of generic one_ps (tests exercise several);
    equals the h-polynomial coefficient table, which is the cross-check
    used by verify_corpus.
    """
    calibrate_signs()
    cells = [(p, q) for p in range(M.r + 1) for q in range(M.size - M.r + 1)]
    got = _euler_cells(M, cells, one_ps, max_points)
    return [[got[(p, q)] for q in range(M.size - M.r + 1)] for p in range(M.r + 1)]
