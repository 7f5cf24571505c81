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
default is a = (0, 1, ..., #E - 1), whose small pairings keep the sum's
integers small. The denominator contributes exactly eps^n times a unit, so
each term is an exact Laurent series with a pole of order at most n; the
poles cancel in the sum, which the code asserts slot by slot, and the
eps^0 coefficient is the integer answer. Series stop at eps^n (L = n + 1
slots), the last slot that is read.

The sum over the n! orderings is a dynamic program over prefix states, in
integers, in the manner of Bellman and Held-Karp:

  * at an ordering w the summand is one factor 1/u_tau per consecutive
    pair times a fiber numerator that depends only on the step set S
    (always a basis), and whether an element is a rank step depends only
    on the prefix *set* before it. So orderings that reach the same state
    (prefix set, last element, step set so far) are merged by adding their
    series, and each layer extends every state by one element;
  * the rank of every prefix set is read from a cache filled by one subset
    walk over the push/pop oracle of Matroid.incremental_rank();
  * merged paths have different tangent products, so the sum runs in eta
    with eps = T eta, T the lcm of the |a_i - a_j|: each edge factor
    1/(eps u_tau) is eta^-1 T^-2 W_tau, where the integer series W_tau =
    T / u_tau(T eta) follows one exact recurrence per pairing tau (which
    divides T), and each fiber numerator (1+eps)^c is (1 + T eta)^c;
  * the last layer is grouped by step set, and the fiber numerator of a
    cell (p, q) is built once per basis and multiplied into its group.

The substitution keeps the constant term, so the total's eta^0 slot is
T^(2#E-2) times the table entry: its pole slots must be 0 and its eta^0
slot a multiple of that scale. On a 2-core box (Python 3.11) the Fano
table merges its 5,040 orderings into 1,134 states and takes about 0.02 s
in process, and M(K5) (3,628,800 orderings) about 0.9 s with no integer
above 212 bits. The route that inverted one Fraction series per fixed
point took about 32 s on Fano; it is kept in the tests as the oracle.
"""
from __future__ import annotations

from math import lcm

from .errors import InternalInvariantViolation, InvalidInput, TooLarge
from .matroids import Matroid
from .series import TruncatedSeries

FIBER_SIGN = -1
TANGENT_SIGN = 1
DEFAULT_MAX_POINTS = 5040  # 7! -- up to seven ground elements by default


def _resolve_one_ps(M, one_ps):
    n1 = M.size
    if one_ps is None:
        return tuple(range(n1))
    a = tuple(one_ps)
    if len(a) != n1 or not all(isinstance(x, int) and not isinstance(x, bool) for x in a):
        raise InvalidInput(f"one_ps must be {n1} integers")
    if len(set(a)) != len(a):
        raise InvalidInput("one_ps is not generic: coordinates must be pairwise distinct")
    return a


def _pair_lcm(a):
    """T = lcm over i < j of |a_i - a_j|: every tangent pairing divides it."""
    return lcm(*(abs(x - y) for i, x in enumerate(a) for y in a[i + 1:]))


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


def _accumulate_points(M, a, L):
    """Sum the localization series over all orderings of the ground set, by
    dynamic programming over their prefix states.

    Returns the whole table at once: entry [p][q] is L integers, the sum of
    cell (p, q) in eta = eps / T (T from _pair_lcm) times T^(2#E-2), slot j
    holding the eta^(j - n) coefficient. The weights `a` are indexed by
    position in M.elements; prefix and step sets are bitmasks over element
    labels.
    """
    elements = M.elements
    weight = dict(zip(elements, a))
    bit = {e: 1 << e for e in elements}

    # rank of every prefix set, from one subset walk over the push/pop oracle
    rank = {0: 0}
    inc = M.incremental_rank()

    def fill(mask, rk, rest):
        for i, e in enumerate(rest):
            sub = mask | bit[e]
            rank[sub] = r = rk + inc.push(e)
            fill(sub, r, rest[i + 1:])
            inc.pop()

    fill(0, 0, elements)

    # W_tau = T / u_tau(T eta) for u_tau = (1 - (1+eps)^-tau) / eps = sum u_k
    # eps^k: W_0 = T / tau, W_k = -sum_i u_i (T^i / tau) W_(k-i), all integers
    t = _pair_lcm(a)
    series = {}
    edge = {}
    for x in elements:
        for y in elements:
            if x == y:
                continue
            tau = TANGENT_SIGN * (weight[x] - weight[y])
            s = series.get(tau)
            if s is None:
                if tau == 0 or t % tau:
                    raise InternalInvariantViolation(f"tangent pairing {tau} does not divide T = {t}")
                u = [-c for c in TruncatedSeries.one_plus_eps_power(-tau, L + 1).coeffs[1:]]
                w = [t // tau]
                for k in range(1, L):
                    w.append(-sum(u[i] * (t**i // tau) * w[k - i] for i in range(1, k + 1)))
                s = series[tau] = TruncatedSeries(w, L)
            edge[x, y] = s

    # states (prefix set, last element, step set) -> the sum of the W_tau
    # products over the orderings of the prefix set that end in that element
    one = TruncatedSeries([1], L)
    layer = {(bit[e], e, bit[e] if rank[bit[e]] else 0): one for e in elements}
    for _ in range(M.size - 1):
        merged = {}
        for (prefix, last, steps), s in layer.items():
            rk = rank[prefix]
            for e in elements:
                if prefix & bit[e]:
                    continue
                sub = prefix | bit[e]
                key = (sub, e, steps | bit[e] if rank[sub] > rk else steps)
                prod = s * edge[last, e]
                acc = merged.get(key)
                merged[key] = prod if acc is None else acc + prod
        layer = merged

    by_basis = {}  # bitmask of the step set S (always a basis) -> its series
    for (_, _, steps), s in layer.items():
        acc = by_basis.get(steps)
        by_basis[steps] = s if acc is None else acc + s
    if any(steps.bit_count() != M.r for steps in by_basis):
        raise InternalInvariantViolation("rank steps do not match the rank")

    # (1 + eps)^c = (1 + T eta)^c: slot j of a numerator gains the factor T^j
    powers, tpow = {}, [t**j for j in range(L)]

    def pw(c):
        s = powers.get(c)
        if s is None:
            s = powers[c] = TruncatedSeries.one_plus_eps_power(c, L).coeffs
        return s

    r, m = M.r, M.size - M.r
    total = [[[0] * L for _ in range(m + 1)] for _ in range(r + 1)]
    for mask, acc in by_basis.items():
        spolys = _subset_sum_polys([FIBER_SIGN * weight[e] for e in elements if mask >> e & 1], r)
        qpolys = _subset_sum_polys([FIBER_SIGN * weight[e] for e in elements if not mask >> e & 1], m)
        for spoly, row in zip(spolys, total):
            for qpoly, slot in zip(qpolys, row):
                numer = [0] * L
                for e1, c1 in spoly.items():
                    for e2, c2 in qpoly.items():
                        cnt = c1 * c2
                        for j, c in enumerate(pw(e1 + e2)):
                            numer[j] += cnt * c
                numer = TruncatedSeries([c * tp for c, tp in zip(numer, tpow)], L)
                for j, c in enumerate((numer * acc).coeffs):
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


def _euler_table(M, one_ps, max_points):
    """The table from one pass over the prefix states, each cell checked by
    _extract_integer."""
    a = _resolve_one_ps(M, one_ps)
    npoints = 1  # #E!, stopped at the first partial product over the budget
    for i in range(2, M.size + 1):
        if npoints > max_points:
            raise TooLarge(f"at least {npoints} fixed points exceed the budget of {max_points}")
        npoints *= i
    if npoints > max_points:
        raise TooLarge(f"{npoints} fixed points exceed the budget of {max_points}")
    L = M.size  # slots eta^(-n) .. eta^0 with n = #E - 1
    scale = _pair_lcm(a) ** (2 * M.size - 2)
    return [
        [_extract_integer((p, q), coeffs, L - 1, scale) for q, coeffs in enumerate(row)]
        for p, row in enumerate(_accumulate_points(M, a, L))
    ]


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
        table = _euler_table(M, None, DEFAULT_MAX_POINTS)
        if table != want:
            raise InternalInvariantViolation(
                f"sign calibration failed: got {table}, expected {want}"
            )
    _calibrated = True
    return (FIBER_SIGN, TANGENT_SIGN)


def euler_table(M: Matroid, one_ps=None, max_points=DEFAULT_MAX_POINTS):
    """The full (r+1) x (#E-r+1) table of localization sums.

    Independent of the choice of generic one_ps (tests exercise several).
    It equals the h-polynomial coefficient table: the euler-table command
    checks that before output, and verify_corpus compares the table with
    its frozen value.
    """
    calibrate_signs()
    return _euler_table(M, one_ps, max_points)
