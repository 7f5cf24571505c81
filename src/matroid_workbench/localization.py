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
  * the last layer is grouped by step set S, and the numerators of all
    cells of S come at once from the elementary symmetric functions of
    z_x = (1 + T eta)^(FIBER_SIGN a_x) over S (degree p) and over E - S
    (degree q).

Every series is one packed integer sum_j c_j 2^(B j) (Kronecker
substitution): a product is one multiply, a mask to L B bits and a sign
fix, and a merge is one add (a state adds its raw products and masks
once). This is exact as long as every slot of every series is below
2^(B-1) in absolute value: the truncated product then lies within
+-2^(LB-1), which the sign fix recovers, and its slots are its balanced
base-2^B digits. So B is 1 (the sign) plus the bit length of a bound
proved for each input, never a constant. Let w_j = max_tau |W_tau[j]|. A
state of s elements has at most s - 1 sources, so its slots are bounded by
Bnd_s, where Bnd_1 = (1, 0, ...) and Bnd_s[j] = (s-1) sum_i Bnd_(s-1)[i]
w_(j-i); a per-basis sum merges at most #E last states, so #E Bnd_#E
bounds it and, as Bnd_s grows with s (w_0 = T/|tau| >= 1), every state
too. The dynamic program runs at that width; the per-basis sums are then
unpacked, exactly, and the numerators run at a second width. The exponent
of a product of z_x lies in [lo, hi], the sums of the negative and of the
positive FIBER_SIGN a_x, and |binomial(c, j)| on an interval peaks at an
end, so every elementary symmetric function has slots at most
N_j = C(r, r//2) C(#E-r, (#E-r)//2) T^j max(|binomial(lo, j)|,
|binomial(hi, j)|), and every cell product and total at most
(#bases) sum_i N_i A_(j-i), A_j the largest slot j of the per-basis sums.
M(K5) runs at 240 and 248 bits, its largest slot 231 bits; the Fano
plane at 91 and 98 bits, its largest slot 87. Widths of 87 bits on Fano
wrap two cell products, and _extract_integer stops the table.

The substitution keeps the constant term, so the total's eta^0 slot is
T^(2#E-2) times the table entry: its pole slots must be 0 and its eta^0
slot a multiple of that scale. On a 2-core box (Python 3.11) the Fano
table merges its 5,040 orderings into 1,134 states and takes about 2 ms
in process, and M(K5) (3,628,800 orderings) about 0.27 s; with a list of
slots per series, multiplied slot by slot, they took 12 ms and 0.68 s (the
tests keep that sum as the slot-for-slot oracle). The route that inverted
one Fraction series per fixed point took about 32 s on Fano; the tests
keep it as the per-point oracle. Large pairings reverse the gain: slot j
grows like (T tau)^j, so the low slots are mostly padding. On Fano with
one_ps (0, 1, 8, ..., 8^5) the widths are 621 and 595 bits and the table
takes about 27 ms (18 ms slot by slot), and with seven integers from
+-10,000 (T of 204 bits) 2,478 bits and about 205 ms (49 ms).
"""
from __future__ import annotations

from math import comb, lcm

from .errors import InternalInvariantViolation, InvalidInput, TooLarge, require_int
from .matroids import Matroid, require_matroid

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


def _binomials(c, L):
    """binomial(c, j) for j < L, the slots of (1 + eps)^c, for any integer c."""
    out = [1]
    for j in range(1, L):
        out.append(out[-1] * (c - j + 1) // j)
    return out


def _convolve(x, y):
    """The first len(x) slots of the product of two slot lists."""
    return [sum(x[i] * y[j - i] for i in range(j + 1)) for j in range(len(x))]


def _slot_width(*bounds):
    """Bits per packed slot: the sign plus the bit length of the largest
    slot bound."""
    return 1 + max(c.bit_length() for bound in bounds for c in bound)


def _pack(coeffs, B):
    """The packed series sum_j coeffs[j] 2^(B j)."""
    return sum(c << (B * j) for j, c in enumerate(coeffs))


def _unpack(v, B, L):
    """The L slots of a packed series: balanced base-2^B digits, the top
    slot taking the rest."""
    mask, half, out = (1 << B) - 1, 1 << (B - 1), []
    for _ in range(L - 1):
        c = ((v + half) & mask) - half
        out.append(c)
        v = (v - c) >> B
    out.append(v)
    return out


def _accumulate_points(M, a, L):
    """Sum the localization series over all orderings of the ground set, by
    dynamic programming over their prefix states, on packed integers.

    Returns the whole table at once: entry [p][q] is L integers, the sum of
    cell (p, q) in eta = eps / T (T from _pair_lcm) times T^(2#E-2), slot j
    holding the eta^(j - n) coefficient. The weights `a` are indexed by
    position in M.elements; prefix and step sets are bitmasks over element
    labels.
    """
    elements = M.elements
    weight = dict(zip(elements, a))
    bit = {e: 1 << e for e in elements}
    n, r = M.size, M.r

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
    for x in a:
        for y in a:
            tau = TANGENT_SIGN * (x - y)
            if tau == 0 or tau in series:
                continue
            if t % tau:
                raise InternalInvariantViolation(f"tangent pairing {tau} does not divide T = {t}")
            u = [-c for c in _binomials(-tau, L + 1)[1:]]
            w = [t // tau]
            for k in range(1, L):
                w.append(-sum(u[i] * (t**i // tau) * w[k - i] for i in range(1, k + 1)))
            series[tau] = w

    # the width of the dynamic program, from #E Bnd_#E (module docstring)
    bound = [1] + [0] * (L - 1)
    wmax = [max((abs(w[j]) for w in series.values()), default=0) for j in range(L)]
    for s in range(2, n + 1):
        bound = [(s - 1) * c for c in _convolve(bound, wmax)]
    B = _slot_width([n * c for c in bound])
    mask, half = (1 << (B * L)) - 1, 1 << (B * L - 1)
    packed = {tau: _pack(w, B) for tau, w in series.items()}
    edges = {
        x: [(y, bit[y], packed[TANGENT_SIGN * (weight[x] - weight[y])]) for y in elements if y != x]
        for x in elements
    }

    # states (prefix set, last element, step set) -> the sum of the W_tau
    # products over the orderings of the prefix set that end in that element
    layer = {(bit[e], e, bit[e] if rank[bit[e]] else 0): 1 for e in elements}
    for _ in range(n - 1):
        merged = {}
        get = merged.get
        for (prefix, last, steps), s in layer.items():
            rk = rank[prefix]
            for e, b, w in edges[last]:
                if prefix & b:
                    continue
                sub = prefix | b
                key = (sub, e, steps | b if rank[sub] > rk else steps)
                merged[key] = get(key, 0) + s * w
        layer = {key: ((v + half) & mask) - half for key, v in merged.items()}

    by_basis = {}  # bitmask of the step set S (always a basis) -> its series
    for (_, _, steps), s in layer.items():
        by_basis[steps] = by_basis.get(steps, 0) + s
    if any(steps.bit_count() != r for steps in by_basis):
        raise InternalInvariantViolation("rank steps do not match the rank")
    by_basis = {steps: _unpack(s, B, L) for steps, s in by_basis.items()}

    # the numerators, (1 + eps)^c = (1 + T eta)^c: slot j gains the factor T^j
    m = n - r
    fiber = {e: FIBER_SIGN * weight[e] for e in elements}
    lo, hi = sum(min(0, f) for f in fiber.values()), sum(max(0, f) for f in fiber.values())
    ends = zip(_binomials(lo, L), _binomials(hi, L))
    numer = [comb(r, r // 2) * comb(m, m // 2) * t**j * max(abs(x), abs(y)) for j, (x, y) in enumerate(ends)]
    # the width of the numerator phase, from N and (#bases) sum_i N_i A_(j-i)
    largest = [max(abs(s[j]) for s in by_basis.values()) for j in range(L)]
    B = _slot_width(numer, [len(by_basis) * c for c in _convolve(numer, largest)])
    mask, half = (1 << (B * L)) - 1, 1 << (B * L - 1)

    def mul(x, y):
        return ((x * y + half) & mask) - half

    z = {e: _pack([c * t**j for j, c in enumerate(_binomials(f, L))], B) for e, f in fiber.items()}

    def symmetric(xs):
        """Packed elementary symmetric functions e_0..e_k of z_x, x in xs."""
        es = [1]
        for x in xs:
            es = [es[0], *(p + mul(q, z[x]) for p, q in zip(es[1:], es)), mul(es[-1], z[x])]
        return es

    total = [[0] * (m + 1) for _ in range(r + 1)]
    for steps, s in by_basis.items():
        s = _pack(s, B)
        qs = symmetric([e for e in elements if not steps >> e & 1])
        for p, ps in enumerate(symmetric([e for e in elements if steps >> e & 1])):
            ps, row = mul(ps, s), total[p]
            for q, x in enumerate(qs):
                row[q] += mul(ps, x)
    return [[_unpack(v, B, L) for v in row] for row in total]


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
    from .matroids import uniform

    checks = [(uniform(1, 2), [[1, 2], [0, 1]]), (uniform(2, 2), [[1], [2], [1]])]
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
    require_matroid(M)
    require_int(max_points, "max_points")
    calibrate_signs()
    return _euler_table(M, one_ps, max_points)
