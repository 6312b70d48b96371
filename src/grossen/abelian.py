"""Integer linear algebra for finite abelian groups.

Everything here works with plain Python ints and lists, exactly.  One Smith
elimination is the only diagonalization, and two results are read off it:

* Smith normal form with the inverse of its column transform, used to turn
  relation lattices into cyclic decompositions.
* Linear congruence systems A x = b (mod R), read off the Smith form of
  A mod R, whose elimination also carries the column transform and U*b.

The rest:

* Two-dimensional Hermite normal form, used for ideal lattices.
* A decomposition of a finite abelian group given by a black-box
  multiplication and a generating set, returning independent generators and
  their orders.  It keeps one table of the span, element -> mixed-radix code
  of its normal form over the relative orders, and reads each relation row
  off that table.  `extend_span` builds the exponent table of a span at
  absolute orders, one generator at a time, wherever a table of the whole
  span is needed.
"""

from __future__ import annotations

from math import gcd, prod
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

T = TypeVar("T", bound=Hashable)


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _smith(
    a: Sequence[Sequence[int]],
    rhs: Sequence[int],
) -> tuple[list[list[int]], list[list[int]], list[list[int]], list[int]]:
    """Return (D, W, V^T, U*b): D = U*A*V in Smith normal form, W = V^-1.

    U and V are unimodular; D is diagonal (rectangular allowed) with
    nonnegative entries and d_1 | d_2 | ...  U is not kept: each row
    operation on D is applied to b instead.  Each column operation on D is
    applied to the columns of V, kept as the rows of V^T, and the inverse
    row operation to W.
    """
    d = [list(row) for row in a]
    b = list(rhs)
    n = len(d)
    m = len(d[0]) if n else 0
    w = identity_matrix(m)
    vt = identity_matrix(m)

    def swap_cols(i: int, j: int) -> None:
        for row in d:
            row[i], row[j] = row[j], row[i]
        w[i], w[j] = w[j], w[i]
        vt[i], vt[j] = vt[j], vt[i]

    def add_row(dst: int, src: int, q: int) -> None:
        for j in range(m):
            d[dst][j] += q * d[src][j]
        b[dst] += q * b[src]

    def add_col(dst: int, src: int, q: int) -> None:
        for i in range(n):
            d[i][dst] += q * d[i][src]
        w[src] = [x - q * y for x, y in zip(w[src], w[dst])]
        vt[dst] = [x + q * y for x, y in zip(vt[dst], vt[src])]

    for t in range(min(n, m)):
        while True:
            # Move the smallest nonzero entry of the trailing block to (t, t).
            best = None
            for i in range(t, n):
                for j in range(t, m):
                    if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best[0] != t:
                d[t], d[best[0]] = d[best[0]], d[t]
                b[t], b[best[0]] = b[best[0]], b[t]
            if best[1] != t:
                swap_cols(t, best[1])
            clean = True
            for i in range(t + 1, n):
                if d[i][t] != 0:
                    add_row(i, t, -(d[i][t] // d[t][t]))
                    if d[i][t] != 0:
                        clean = False
            for j in range(t + 1, m):
                if d[t][j] != 0:
                    add_col(j, t, -(d[t][j] // d[t][t]))
                    if d[t][j] != 0:
                        clean = False
            if not clean:
                continue
            offender = None
            for i in range(t + 1, n):
                if any(d[i][j] % d[t][t] != 0 for j in range(t + 1, m)):
                    offender = i
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            b[t] = -b[t]
    return d, w, vt, b


def smith_normal_form(
    a: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]]]:
    """Return (D, W): D = U*A*V in Smith normal form and W = V^-1."""
    d, w, _, _ = _smith(a, [0] * len(a))
    return d, w


def hnf_2x2(rows: Iterable[tuple[int, int]]) -> tuple[int, int, int]:
    """Hermite basis of the sublattice of Z^2 spanned by `rows`.

    Returns (a, c, d): the lattice is Z*(a, 0) + Z*(c, d) with a >= 0, d >= 0,
    and 0 <= c < a when a > 0.
    """
    a, c, d = 0, 0, 0
    for (x, y) in rows:
        if y != 0:
            if d == 0:
                c, d = x, y
                if d < 0:
                    c, d = -c, -d
            else:
                g, s, t = xgcd(d, y)
                c, x_left = s * c + t * x, (y // g) * c - (d // g) * x
                d = g
                a = gcd(a, x_left)
        else:
            a = gcd(a, x)
    a = abs(a)
    if a and d:
        c %= a
    return a, c, d


def extend_span(
    table: dict[T, tuple[int, ...]],
    g: T,
    n: int,
    mul: Callable[[T, T], T],
) -> dict[T, tuple[int, ...]]:
    """Exponent table of the span of `table`'s generators and g^0..g^(n-1).

    Every entry el -> vec is copied as el -> vec + (0,), then el*g^j ->
    vec + (j,) is added for 0 < j < n, walking the old entries in order.
    An element keeps the first vector found.
    """
    out = {el: vec + (0,) for el, vec in table.items()}
    for el, vec in table.items():
        acc = el
        for j in range(1, n):
            acc = mul(acc, g)
            if acc not in out:
                out[acc] = vec + (j,)
    return out


def _power(identity: T, g: T, e: int, mul: Callable[[T, T], T]) -> T:
    """g**e for e >= 0 by square-and-multiply."""
    acc = identity
    while e:
        if e & 1:
            acc = mul(acc, g)
        e >>= 1
        if e:
            g = mul(g, g)
    return acc


def decompose_from_generators(
    identity: T,
    gens: Iterable[T],
    mul: Callable[[T, T], T],
    order: int | None = None,
) -> tuple[list[T], list[int]]:
    """Independent generators and their orders (all > 1) of the finite
    group generated by `gens`.

    Keeps one table of the span H_k = <g_0, ..., g_(k-1)> of the kept
    generators: each element maps to the mixed-radix code of its normal
    form g_0^v_0 ... g_(k-1)^v_(k-1), 0 <= v_i < r_i, where r_i is the
    relative order of g_i over H_i, so membership and relative orders are
    lookups.  A generator already in the span is skipped; a new one adds
    its r - 1 cosets at one product per element, except that the last
    coset is not built once the span reaches `order`, when given.

    The relation row of g_k is -x + r_k e_k, where x is the exponent
    vector of g_k^(r_k) that extend_span's absolute-order table of H_k
    finds first.  That table copies the entries of H_(b-1) before it
    walks (old entry, j), so the first vector of h in H_b outside H_(b-1) is
    the least, in that insertion order, of x(h g_(b-1)^-j) + (j,) over
    the j with h g_(b-1)^-j in H_(b-1): j = v_(b-1)(h) mod r_(b-1) and
    0 < j < n_(b-1), the absolute order.  `first` reads this off level by
    level, memoized on (element, level).

    The triangular relation lattice is Smith-reduced, and independent
    generators are rebuilt from the inverse of the column transform.  Each
    new g_j must satisfy g_j^(o_j) = 1 and the o_j must multiply to the
    size of the span; with the unimodular transform that makes the sum
    direct and whole.
    """
    # element -> sum_i v_i * sizes[i], keys in code order
    table: dict[T, int] = {identity: 0}
    size = 1
    sizes: list[int] = []           # |H_i|
    rels: list[int] = []            # r_i
    powers: list[list[T]] = []      # g_i^0 .. g_i^(n_i - 1)
    rel_rows: list[list[int]] = []
    memo: dict[tuple[T, int], tuple[tuple[int, ...], tuple]] = {}

    def first(h: T, b: int) -> tuple[tuple[int, ...], tuple]:
        """The first vector of h in H_b's table, with its insertion key:
        (0, key of the prefix) for a copied entry, (1, key of the old
        entry, j) for one walked to."""
        if b == 0:
            return (), ()
        hit = memo.get((h, b))
        if hit is None:
            i = b - 1
            v = table[h] // sizes[i]
            if v == 0:
                vec, key = first(h, i)
                hit = vec + (0,), (0, key)
            else:
                pows = powers[i]
                cands = []
                for j in range(v, len(pows), rels[i]):
                    vec, key = first(mul(h, pows[-j]), i)
                    cands.append((key, vec, j))
                key, vec, j = min(cands)
                hit = vec + (j,), (1, key, j)
            memo[h, b] = hit
        return hit

    for g in gens:
        if size == order:
            break
        if g in table:
            continue
        pows = [identity, g]
        while pows[-1] not in table:
            # in a group of `order` elements r * size <= order; the
            # powers of a non-unit never reach the span
            if order is not None and len(pows) * size > order:
                raise ArithmeticError(
                    f"{g!r} has no power in the span; not in a group of "
                    f"order {order}")
            pows.append(mul(pows[-1], g))
        r = len(pows) - 1
        rel = first(pows[r], len(powers))[0]
        # the absolute order of g, for negative exponents
        while pows[-1] != identity:
            pows.append(mul(pows[-1], g))
        pows.pop()
        for prev in rel_rows:
            prev.append(0)
        rel_rows.append([-e for e in rel] + [r])
        sizes.append(size)
        rels.append(r)
        powers.append(pows)
        if size * r != order:
            coset = list(table)
            for j in range(1, r):
                coset = [mul(el, g) for el in coset]
                table.update(zip(coset, range(j * size, (j + 1) * size)))
        size *= r
    if order is not None and size != order:
        raise ArithmeticError(
            f"generated {size} elements, not the {order} expected")

    diag, vinv = smith_normal_form(rel_rows)
    # With U*A*V = D and A the relation lattice, Z^k / D maps back through
    # rows of V^{-1}: the j-th invariant factor is generated by
    # prod_i g_i ** Vinv[j][i], read off the powers of the order loop.
    new_gens: list[T] = []
    orders: list[int] = []
    for j, row in enumerate(vinv):
        o = diag[j][j]
        if o == 1:
            continue
        acc = identity
        for pows, e in zip(powers, row):
            acc = mul(acc, pows[e % len(pows)])
        if _power(identity, acc, o, mul) != identity:
            raise ArithmeticError(f"generator {j} has order not dividing {o}")
        new_gens.append(acc)
        orders.append(o)
    if prod(orders) != size:
        raise ArithmeticError(f"orders multiply to {prod(orders)}, not the "
                              f"{size} elements generated")
    return new_gens, orders


def _multiplicity(p: int, n: int) -> int:
    """The exponent of the prime p in the nonzero integer n."""
    if n == 0:
        raise ValueError("0 has no finite multiplicity")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def solve_congruence_system(
    coeffs: Sequence[Sequence[int]],
    rhs: Sequence[int],
    modulus: int,
) -> tuple[list[int], list[list[int]]] | None:
    """Solve A x = b (mod R) over Z^k, for A with at least one row.

    Returns None if insoluble, else (x0, basis): the solutions mod R are
    exactly x0 + span_Z(basis) reduced mod R.  With D = U*A*V the Smith
    form of A mod R and x = V y, row t reads d_t y_t = (U b)_t (mod R):
    soluble iff g_t = gcd(d_t, R) divides (U b)_t, and y_t is then fixed
    modulo R/g_t.  A row past the diagonal needs (U b)_t = 0 (mod R).
    """
    R = modulus
    d, _, vt, ub = _smith([[x % R for x in row] for row in coeffs],
                          [x % R for x in rhs])
    n, k = len(d), len(vt)
    if any(c % R for c in ub[k:]):
        return None
    x0 = [0] * k
    basis: list[list[int]] = []
    for t, col in enumerate(vt):
        dt, c = (d[t][t], ub[t] % R) if t < n else (0, 0)
        g = gcd(dt, R)
        if c % g:
            return None
        if c:
            y = c // g * pow(dt // g, -1, R // g)
            x0 = [(x + y * v) % R for x, v in zip(x0, col)]
        # the entries of a column of V are coprime: the step is 0 iff g = 1
        if g != 1:
            basis.append([R // g * v % R for v in col])
    return x0, basis


def enumerate_solutions(
    coeffs: Sequence[Sequence[int]],
    rhs: Sequence[int],
    modulus: int,
    component_moduli: Sequence[int],
) -> list[tuple[int, ...]]:
    """All solutions of A x = b (mod R), with x_j reported mod component_moduli[j].

    Each component modulus must divide R and must annihilate the coefficient
    column (coeffs[i][j] * component_moduli[j] == 0 mod R for all i), so that
    reducing x_j is well-defined.  Enumeration is a breadth-first closure over
    the homogeneous basis in the reduced coordinates.
    """
    k = len(component_moduli)
    for j in range(k):
        if modulus % component_moduli[j]:
            raise ValueError(f"component modulus {component_moduli[j]} does "
                             f"not divide {modulus}")
        if any(row[j] * component_moduli[j] % modulus for row in coeffs):
            raise ValueError(f"column {j} is not well-defined modulo "
                             f"{component_moduli[j]}")
    # with no equations every x is a solution
    res = (solve_congruence_system(coeffs, rhs, modulus) if coeffs
           else ([0] * k, identity_matrix(k)))
    if res is None:
        return []
    x0, basis = res

    def reduce(x: Sequence[int]) -> tuple[int, ...]:
        return tuple(x[j] % component_moduli[j] for j in range(k))

    start = reduce(x0)
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for b in basis:
            nxt = tuple((cur[j] + b[j]) % component_moduli[j] for j in range(k))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return sorted(seen)
