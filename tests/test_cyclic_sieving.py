"""Cyclic sieving for promotion and rowmotion on rational Dyck paths.

On slope (1,k) the (k+1)n-th power of either map is the identity, and for
every d the number of paths fixed by its d-th power is
Cat_k(n; q) = [(k+1)n choose n]_q / [kn+1]_q evaluated at a primitive m-th
root of unity, m = (k+1)n / gcd(d, (k+1)n) (Reiner-Stanton-White, JCTA 2004;
Armstrong, Mem. AMS 2009, section 5; Striker-Williams, European J. Combin.
2012).  That value is the remainder of Cat_k(n; q) modulo the cyclotomic
polynomial Phi_m, which is a constant here; everything is integer
polynomial arithmetic, with no floats.

At n = 1 the law holds on every coprime slope (a,b) checked, with the
rational q-Catalan number [a+b choose a]_q / [a+b]_q and the cyclic group
of order a+b-1 acting through either map (whose own order divides a+b-1,
and is smaller on (2,3), (3,2), (2,5), (5,2) and (2,7)); with order a+b it
fails on each of these slopes.  It is checked here as observed: whether the
rational cyclic sieving results of Armstrong-Rhoades-Williams (EJC 2013)
and Bodnar-Rhoades (EJC 2016) cover this action with this group order is
not settled here.  Off (1,k) at n >= 2 there is no such law: promotion has
order 60 on (2,3) n=2.

Evacuation and dual evacuation are involutions; on (1,1) each fixes
Cat(n; -1) = C(n, floor(n/2)) paths, Stembridge's q = -1 phenomenon (JCTA
1994).  On (1,2) and (1,3) neither count is the q-count at -1, and on the
size-one slopes above they agree with it on some slopes only, so that
check is for (1,1) alone.

A path lies in a cycle of length L, and the d-th power fixes it iff L | d,
so the fixed points are read off the cycle lengths of ``orbit_table``.
"""

import math

import pytest

from ratdyck.paths import Slope
from ratdyck.registry import orbit_table

# polynomials are coefficient lists, lowest degree first


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def poly_divmod(f, g):
    """Quotient and remainder of f by a monic g."""
    assert g[-1] == 1
    rem = list(f)
    quot = [0] * max(len(f) - len(g) + 1, 1)
    for shift in range(len(f) - len(g), -1, -1):
        c = rem[shift + len(g) - 1]
        quot[shift] = c
        for i, y in enumerate(g):
            rem[shift + i] -= c * y
    rem = rem[: len(g) - 1] or [0]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return quot, rem


def exact_div(f, g):
    quot, rem = poly_divmod(f, g)
    assert rem == [0], (f, g)
    return quot


def q_int(i):
    return [1] * i


def q_factorial(i):
    out = [1]
    for j in range(1, i + 1):
        out = poly_mul(out, q_int(j))
    return out


def q_binomial(top, bottom):
    return exact_div(q_factorial(top), poly_mul(q_factorial(bottom), q_factorial(top - bottom)))


def q_catalan(k, n):
    return exact_div(q_binomial((k + 1) * n, n), q_int(k * n + 1))


def q_rational_catalan(a, b):
    """[a+b choose a]_q / [a+b]_q, the q-count of the (a,b) paths of size 1."""
    return exact_div(q_binomial(a + b, a), q_int(a + b))


def cyclotomic(m):
    """Phi_m = (q^m - 1) / prod of Phi_e over the proper divisors e of m."""
    out = [-1] + [0] * (m - 1) + [1]
    for e in range(1, m):
        if m % e == 0:
            out = exact_div(out, cyclotomic(e))
    return out


def test_q_catalan_small_cases():
    # Cat(3; q) = 1 + q^2 + q^3 + q^4 + q^6, and q = 1 gives the counts
    assert q_catalan(1, 3) == [1, 0, 1, 1, 1, 0, 1]
    assert sum(q_catalan(1, 5)) == 42
    assert sum(q_catalan(2, 4)) == 55
    assert cyclotomic(6) == [1, -1, 1]
    assert cyclotomic(12) == [1, 0, -1, 0, 1]


def sieving_failures(map_name, slope, order, cat):
    """The d in [1, order] where the fixed points of the d-th power are not
    cat modulo Phi_m, m = order / gcd(d, order)."""
    lengths = [len(c) for c in orbit_table(map_name, slope)]
    assert sum(lengths) == sum(cat)
    failures = []
    for d in range(1, order + 1):
        fixed = sum(length for length in lengths if d % length == 0)
        rem = poly_divmod(cat, cyclotomic(order // math.gcd(d, order)))[1]
        if rem != [fixed]:
            failures.append((d, rem, fixed))
    return failures


@pytest.mark.parametrize("map_name", ["promotion", "rowmotion"])
@pytest.mark.parametrize("k,n", [(1, 5), (1, 6), (1, 7), (2, 3), (2, 4), (3, 3)])
def test_cyclic_sieving(map_name, k, n):
    assert sieving_failures(map_name, Slope(1, k, n), (k + 1) * n, q_catalan(k, n)) == []


RATIONAL_SLOPES = [(2, 3), (3, 2), (3, 4), (4, 3), (2, 5), (5, 2), (3, 5), (5, 3), (4, 5),
                   (5, 4), (3, 7), (2, 7), (5, 6), (4, 7), (6, 7), (5, 7), (7, 5), (3, 8),
                   (5, 8)]


def test_q_rational_catalan_small_cases():
    # (2,3): 1 + q^2, so two paths; (3,5): C(8,3)/8 = 7 paths
    assert q_rational_catalan(2, 3) == [1, 0, 1]
    assert sum(q_rational_catalan(3, 5)) == 7
    assert q_rational_catalan(3, 5) == q_rational_catalan(5, 3)


@pytest.mark.parametrize("map_name", ["promotion", "rowmotion"])
@pytest.mark.parametrize("a,b", RATIONAL_SLOPES)
def test_rational_cyclic_sieving_at_size_one(map_name, a, b):
    cat = q_rational_catalan(a, b)
    slope = Slope(a, b, 1)
    assert sieving_failures(map_name, slope, a + b - 1, cat) == []
    # the order a+b of the (1,k) law is the wrong group here
    assert sieving_failures(map_name, slope, a + b, cat) != []


@pytest.mark.parametrize("map_name", ["evacuation", "dual-evacuation"])
@pytest.mark.parametrize("n", range(2, 9))
def test_evacuation_fixes_cat_at_minus_one(map_name, n):
    fixed = sum(1 for c in orbit_table(map_name, Slope(1, 1, n)) if len(c) == 1)
    at_minus_one = sum(c * (-1) ** i for i, c in enumerate(q_catalan(1, n)))
    assert fixed == at_minus_one == math.comb(n, n // 2)
