"""Cyclic sieving for promotion and rowmotion on (1,k) Dyck paths.

The (k+1)n-th power of either map is the identity on the paths of slope
(1,k), and for every d the number of paths fixed by its d-th power is
Cat_k(n; q) = [(k+1)n choose n]_q / [kn+1]_q evaluated at a primitive m-th
root of unity, m = (k+1)n / gcd(d, (k+1)n) (Reiner-Stanton-White, JCTA 2004;
Armstrong, Mem. AMS 2009, section 5; Striker-Williams, European J. Combin.
2012).  That value is the remainder of Cat_k(n; q) modulo the cyclotomic
polynomial Phi_m, which is a constant here; everything is integer
polynomial arithmetic, with no floats.  Off slope (1,k) the law fails
(promotion has order 60 on (2,3) n=2), so only (1,k) is checked.

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


def q_catalan(k, n):
    big = (k + 1) * n
    binom = exact_div(q_factorial(big), poly_mul(q_factorial(n), q_factorial(big - n)))
    return exact_div(binom, q_int(k * n + 1))


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


@pytest.mark.parametrize("map_name", ["promotion", "rowmotion"])
@pytest.mark.parametrize("k,n", [(1, 5), (1, 6), (1, 7), (2, 3), (2, 4), (3, 3)])
def test_cyclic_sieving(map_name, k, n):
    order = (k + 1) * n
    lengths = [len(c) for c in orbit_table(map_name, Slope(1, k, n))]
    cat = q_catalan(k, n)
    assert sum(lengths) == sum(cat)
    for d in range(1, order + 1):
        fixed = sum(length for length in lengths if d % length == 0)
        rem = poly_divmod(cat, cyclotomic(order // math.gcd(d, order)))[1]
        assert rem == [fixed], (d, rem, fixed)
