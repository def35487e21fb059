"""Tuple-keyed reference arithmetic for the packed Series.

A Series stores each monomial as one packed int.  These functions work on
the term maps it kept before: plain dicts from exponent triples (alpha,
beta, gamma) of tuples to nonzero GaussianRationals, with exponents added,
lowered and swapped tuple by tuple.  The differential tests in
test_packed.py compare every packed operation with them, read back through
``Series.terms``.  Division keeps the construction the package used before
``Series.divide``: a Neumann inverse times the dividend, and a power of it
by repeated truncated products.
"""

from __future__ import annotations

from operator import add as plus

from leafcoh.algebra import ONE, ZERO, SeriesError, expo_degree

SLOTS = {"z": 0, "zb": 1, "x": 2}


def grlex_key(key):
    """Graded-lexicographic sort key on an exponent triple: degree, then alpha + beta + gamma."""
    return (expo_degree(key), key[0] + key[1] + key[2])


def degree(terms: dict) -> int:
    return max((expo_degree(k) for k in terms), default=0)


def add(s: dict, t: dict) -> dict:
    out = dict(s)
    for key, c in t.items():
        v = out.get(key, ZERO) + c
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def scale(s: dict, c) -> dict:
    return {k: v * c for k, v in s.items() if v * c}


def mul(s: dict, t: dict, out_budget: int) -> dict:
    out: dict = {}
    for (a1, b1, g1), c1 in s.items():
        for (a2, b2, g2), c2 in t.items():
            key = (tuple(map(plus, a1, a2)), tuple(map(plus, b1, b2)), tuple(map(plus, g1, g2)))
            if expo_degree(key) <= out_budget:
                out[key] = out.get(key, ZERO) + c1 * c2
    return {k: v for k, v in out.items() if v}


def deriv(s: dict, kind: str, index: int) -> dict:
    slot, i = SLOTS[kind], index - 1
    out = {}
    for key, c in s.items():
        e = key[slot][i]
        if e:
            part = list(key[slot])
            part[i] -= 1
            new = list(key)
            new[slot] = tuple(part)
            out[tuple(new)] = c * e
    return out


def conj(s: dict) -> dict:
    return {(b, a, g): c.conjugate() for (a, b, g), c in s.items()}


def truncated(s: dict, out_budget: int) -> dict:
    return {k: c for k, c in s.items() if expo_degree(k) <= out_budget}


def sorted_terms(s: dict) -> list:
    return sorted(s.items(), key=lambda kv: grlex_key(kv[0]))


def one(m: int, n: int) -> dict:
    return {((0,) * m, (0,) * m, (0,) * n): ONE}


def invert(s: dict, m: int, n: int, out_budget: int) -> dict:
    """1/s up to out_budget by Neumann expansion: s = c0 (1 - u), 1/s = (1/c0) sum u^k."""
    c0 = s.get(((0,) * m, (0,) * m, (0,) * n), ZERO)
    if not c0:
        raise SeriesError("series is not a unit: function vanishes, cannot invert")
    inv0 = c0.inverse()
    u = add(one(m, n), scale(s, -inv0))
    acc, pw = one(m, n), one(m, n)
    for _ in range(out_budget):
        pw = mul(pw, u, out_budget)
        acc = add(acc, pw)
    return scale(acc, inv0)


def power(s: dict, k: int, m: int, n: int, out_budget: int) -> dict:
    out = one(m, n)
    for _ in range(k):
        out = mul(out, s, out_budget)
    return out


def divide(s: dict, h: dict, m: int, n: int, out_budget: int) -> dict:
    return mul(truncated(s, out_budget), invert(h, m, n, out_budget), out_budget)
