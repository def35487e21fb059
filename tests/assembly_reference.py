"""Reference operator assembly: the former dict-indexed ``operator_matrix``.

``basis`` enumerates a (p,q) basis here, with ``itertools`` and a sort, and
shares no code with the package's monomial and pair tables.  Every output
entry is placed by looking its (A, B, exponent) triple up in a dict of the
target basis, one basis element and one twist term at a time.
``inclusion_positions`` likewise looks each budget-``small`` element up in
the budget-``big`` index.  The differential tests compare
``leafcoh.cohomology``'s position arithmetic against these.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from operator import add

from leafcoh.algebra import ONE
from leafcoh.cohomology import _OPS, BudgetContractError, operator_gap
from leafcoh.forms import insert_index
from leafcoh.linalg import Matrix


@lru_cache(maxsize=None)
def basis(m, n, p, q, budget) -> tuple:
    """The (p,q) basis at budget as (A, B, exponent triple) elements: pairs in
    lexicographic order, each with every monomial sorted by (degree, flattened
    exponents); empty for a negative or too large bidegree or budget."""
    if min(p, q, budget) < 0:
        return ()
    v = 2 * m + n
    flats = sorted(
        (d, tuple(chosen.count(i) for i in range(v)))
        for d in range(budget + 1)
        for chosen in combinations_with_replacement(range(v), d)
    )
    monos = [(f[:m], f[m : 2 * m], f[2 * m :]) for _, f in flats]
    pairs = [(A, B) for A in combinations(range(1, m + 1), p) for B in combinations(range(1, m + 1), q)]
    return tuple((A, B, e) for A, B in pairs for e in monos)


@lru_cache(maxsize=None)
def index(m, n, p, q, budget) -> dict:
    """Element -> position in ``basis(m, n, p, q, budget)``."""
    return {elem: i for i, elem in enumerate(basis(m, n, p, q, budget))}


def operator_matrix(tag, model, p, q, in_budget, out_budget, k=None):
    """The matrix of ``tag`` from (p,q) at in_budget over the target basis at out_budget."""
    if tag not in _OPS:
        raise ValueError(f"unknown operator tag {tag!r}")
    if tag == "dbar_f_k" and k is None:
        raise ValueError("dbar_f_k needs the integer k")
    dp, dq, twisted = _OPS[tag]
    gap = operator_gap(tag, model)
    if out_budget < in_budget + gap:
        raise BudgetContractError(
            f"budget contract violated: out {out_budget} < in {in_budget} + gap {gap}"
        )
    m, n = model.m, model.n
    if twisted:
        f_terms = list(model.f.terms.items())
        weight = p + q - (k if tag == "dbar_f_k" else 0)
    else:
        f_terms = [(((0,) * m, (0,) * m, (0,) * n), ONE)]
        weight = 0
    slot = 1 if dq else 0
    front = -1 if dq and p % 2 else 1
    in_basis = basis(m, n, p, q, in_budget)
    out_idx = index(m, n, p + dp, q + dq, out_budget)
    entries = {}
    pair, merges = None, []
    for j, (A, B, e) in enumerate(in_basis):
        if (A, B) != pair:
            pair, merges = (A, B), []
            for i in range(m):
                s, merged = insert_index(i + 1, B if dq else A)
                if s:
                    merges.append((i, s, merged))
        if not merges:
            continue
        shifted = [([tuple(map(add, u, v)) for u, v in zip(e, t)], t[slot], ft) for t, ft in f_terms]
        for i, s, merged in merges:
            ei = e[slot][i]
            for expo, t_slot, ft in shifted:
                c = ei - weight * t_slot[i]
                if not c:
                    continue
                lowered = list(expo[slot])
                lowered[i] -= 1
                key_expo = list(expo)
                key_expo[slot] = tuple(lowered)
                key = (A, merged, tuple(key_expo)) if dq else (merged, B, tuple(key_expo))
                entries[(out_idx[key], j)] = ft * (front * s * c)
    return Matrix(len(out_idx), len(in_basis), entries)


def inclusion_positions(model, p, q, small, big):
    """Positions of the budget-``small`` basis inside the budget-``big`` one, by lookup."""
    idx = index(model.m, model.n, p, q, big)
    return [idx[e] for e in basis(model.m, model.n, p, q, small)]
