"""Constructive generator of short exact sequences with known answers.

A complex is assembled from elementary pieces: an "arrow" at level q
contributes basis vectors u (grade q) and w (grade q+1) with d u = w; a
"dot" at level q contributes a single closed vector.  Each arrow is assigned
wholly to the sub, wholly to the quotient, or split (w in the sub, u in the
quotient) -- a split arrow is exactly what makes the connecting homomorphism
nonzero, one rank unit per split.  Everything is then conjugated by random
invertible matrices so the structure is hidden from the engine;
rebased_middle rewrites a sequence's middle complex once more, through a
unipotent change of basis.

cone_sweep_scene draws the random morphisms of the relative-complex sweeps,
and relative_ses builds the sequence a relative complex's three complexes
form.
"""

from __future__ import annotations

import random
from fractions import Fraction

from leafcoh.algebra import GaussianRational
from leafcoh.forms import FoliationModel
from leafcoh.linalg import Matrix, solve
from leafcoh.operators import FoliatedMorphism
from leafcoh.sampling import random_morphism, random_series
from leafcoh.sequences import ChainMap, CochainComplex, ShortExactSequence


def _random_invertible(rng: random.Random, n: int) -> Matrix:
    entries = {(i, i): GaussianRational(1) for i in range(n)}
    M = Matrix(n, n, entries)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = GaussianRational(rng.randint(-2, 2))
        if not c:
            continue
        shear = Matrix.identity(n)
        shear = Matrix(n, n, {**shear.entries, (i, j): c})
        M = shear.mul(M)
    return M


def _inverse(M: Matrix) -> Matrix:
    return Matrix.from_columns([solve(M, {j: GaussianRational(1)}) for j in range(M.cols)], M.rows)


def random_ses(rng: random.Random, grades: int = 3):
    """A valid random SES plus the expected connecting rank per grade."""
    arrows = []  # (level, assignment)
    dots = []  # (level, side)
    for level in range(grades - 1):
        for _ in range(rng.randint(0, 2)):
            arrows.append((level, rng.choice(["sub", "quot", "split"])))
    for level in range(grades):
        for _ in range(rng.randint(0, 2)):
            dots.append((level, rng.choice(["sub", "quot"])))
    if not arrows and not dots:
        dots.append((0, "sub"))

    # per grade: ordered basis of M as (kind, index, role) markers
    basis = [[] for _ in range(grades)]
    for idx, (level, assign) in enumerate(arrows):
        basis[level].append(("u", idx, assign))
        basis[level + 1].append(("w", idx, assign))
    for idx, (level, side) in enumerate(dots):
        basis[level].append(("s", idx, side))

    def in_sub(marker):
        kind, idx, role = marker
        if kind == "s":
            return role == "sub"
        if role == "sub":
            return True
        if role == "quot":
            return False
        return kind == "w"  # split: w belongs to the sub

    dims_m = [len(basis[q]) for q in range(grades)]
    dims_l = [sum(1 for b in basis[q] if in_sub(b)) for q in range(grades)]
    dims_r = [dims_m[q] - dims_l[q] for q in range(grades)]

    # differentials of M in the structural basis
    diffs_m = []
    for q in range(grades - 1):
        entries = {}
        pos_next = {marker: i for i, marker in enumerate(basis[q + 1])}
        for col, marker in enumerate(basis[q]):
            kind, idx, role = marker
            if kind == "u":
                entries[(pos_next[("w", idx, role)], col)] = GaussianRational(1)
        diffs_m.append(Matrix(dims_m[q + 1], dims_m[q], entries))

    # sub inclusion and quotient projection in the structural basis
    injects, projects, diffs_l, diffs_r = [], [], [], []
    sub_positions = [
        [i for i, b in enumerate(basis[q]) if in_sub(b)] for q in range(grades)
    ]
    quot_positions = [
        [i for i, b in enumerate(basis[q]) if not in_sub(b)] for q in range(grades)
    ]
    for q in range(grades):
        injects.append(
            Matrix(
                dims_m[q],
                dims_l[q],
                {(p, j): GaussianRational(1) for j, p in enumerate(sub_positions[q])},
            )
        )
        projects.append(
            Matrix(
                dims_r[q],
                dims_m[q],
                {(i, p): GaussianRational(1) for i, p in enumerate(quot_positions[q])},
            )
        )
    for q in range(grades - 1):
        sub_next = {basis[q + 1][p]: i for i, p in enumerate(sub_positions[q + 1])}
        entries = {}
        for j, p in enumerate(sub_positions[q]):
            kind, idx, role = basis[q][p]
            if kind == "u" and role == "sub":
                entries[(sub_next[("w", idx, role)], j)] = GaussianRational(1)
        diffs_l.append(Matrix(dims_l[q + 1], dims_l[q], entries))
        quot_next = {basis[q + 1][p]: i for i, p in enumerate(quot_positions[q + 1])}
        entries = {}
        for j, p in enumerate(quot_positions[q]):
            kind, idx, role = basis[q][p]
            if kind == "u" and role == "quot":
                entries[(quot_next[("w", idx, role)], j)] = GaussianRational(1)
        diffs_r.append(Matrix(dims_r[q + 1], dims_r[q], entries))

    # hide the structure by conjugating every grade of every complex
    P = [_random_invertible(rng, dims_m[q]) for q in range(grades)]
    Q = [_random_invertible(rng, dims_l[q]) for q in range(grades)]
    S = [_random_invertible(rng, dims_r[q]) for q in range(grades)]
    P_inv = [_inverse(p) for p in P]
    Q_inv = [_inverse(p) for p in Q]

    left = CochainComplex(
        dims_l, [Q[q + 1].mul(diffs_l[q]).mul(Q_inv[q]) for q in range(grades - 1)]
    )
    middle = CochainComplex(
        dims_m, [P[q + 1].mul(diffs_m[q]).mul(P_inv[q]) for q in range(grades - 1)]
    )
    right = CochainComplex(
        dims_r,
        [
            S[q + 1].mul(diffs_r[q]).mul(_inverse(S[q]))
            for q in range(grades - 1)
        ],
    )
    inject = ChainMap(
        left, middle, [P[q].mul(injects[q]).mul(Q_inv[q]) for q in range(grades)]
    )
    project = ChainMap(
        middle, right, [S[q].mul(projects[q]).mul(P_inv[q]) for q in range(grades)]
    )
    ses = ShortExactSequence(left, middle, right, inject, project)
    split_counts = [0] * grades
    for level, assign in arrows:
        if assign == "split":
            split_counts[level] += 1
    return ses, split_counts


def _unipotent(rng: random.Random, n: int) -> Matrix:
    """I + N with N strictly upper-triangular in a seeded order of the basis,
    its entries drawn from integers, halves and i."""
    order = list(range(n))
    rng.shuffle(order)
    entries = {(i, i): 1 for i in range(n)}
    for a in range(n):
        for b in range(a + 1, n):
            entries[(order[a], order[b])] = rng.choice([0, 0, 1, -2, Fraction(1, 2), GaussianRational(0, 1)])
    return Matrix(n, n, entries)


def rebased_middle(rng: random.Random, ses: ShortExactSequence) -> ShortExactSequence:
    """The same sequence with its middle complex rewritten through a seeded
    unipotent change of basis g per grade: d_M' = g d_M g^-1, i' = g i and
    p' = p g^-1, so d_M is not block-triangular in the basis it is given in."""
    g = [_unipotent(rng, n) for n in ses.middle.dims]
    g_inv = [_inverse(x) for x in g]
    middle = CochainComplex(
        ses.middle.dims, [g[q + 1].mul(d).mul(g_inv[q]) for q, d in enumerate(ses.middle.diffs)]
    )
    inject = ChainMap(ses.left, middle, [x.mul(i) for x, i in zip(g, ses.inject.components)])
    project = ChainMap(middle, ses.right, [p.mul(x) for p, x in zip(ses.project.components, g_inv)])
    return ShortExactSequence(ses.left, middle, ses.right, inject, project)


def relative_ses(rc) -> ShortExactSequence:
    """0 -> left -> cone -> right -> 0 of a relative complex, by [0; I] and
    [I 0] grade by grade (the cone puts the target first), each map built
    through the checking ChainMap constructor."""
    dims = list(zip(rc.right.dims, rc.left.dims))
    inject = ChainMap(rc.left, rc.middle, [Matrix(t + s, s, {(t + j, j): 1 for j in range(s)}) for t, s in dims])
    project = ChainMap(rc.middle, rc.right, [Matrix(t, t + s, {(j, j): 1 for j in range(t)}) for t, s in dims])
    return ShortExactSequence(rc.left, rc.middle, rc.right, inject, project)


def cone_sweep_scene(seed):
    """A random morphism with a random target twist f', and a p, for the
    relative-complex sweeps; the rng is returned for further draws.

    Affine components when the source has two leafwise variables, so the
    budgets stay at desk scale.
    """
    rng = random.Random(52000 + seed)
    m_s = rng.choice([1, 1, 2])
    m_t = rng.choice([1, 2]) if m_s == 1 else 1
    n = rng.choice([0, 1]) if m_s == 1 else 0
    deg = 2 if (m_s, m_t) == (1, 1) and n == 0 else 1
    src = FoliationModel.untwisted(m_s, n, 1)
    tgt = FoliationModel.untwisted(m_t, n, 1)
    mu = random_morphism(rng, src, tgt, deg)
    fp = random_series(rng, m_t, n, 1, max_terms=2)
    p = rng.randint(0, m_t)
    mu = FoliatedMorphism(src, tgt.with_twist(fp), mu.z_components, mu.x_components)
    return mu, p, rng
