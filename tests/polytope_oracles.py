"""Brute-force H-polytope oracles: the exhaustive tight-subset vertex
search and the certificate-plus-ray-enumeration boundedness test that
nilmat.polytope used before its double description routine, exponential
in the number of inequalities and meant for d <= 4 or sparse d = 6; the
per-row rank test that facet_incidence used before it read facets off
the vertex-row incidence; the unit-image construction that
build_h_polytope used before it read its rows off the frame matrices; and
the Fraction forms of a polytope, its rows as LinearInequality values and
the payload that its JSON export writes; and the double description pass
that started from the full basis of d + 1 rows and split each row's rays
in three passes."""

import math
from fractions import Fraction
from itertools import combinations
from operator import mul

from nilmat.exactmat import (
    ONE,
    ZERO,
    RMatrix,
    _reduce,
    format_rational,
    mat_vec,
    null_space,
    rank,
    solve_unique,
)
from nilmat.polytope import HPolytope, LinearInequality, _primitive, matrix_from_params
from nilmat.qflag import iso_backward, q_zero


def inequalities(h):
    """The rows of h as LinearInequality values with Fraction fields."""
    return [LinearInequality(Fraction(row[0]), tuple(map(Fraction, row[1:]))) for row in h.rows]


def polytope_to_json_dict(v, h):
    """The payload of export_polytope(h, "json"), written with
    format_rational from the Fraction vertices v = enumerate_vertices(h)."""
    return {
        "d": h.d,
        "inequalities": [
            {"constant": format_rational(row[0]), "coeffs": [format_rational(c) for c in row[1:]]}
            for row in h.rows
        ],
        "vertices": [[format_rational(x) for x in p] for p in v.vertices],
    }


def brute_force_vertices(h):
    """Solve every d-subset of inequalities; keep the feasible solutions."""
    ineqs = inequalities(h)
    found = set()
    for subset in combinations(ineqs, h.d):
        sol = solve_unique(RMatrix([iq.coeffs for iq in subset]), [-iq.constant for iq in subset])
        if sol is not None and all(iq.evaluate(sol) >= 0 for iq in ineqs):
            found.add(sol)
    return found


def brute_force_is_bounded(h):
    """Is the recession cone {y : coeffs . y >= 0} trivial?

    Rank below d leaves a kernel line. Otherwise a strictly positive
    weighting of the rows that sums to zero (unit or reciprocal-constant
    weights, projected onto the left kernel) proves boundedness; failing
    that, a nontrivial pointed cone has an extreme ray spanning the
    one-dimensional kernel of some d-1 rows.
    """
    d = h.d
    ineqs = inequalities(h)
    rows = [iq.coeffs for iq in ineqs]
    if not rows:
        return False
    a = RMatrix(rows)
    if rank(a) < d:
        return False
    guesses = [[ONE] * len(rows)]
    if all(iq.constant > 0 for iq in ineqs):
        guesses.append([1 / iq.constant for iq in ineqs])
    for guess in guesses:
        if all(x > 0 for x in _left_kernel_projection(a, guess)):
            return True
    for subset in combinations(rows, d - 1):
        kernel = null_space(RMatrix(subset)) if subset else [(ONE,)]
        if len(kernel) != 1:
            continue
        y = kernel[0]
        if _feasible(rows, y) or _feasible(rows, tuple(-x for x in y)):
            return False
    return True


def _left_kernel_projection(a, guess):
    """Orthogonal projection of a weight vector onto the left kernel of a,
    exactly, through the normal equations (a has full column rank)."""
    at = RMatrix(list(zip(*a.to_rows())))
    z = solve_unique(at * a, mat_vec(at, guess))
    return tuple(g - x for g, x in zip(guess, mat_vec(a, z)))


def _feasible(rows, y):
    return all(sum(map(mul, r, y)) >= 0 for r in rows)


def rank_facet_incidence(h, v):
    """A row is a facet when its tight vertices, found by evaluating it in
    Fractions, affinely span dimension d - 1: one exact rank per row."""
    out = []
    for row, iq in zip(h.rows, inequalities(h)):
        tight = [i for i, p in enumerate(v.vertices) if iq.evaluate(p) == 0]
        if len(tight) < h.d:
            continue
        if _affine_rank([v.vertices[i] for i in tight]) == h.d - 1:
            out.append((row, tuple(tight)))
    return out


def _affine_rank(points):
    if len(points) <= 1:
        return 0
    base = points[0]
    return rank(RMatrix([[x - b for x, b in zip(p, base)] for p in points[1:]]))


def unit_image_polytope(frame):
    """The flag polytope's rows from d + 1 embedded matrices: the member at
    parameters zero is the flat matrix, and entry (i, j) of the member at
    the t-th unit parameter vector, less 1/n, is that entry's coefficient
    of x_t."""
    n = frame.n
    d = len(frame.positions)
    inv_n = Fraction(1, n)
    assert iso_backward(matrix_from_params(frame, [ZERO] * d), frame) == q_zero(n)
    unit_images = [
        iso_backward(matrix_from_params(frame, [ONE if k == t else ZERO for k in range(d)]), frame)
        for t in range(d)
    ]
    rows = []
    for i in range(n):
        for j in range(n):
            coeffs = tuple(m[i, j] - inv_n for m in unit_images)
            if any(coeffs):
                rows.append(LinearInequality(inv_n, coeffs))
    return HPolytope(d, rows)


def full_basis_double_description(h):
    """(vertices, unbounded) as polytope._run_double_description returns
    them, from the start cone of the full basis: each of its d + 1 rays
    solves the (d + 1) x (d + 1) basis for a unit vector, and each row's
    rays are split into kept, plus and minus lists in three passes."""
    d = h.d
    rows = [(1,) + (0,) * d] + list(h.rows)
    basis = _reduce([list(col) for col in zip(*rows)], len(rows))
    if len(basis) <= d:
        return [], True
    start = RMatrix([rows[i] for i in basis])
    tight_on_start = sum(1 << i for i in basis)
    rays = [
        (
            _primitive(solve_unique(start, [int(k == j) for k in range(d + 1)])),
            tight_on_start & ~(1 << i),
        )
        for j, i in enumerate(basis)
    ]
    need = d - 1
    for i in sorted(set(range(len(rows))) - set(basis)):
        row, bit = rows[i], 1 << i
        sides = [(ray, sum(map(mul, row, ray[0]))) for ray in rays]
        kept = [(y, tight | bit if s == 0 else tight) for (y, tight), s in sides if s >= 0]
        plus = [(ray, s) for ray, s in sides if s > 0]
        minus = [(ray, s) for ray, s in sides if s < 0]
        masks = [tight for _, tight in rays]
        for (yp, tp), sp in plus:
            for (yn, tn), sn in minus:
                common = tp & tn
                if common.bit_count() < need or [m & common for m in masks].count(common) > 2:
                    continue
                w = [sp * b - sn * a for a, b in zip(yp, yn)]
                g = math.gcd(*w)
                kept.append((tuple(x // g for x in w), common | bit))
        rays = kept
    points = [(y, tight) for y, tight in rays if y[0]]
    scale = max((y[0] for y, _ in points), default=0) ** 2
    points.sort(key=lambda p: [u * scale // p[0][0] for u in p[0][1:]])
    return [(y, tight >> 1) for y, tight in points], len(points) < len(rays)
