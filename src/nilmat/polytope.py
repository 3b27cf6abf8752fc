"""Exact polytopes cut out by entry nonnegativity of flag members.

Identify a strictly block upper triangular (n-1)-matrix with its parameter
vector, its entries on the flag frame's positions in row-major order.
Pushing it through the frame gives an affine function per matrix entry,
and requiring every entry to be nonnegative yields an inequality system:
the doubly stochastic members of the flag subsemigroup form a convex
polytope in parameter space. Everything here stays in exact rational
arithmetic; only the OFF mesh export writes decimal approximations.
"""

import math
from collections import Counter, namedtuple
from decimal import Decimal, localcontext
from fractions import Fraction
from operator import mul

from .exactmat import (
    MatrixError,
    _format_pair,
    _int_vector,
    _is_int,
    _json_list,
    _normalised,
    _rational,
    _reduce,
    _sequence,
    _shown,
    solve_unique,
)

MAX_DIMENSION = 6
MAX_INEQUALITIES = 40


# a named tuple rather than a frozen dataclass: the dataclasses module
# imports inspect, which would double the start-up time of every CLI call
class LinearInequality(namedtuple("LinearInequality", "constant coeffs")):
    """constant + coeffs . x >= 0."""

    __slots__ = ()

    def evaluate(self, point):
        if len(_sequence(point, "point")) != len(self.coeffs):
            raise MatrixError("point must be a tuple or list of the inequality's arity")
        return self.constant + sum(map(mul, self.coeffs, map(_rational, point)))


class HPolytope:
    """Inequality description in canonical form: `rows` holds each distinct
    inequality once, scaled by the unique positive rational that makes it a
    coprime integer tuple (constant, *coeffs), in sorted order."""

    __slots__ = ("d", "rows", "_dd")

    def __init__(self, d, inequalities):
        if not _is_int(d) or d < 1:
            raise MatrixError("polytope dimension must be a positive integer")
        try:
            inequalities = list(inequalities)
        except TypeError:
            raise MatrixError("polytope inequalities must be a sequence") from None
        rows = set()
        for iq in inequalities:
            if not isinstance(iq, LinearInequality):
                raise MatrixError(f"not a LinearInequality: {_shown(iq)}")
            if len(_sequence(iq.coeffs, "inequality coefficients")) != d:
                raise MatrixError("inequality arity does not match the dimension")
            rows.add(_primitive((iq.constant, *iq.coeffs)))
        self.d = d
        self.rows = tuple(sorted(rows))
        self._dd = None  # _double_description's result, filled on first use

    @classmethod
    def _from_rows(cls, d, rows):
        """The polytope of rows already in canonical form: coprime integer
        tuples, distinct and sorted."""
        h = object.__new__(cls)
        h.d, h.rows, h._dd = d, rows, None
        return h

    def __eq__(self, other):
        return isinstance(other, HPolytope) and self.d == other.d and self.rows == other.rows

    def __repr__(self):
        return f"HPolytope(d={self.d}, {len(self.rows)} inequalities)"


class VPolytope:
    """Vertex description in canonical form, built only from the double
    description's rays: `rays` holds each vertex x once, as the primitive
    integer tuple (t, t x) with t > 0, in lexicographic vertex order.
    `vertices` holds the same vertices as Fraction tuples, built on first use."""

    __slots__ = ("d", "rays", "_vertices")

    @classmethod
    def _from_rays(cls, d, rays):
        """The polytope of rays already in canonical form: primitive integer
        tuples (t, t x) with t > 0, distinct and in vertex order."""
        v = object.__new__(cls)
        v.d, v.rays, v._vertices = d, rays, None
        return v

    @property
    def vertices(self):
        if self._vertices is None:
            self._vertices = tuple(
                tuple(Fraction(x, y[0]) for x in y[1:]) for y in self.rays
            )
        return self._vertices

    def __eq__(self, other):
        return isinstance(other, VPolytope) and self.d == other.d and self.rays == other.rays

    def __repr__(self):
        return f"VPolytope(d={self.d}, {len(self.rays)} vertices)"


def matrix_from_params(frame, x):
    """The reduced matrix with the parameters x on the frame's positions."""
    x, den = _int_vector(_sequence(x, "matrix parameters"))
    positions = frame.positions
    if len(x) != len(positions):
        raise MatrixError(f"expected {len(positions)} parameters, got {len(x)}")
    size = frame.n - 1
    rows = [[0] * size for _ in range(size)]
    for (i, j), v in zip(positions, x):
        rows[i][j] = v
    return _normalised(tuple(map(tuple, rows)), den)


def build_h_polytope(frame):
    """Entry-nonnegativity inequalities of the flag subsemigroup's doubly
    stochastic part, in the parameters on the frame's positions.

    The member with parameters x is F diag(1, B(x)) F^-1. F's first column
    is all ones and F^-1's first row is flat 1/n, so entry (r, s) is the
    affine function 1/n + sum over positions (i, j) of
    F[r, i+1] F^-1[j+1, s] x_(i,j), read straight off the two matrices.
    With F = N / a and F^-1 = M / b over integers, n a b times that entry
    is the integer row (a b, n N[r, i+1] M[j+1, s], ...), which only needs
    its gcd divided out to be canonical. Entries with no parameter
    dependence give the vacuous inequality 1/n >= 0 and are dropped.
    """
    n = frame.n
    positions = frame.positions
    if not positions:
        raise MatrixError(f"a flag with the one block 1..{n - 1} has no polytope parameters")
    f, f_inv = frame.f, frame.f_inv
    ab = f._den * f_inv._den
    assert all(n * x == f_inv._den for x in f_inv._num[0])
    rows = set()
    for fr in f._num:
        for mc in zip(*f_inv._num):
            row = [ab] + [n * fr[i + 1] * mc[j + 1] for i, j in positions]
            if any(row[1:]):
                g = math.gcd(*row)
                rows.add(tuple(x // g for x in row))
    return HPolytope._from_rows(len(positions), tuple(sorted(rows)))


def enumerate_vertices(h):
    """All vertices, exactly, by the double description method."""
    return VPolytope._from_rays(h.d, tuple(y for y, _ in _double_description(h)[0]))


def is_bounded(h):
    """Is the recession cone {y : coeffs . y >= 0 for all inequalities}
    trivial? The cone does not depend on feasibility, so an empty polytope
    counts as unbounded when the cone is nontrivial."""
    return not _double_description(h)[1]


def _double_description(h):
    """(vertices, unbounded) of h, computed once per HPolytope within the
    size limits."""
    if h._dd is None:
        if h.d > MAX_DIMENSION or len(h.rows) > MAX_INEQUALITIES:
            raise MatrixError(
                f"vertex enumeration limited to d <= {MAX_DIMENSION} and "
                f"{MAX_INEQUALITIES} inequalities"
            )
        h._dd = _run_double_description(h)
    return h._dd


def _run_double_description(h):
    """(vertices, unbounded) of {x : constant + coeffs . x >= 0}, with
    vertices the (ray, mask) pairs in vertex order: ray is the primitive
    integer tuple (t, t x) with t > 0 of the vertex x, and bit i of mask
    is set when row i of h.rows is tight on x.

    The double description method (Motzkin et al. 1953; Fukuda and Prodon
    1996) on the homogenised cone {(t, x) : t >= 0, t * constant +
    coeffs . x >= 0}, in integers: the rows are h.rows, and rays are kept
    as primitive integer vectors. The cone's extreme rays with t > 0 are
    the vertices x / t, those with t = 0 the extreme recession directions.

    The cone starts as the simplicial cone of the first d + 1 independent
    rows and takes the other rows one at a time: rays on a row's positive
    side stay, rays on its negative side go, and each adjacent (+, -) pair
    gives a new ray on the row's hyperplane. Two rays are adjacent when at
    least d - 1 rows are tight on both and no third ray is tight on all of
    those rows. Fewer than d + 1 independent rows means coefficient rank
    below d: the cone holds a line, so there are no vertices and the
    polytope is unbounded.

    Row 0, t >= 0, is always the first of those rows, so the start cone is
    one vertex, where the other d rows are tight, and the d edge directions
    (t = 0) that leave it, each off one of those rows: with A their
    coefficient block, A x = -constants gives the vertex (1, x) and
    A y = e_j the direction (0, y): column j of A^-1, from one elimination
    of [A | I].
    """
    d = h.d
    rows = [(1,) + (0,) * d] + list(h.rows)
    # the pivot columns of the transpose are the first independent rows
    basis = _reduce([list(col) for col in zip(*rows)], len(rows))
    if len(basis) <= d:
        return [], True
    edges = basis[1:]
    block = _normalised(tuple(rows[i][1:] for i in edges), 1)
    tight_on_start = sum(1 << i for i in basis)
    # (ray, bitmask of the rows taken so far that are tight on it)
    vertex = solve_unique(block, [-rows[i][0] for i in edges])
    rays = [(_primitive((1, *vertex)), tight_on_start & ~1)]
    # the inverse's integer columns are the y_j times its positive denominator
    for i, y in zip(edges, zip(*block.inverse()._num)):
        g = math.gcd(*y)
        rays.append(((0, *(x // g for x in y)), tight_on_start & ~(1 << i)))
    need = d - 1
    for i in sorted(set(range(len(rows))) - set(basis)):
        row, bit = rows[i], 1 << i
        kept, plus, minus = [], [], []
        for ray in rays:
            y, tight = ray
            s = sum(map(mul, row, y))
            if s > 0:
                kept.append(ray)
                plus.append((y, tight, s))
            elif s:
                minus.append((y, tight, s))
            else:
                kept.append((y, tight | bit))
        masks = [tight for _, tight in rays]
        for yp, tp, sp in plus:
            for yn, tn, sn in minus:
                common = tp & tn
                # p and n are tight on common: adjacent when no third ray is
                if common.bit_count() < need or [m & common for m in masks].count(common) > 2:
                    continue
                # an integer combination of two independent rays: nonzero,
                # and only its gcd needs dividing out
                w = [sp * b - sn * a for a, b in zip(yp, yn)]
                g = math.gcd(*w)
                kept.append((tuple(w) if g == 1 else tuple(x // g for x in w), common | bit))
        rays = kept
    # distinct extreme rays give distinct vertices. Two unequal coordinates
    # u / t and u' / t' differ by at least 1 / (t t') >= 1 / T^2, T the
    # largest t, so floor(T^2 u / t) orders them as they are and keeps equal
    # ones equal: an exact integer key whose size follows T, where the lcm
    # of every t grows with each new denominator
    points = [(y, tight) for y, tight in rays if y[0]]
    scale = max((y[0] for y, _ in points), default=0) ** 2
    points.sort(key=lambda p: [u * scale // p[0][0] for u in p[0][1:]])
    # the rays with t = 0 are the recession directions
    return [(y, tight >> 1) for y, tight in points], len(points) < len(rays)


def _primitive(values):
    """The coprime integer vector on the ray of a rational vector (zero
    stays zero)."""
    ints, _ = _int_vector(values)
    g = math.gcd(*ints) or 1
    return tuple(x // g for x in ints)


def facet_incidence(h):
    """Facet-defining rows of h.rows for a bounded polytope h, each with the
    indices of its tight vertices in enumerate_vertices(h)."""
    count = len(_double_description(h)[0])
    return [
        (h.rows[r], tuple(i for i in range(count) if m >> i & 1))
        for r, m in _facet_masks(h)
    ]


def facet_census(h):
    """Multiset of per-facet vertex counts, for 3-dimensional polytopes."""
    if h.d != 3:
        raise MatrixError("facet census defined for 3-dimensional polytopes only")
    return Counter(m.bit_count() for _, m in _facet_masks(h))


def _facet_masks(h):
    """(r, mask) for each row r of h.rows that defines a facet of the
    bounded polytope h, in row order: bit i of mask is set when the row is
    tight on vertex i of enumerate_vertices(h).

    A row defines a facet when its tight vertices affinely span dimension
    d - 1. Each row's tight vertices form one bitmask, the transpose of the
    tight-row masks the double description leaves on its vertices. The
    rows tight on every vertex are the implicit equalities, and the
    polytope has dimension d minus their rank (Schrijver, Theory of Linear
    and Integer Programming, 8.2); the rank is taken with the constants, so
    an empty polytope, where every row counts as implicit, comes out below
    d - 1. The masks then decide the rule:

    * Full dimension (zero rows at most are implicit): each row's tight set
      is a face, and every facet is one of them, because an inequality
      description holds a row on each facet. Every proper face lies inside
      a facet, so a row defines a facet exactly when its set is nonempty,
      proper and inclusion-maximal among the proper sets.
    * Dimension d - 1: the polytope is its only face of that dimension, so
      the facets are the implicit rows.
    * Lower dimension: no face spans d - 1, so there are no facets.
    """
    vertices, unbounded = _double_description(h)
    if unbounded:
        raise MatrixError(
            f"facets are defined for bounded polytopes with d <= {MAX_DIMENSION} only"
        )
    tight = [t for _, t in vertices]
    masks = [sum(1 << i for i, t in enumerate(tight) if t >> r & 1) for r in range(len(h.rows))]
    everything = (1 << len(tight)) - 1
    implicit = [list(row) for row, m in zip(h.rows, masks) if m == everything]
    codim = len(_reduce(implicit, h.d + 1))
    if codim == 0:
        proper = [m for m in masks if m != everything]
        return [
            (r, m)
            for r, m in enumerate(masks)
            if 0 < m < everything and not any(o != m and o & m == m for o in proper)
        ]
    if codim == 1:
        return [(r, m) for r, m in enumerate(masks) if m == everything]
    return []


# -- serialization ------------------------------------------------------------


def _to_json(v, h):
    """{"d", "inequalities": [{"coeffs", "constant"}], "vertices"} in exact
    texts, as json.dumps(..., indent=2, sort_keys=True) plus a newline writes
    it, joined by hand from the integer rows and rays: with indent set,
    json.dumps runs its pure-Python encoder."""
    try:
        inequalities = [
            '    {\n      "coeffs": [\n        "'
            + '",\n        "'.join(map(str, row[1:]))
            + f'"\n      ],\n      "constant": "{row[0]}"\n    }}'
            for row in h.rows
        ]
        # each distinct text of a coordinate x / t is made once, in a dict per
        # t: tree frames' vertices repeat 85 % of their coordinates, dense frames' 10 %
        by_t = {}
        vertices = []
        for y in v.rays:
            t = y[0]
            texts = by_t.setdefault(t, {})
            parts = []
            for x in y[1:]:
                text = texts.get(x)
                if text is None:
                    text = texts[x] = _format_pair(x, t)
                parts.append(text)
            vertices.append('    [\n      "' + '",\n      "'.join(parts) + '"\n    ]')
    except ValueError:
        # str() refuses ints of more than sys.get_int_max_str_digits() digits
        raise MatrixError("number has too many digits to write out") from None
    return (
        f'{{\n  "d": {h.d},\n  "inequalities": {_json_list(inequalities)},\n'
        f'  "vertices": {_json_list(vertices)}\n}}\n'
    )


def _decimal_str(value):
    with localcontext() as ctx:
        ctx.prec = 20
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _ordered_face(indices, vertices, inward):
    """Order a facet's vertices into a polygon by falling angle about its
    centroid, in floats (OFF output is approximate anyway). The in-plane
    basis (u, w) has u x w equal to the unit inward normal, so falling
    angles give the polygon an outward right-hand normal."""
    pts = [tuple(float(x) for x in vertices[i]) for i in indices]
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    cz = sum(p[2] for p in pts) / len(pts)
    nx, ny, nz = (float(c) for c in inward)
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    nx, ny, nz = nx / norm, ny / norm, nz / norm
    # any unit vector off the normal axis seeds an in-plane basis
    seed = (1.0, 0.0, 0.0) if abs(nx) < 0.9 else (0.0, 1.0, 0.0)
    ux, uy, uz = _cross((nx, ny, nz), seed)
    un = math.sqrt(ux * ux + uy * uy + uz * uz)
    ux, uy, uz = ux / un, uy / un, uz / un
    wx, wy, wz = _cross((nx, ny, nz), (ux, uy, uz))
    angles = []
    for idx, p in zip(indices, pts):
        dx, dy, dz = p[0] - cx, p[1] - cy, p[2] - cz
        angles.append((math.atan2(dx * wx + dy * wy + dz * wz, dx * ux + dy * uy + dz * uz), idx))
    return [idx for _, idx in sorted(angles, reverse=True)]


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _to_off(v, h):
    if h.d != 3:
        raise MatrixError("OFF export defined for 3-dimensional polytopes only")
    facets = facet_incidence(h)
    if not facets or len(facets[0][1]) == len(v.vertices):
        raise MatrixError("degenerate polytope: vertices do not span 3 dimensions")
    try:
        faces = [_ordered_face(tight, v.vertices, row[1:]) for row, tight in facets]
    except OverflowError:
        raise MatrixError("OFF faces are ordered in floats, and a coordinate exceeds them") from None
    edge_total = sum(len(f) for f in faces)
    assert edge_total % 2 == 0, "facet polygons do not close up"
    lines = ["OFF", f"{len(v.vertices)} {len(faces)} {edge_total // 2}"]
    for p in v.vertices:
        lines.append(" ".join(_decimal_str(x) for x in p))
    for f in faces:
        lines.append(" ".join([str(len(f))] + [str(i) for i in f]))
    return "\n".join(lines) + "\n"


def export_polytope(h, fmt):
    """Serialize h and its vertices to bytes, either exact JSON or an
    approximate OFF mesh."""
    if fmt not in ("json", "off"):
        raise MatrixError(f"unknown export format: {_shown(fmt)}")
    v = VPolytope._from_rays(h.d, tuple(y for y, _ in _double_description(h)[0]))
    return (_to_json if fmt == "json" else _to_off)(v, h).encode()
