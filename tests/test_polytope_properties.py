"""Property tests for flag polytopes, vertex enumeration, boundedness and
facets: the rows read off the frame against the unit-image construction,
the double description routine against the brute-force oracles and the
full-basis pass, and the incidence facet rule against the per-row rank
rule, on small random H-polytopes and on random flag polytopes; and the
facet structure and OFF face orientation those polytopes must have, and
their JSON export against the stdlib encoder."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import rng, rand_frame, rand_tree_frame
from nilmat.exactmat import MatrixError
from nilmat.polytope import (
    HPolytope,
    _run_double_description,
    LinearInequality,
    build_h_polytope,
    enumerate_vertices,
    export_polytope,
    facet_census,
    facet_incidence,
    is_bounded,
)
from nilmat.qflag import FlagFrame
from nilmat.reference import reference_frame
from polytope_oracles import (
    brute_force_is_bounded,
    brute_force_vertices,
    full_basis_double_description,
    polytope_to_json_dict,
    rank_facet_incidence,
    unit_image_polytope,
)

# derandomized and without an example database, so every run checks the
# same examples and writes nothing
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def row_systems(draw):
    """(d, rows) of random rows, some cut to a box, some pinned to a
    hyperplane: the mix holds empty, unbounded, lower-dimensional and full
    polytopes."""
    d = draw(st.integers(1, 4))
    rows = [
        (draw(st.integers(-2, 3)), [draw(st.integers(-3, 3)) for _ in range(d)])
        for _ in range(draw(st.integers(0, 7)))
    ]
    if draw(st.booleans()):
        radius = draw(st.integers(1, 3))
        for i in range(d):
            for sign in (1, -1):
                rows.append((radius, [sign * (j == i) for j in range(d)]))
    if rows and draw(st.booleans()):
        constant, coeffs = rows[draw(st.integers(0, len(rows) - 1))]
        rows.append((-constant, [-c for c in coeffs]))
    return d, rows


def h_polytopes():
    return row_systems().map(lambda system: polytope(*system))


def polytope(d, rows):
    return HPolytope(
        d,
        [LinearInequality(Fraction(c), tuple(Fraction(x) for x in a)) for c, a in rows],
    )


@PROPERTY
@given(row_systems(), st.data())
def test_rows_are_the_canonical_form(system, data):
    d, rows = system
    h = polytope(d, rows)
    # coprime, except that an all-zero row stays zero
    assert all(math.gcd(*row) == 1 for row in h.rows if any(row))
    assert all(a < b for a, b in zip(h.rows, h.rows[1:]))
    # positive rescaling, duplication and reordering of the input rows
    # describe the same polytope
    scales = st.fractions(min_value=Fraction(1, 6), max_value=6)
    scaled = []
    for constant, coeffs in rows:
        s = data.draw(scales)
        scaled.append((constant * s, [a * s for a in coeffs]))
    if scaled:
        scaled += data.draw(st.lists(st.sampled_from(scaled), max_size=3))
    again = polytope(d, data.draw(st.permutations(scaled)))
    assert again == h and again.rows == h.rows


@PROPERTY
@given(h_polytopes())
def test_double_description_agrees_with_brute_force(h):
    v = enumerate_vertices(h)
    assert list(v.vertices) == sorted(brute_force_vertices(h))
    assert all(isinstance(x, Fraction) for p in v.vertices for x in p)
    assert is_bounded(h) == brute_force_is_bounded(h)


@PROPERTY
@given(h_polytopes())
def test_double_description_matches_the_full_basis_oracle(h):
    assert _run_double_description(h) == full_basis_double_description(h)


@PROPERTY
@given(h_polytopes())
# the triangle (0, 0), (3, 0), (3/2, 3/2) writes x = 3 over t = 1 and over
# t = 2; the box [-1, 1]^2 writes -1 and 1 at t = 1 four times each
@example(polytope(2, [(0, [0, 1]), (0, [1, -1]), (3, [-1, -1])]))
@example(polytope(2, [(1, [1, 0]), (1, [-1, 0]), (1, [0, 1]), (1, [0, -1])]))
def test_json_export_matches_the_json_dumps_oracle(h):
    payload = polytope_to_json_dict(enumerate_vertices(h), h)
    dumped = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert export_polytope(h, "json") == dumped.encode()


def test_double_description_agrees_with_brute_force_at_d6():
    # sparse n=5 flag polytopes (d = 6, 13-16 rows), the size at which the
    # pass's adjacency count and integer-key sort meet the most rays
    r = rng(45)
    for h in (build_h_polytope(rand_tree_frame(r, 5)) for _ in range(3)):
        assert list(enumerate_vertices(h).vertices) == sorted(brute_force_vertices(h))


@PROPERTY
@given(h_polytopes())
def test_facet_incidence_agrees_with_rank_oracle(h):
    v = enumerate_vertices(h)
    if is_bounded(h):
        assert facet_incidence(h) == rank_facet_incidence(h, v)
    else:
        with pytest.raises(MatrixError):
            facet_incidence(h)


@pytest.fixture(scope="module")
def frame_polytopes():
    """(h, v) of seeded dense n=4 (d=3) and tree n=5 (d=6) flag polytopes."""
    r = rng(43)
    frames = [rand_frame(r, 4) for _ in range(30)] + [rand_tree_frame(r, 5) for _ in range(10)]
    return [(h, enumerate_vertices(h)) for h in map(build_h_polytope, frames)]


def test_rows_read_off_the_frame_match_the_unit_images():
    r = rng(44)
    frames = [reference_frame(which=which) for which in ("frame-a", "frame-b")]
    for n in range(3, 7):
        frames += [FlagFrame.standard(n), rand_frame(r, n), rand_tree_frame(r, n)]
    for frame in frames:
        assert build_h_polytope(frame) == unit_image_polytope(frame)


def test_off_faces_turn_outward(frame_polytopes):
    # the exact Newell normal of each face polygon must point against the
    # facet row's gradient, which points into the polytope
    examples = [
        (h, enumerate_vertices(h))
        for h in (build_h_polytope(reference_frame(which=w)) for w in ("frame-a", "frame-b"))
    ]
    for h, v in examples + [(h, v) for h, v in frame_polytopes if h.d == 3]:
        lines = export_polytope(h, "off").decode().splitlines()
        faces = lines[2 + len(v.vertices) :]
        facets = facet_incidence(h)
        assert len(faces) == len(facets)
        for line, (row, tight) in zip(faces, facets):
            order = [int(i) for i in line.split()[1:]]
            assert sorted(order) == list(tight)
            pts = [v.vertices[i] for i in order]
            newell = [
                sum((p[a] - q[a]) * (p[b] + q[b]) for p, q in zip(pts, pts[1:] + pts[:1]))
                for a, b in ((1, 2), (2, 0), (0, 1))
            ]
            assert sum(x * c for x, c in zip(newell, row[1:])) < 0


def test_facet_incidence_agrees_with_rank_oracle_on_frames(frame_polytopes):
    for h, v in frame_polytopes:
        assert facet_incidence(h) == rank_facet_incidence(h, v)


def test_facet_rows_alone_give_back_the_vertices(frame_polytopes):
    for h, v in frame_polytopes:
        facets = HPolytope(h.d, [LinearInequality(r[0], r[1:]) for r, _ in facet_incidence(h)])
        assert enumerate_vertices(facets) == v


def test_every_vertex_lies_on_at_least_d_facets(frame_polytopes):
    for h, v in frame_polytopes:
        on = [0] * len(v.vertices)
        for _, tight in facet_incidence(h):
            for i in tight:
                on[i] += 1
        assert min(on) >= h.d


def test_facet_incidence_on_lower_dimensional_polytopes():
    # the segment [0, 1] x {0} and the point (0, 0) in the plane, each cut
    # out with an opposite row pair
    segment = polytope(2, [(0, [1, 0]), (1, [-1, 0]), (0, [0, 1]), (0, [0, -1])])
    point = polytope(2, [(0, [1, 0]), (0, [-1, 0]), (0, [0, 1]), (0, [0, -1])])
    for h in (segment, point):
        v = enumerate_vertices(h)
        assert facet_incidence(h) == rank_facet_incidence(h, v)
    assert [row for row, _ in facet_incidence(segment)] == [(0, 0, -1), (0, 0, 1)]
    assert all(tight == (0, 1) for _, tight in facet_incidence(segment))
    assert facet_incidence(point) == []


def test_facet_incidence_ignores_zero_rows():
    # 0 >= 0 is tight on every vertex but adds nothing to the rank of the
    # implicit equalities
    box = [(1, [1, 0]), (1, [-1, 0]), (1, [0, 1]), (1, [0, -1])]
    segment = [(0, [1, 0]), (1, [-1, 0]), (0, [0, 1]), (0, [0, -1])]
    for rows, facets in ((box, 4), (segment, 3)):
        h = polytope(2, rows + [(0, [0, 0])])
        v = enumerate_vertices(h)
        assert facet_incidence(h) == rank_facet_incidence(h, v)
        assert len(facet_incidence(h)) == facets


def test_facet_incidence_refuses_unbounded_polytopes():
    # positive constants, so x = 0 is interior, but the vertices span only
    # the segment between (-1, 0) and (0, -1): the vertex hull is not the
    # polytope
    h = polytope(3, [(1, [1, 0, 0]), (1, [0, 1, 0]), (1, [1, 1, 0]), (1, [0, 0, 1])])
    v = enumerate_vertices(h)
    assert not is_bounded(h) and len(v.vertices) == 2
    with pytest.raises(MatrixError, match="bounded"):
        facet_incidence(h)
    with pytest.raises(MatrixError, match="bounded"):
        facet_census(h)


def test_euler_relation_on_random_frame_polytopes():
    r = rng(42)
    for _ in range(20):
        h = build_h_polytope(rand_frame(r, 4))
        v = enumerate_vertices(h)
        facets = facet_incidence(h)
        on = [set() for _ in v.vertices]
        for f, (_, tight) in enumerate(facets):
            for i in tight:
                on[i].add(f)
        # two vertices of a 3-polytope span an edge exactly when they
        # share two facets
        edges = sum(
            1
            for i in range(len(on))
            for j in range(i + 1, len(on))
            if len(on[i] & on[j]) >= 2
        )
        assert len(v.vertices) - edges + len(facets) == 2
