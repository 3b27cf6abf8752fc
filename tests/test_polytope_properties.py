"""Property tests for vertex enumeration and boundedness: the double
description routine against the brute-force oracles on small random
H-polytopes, and Euler's relation on random flag polytopes."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import rng, rand_frame
from nilmat.polytope import (
    HPolytope,
    LinearInequality,
    build_h_polytope,
    enumerate_vertices,
    facet_incidence,
    is_bounded,
)
from polytope_oracles import brute_force_is_bounded, brute_force_vertices

# derandomized and without an example database, so every run checks the
# same examples and writes nothing
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def h_polytopes(draw):
    """Random rows, some cut to a box, some pinned to a hyperplane: the
    mix holds empty, unbounded, lower-dimensional and full polytopes."""
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
    return HPolytope(
        d,
        [LinearInequality(Fraction(c), tuple(Fraction(x) for x in a)) for c, a in rows],
    )


@PROPERTY
@given(h_polytopes())
def test_double_description_agrees_with_brute_force(h):
    assert set(enumerate_vertices(h).vertices) == brute_force_vertices(h)
    assert is_bounded(h) == brute_force_is_bounded(h)


def test_euler_relation_on_random_frame_polytopes():
    r = rng(42)
    for _ in range(20):
        h = build_h_polytope(rand_frame(r, 4))
        v = enumerate_vertices(h)
        facets = facet_incidence(h, v)
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
