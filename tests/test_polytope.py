import json
import math
import sys
from fractions import Fraction

import pytest

from conftest import rng, rand_frame, rand_tree_frame
from nilmat import polytope
from nilmat.exactmat import RMatrix, MatrixError
from nilmat.polytope import (
    HPolytope,
    LinearInequality,
    VPolytope,
    build_h_polytope,
    enumerate_vertices,
    export_polytope,
    facet_census,
    facet_incidence,
    is_bounded,
    matrix_from_params,
)
from nilmat.qflag import FlagFrame, is_doubly_stochastic, iso_backward
from nilmat.reference import DATASETS, reference_frame
from polytope_oracles import full_basis_double_description, inequalities, polytope_to_json_dict

F = Fraction


def ineq(constant, *coeffs):
    return LinearInequality(F(constant), tuple(F(c) for c in coeffs))


def simplex(d):
    rows = [ineq(0, *(1 if j == i else 0 for j in range(d))) for i in range(d)]
    rows.append(ineq(1, *([-1] * d)))
    return HPolytope(d, rows)


def cube(d):
    rows = []
    for i in range(d):
        e = [0] * d
        e[i] = 1
        rows.append(ineq(1, *e))
        rows.append(ineq(1, *[-x for x in e]))
    return HPolytope(d, rows)


def test_canonicalization_scales_to_coprime_integers():
    (a,) = HPolytope(3, [LinearInequality(F(1, 4), (F(1, 4), F(-3, 4), F(0)))]).rows
    assert a == (1, 1, -3, 0)
    (b,) = HPolytope(3, [LinearInequality(F(2, 8), (F(2, 8), F(-6, 8), F(0)))]).rows
    assert a == b
    (c,) = HPolytope(3, [LinearInequality(F(1, 4), (F(1, 2), F(0), F(0)))]).rows
    assert c == (1, 2, 0, 0)


def test_linear_inequality_keeps_its_value_semantics():
    """LinearInequality is a named tuple subclass with the repr, equality,
    hashing and immutability of a value."""
    a = ineq(1, F(1, 2), -3)
    assert repr(a) == (
        "LinearInequality(constant=Fraction(1, 1), coeffs=(Fraction(1, 2), Fraction(-3, 1)))"
    )
    assert a == ineq(1, F(1, 2), -3) and hash(a) == hash(ineq(1, F(1, 2), -3))
    assert a != ineq(2, F(1, 2), -3)
    assert (a.constant, a.coeffs) == (F(1), (F(1, 2), F(-3)))
    assert a.evaluate((2, 0)) == 2
    with pytest.raises(AttributeError):
        a.constant = F(2)
    with pytest.raises(AttributeError):
        a.extra = 1
    # the value is a tuple
    assert a == (F(1), (F(1, 2), F(-3)))


@pytest.mark.parametrize(
    "point",
    [[1], [1, 2, 3], [1.5, 1], [True, 1], None, "12", {0: 1, 1: 1}],
    ids=["short", "long", "float", "bool", "none", "str", "dict"],
)
def test_evaluate_refuses_points_of_another_length_or_inexact_entries(point):
    with pytest.raises(MatrixError):
        LinearInequality(1, (1, 1)).evaluate(point)
    assert LinearInequality(1, (1, 1)).evaluate(["1/2", 1]) == F(5, 2)


def test_hpolytope_deduplicates():
    h = HPolytope(2, [ineq(1, 2, 0), ineq(F(1, 2), 1, 0), ineq(1, 0, 1)])
    assert h.rows == ((1, 0, 1), (1, 2, 0))


@pytest.mark.parametrize(
    "build",
    [
        lambda: HPolytope(1.5, []),
        lambda: HPolytope(True, [ineq(1, 1)]),
        lambda: HPolytope(1, [(1, 1)]),
        lambda: HPolytope(1, [5]),
        lambda: HPolytope(1, 5),
        lambda: HPolytope(1, [LinearInequality(F(1), 5)]),
    ],
    ids=["float-d", "bool-d", "tuple-row", "int-row", "bare-int-rows", "int-coeffs"],
)
def test_constructors_refuse_malformed_input(build):
    with pytest.raises(MatrixError):
        build()


def test_parameter_positions_are_row_major():
    frame = FlagFrame.standard(4)
    assert frame.positions == ((0, 1), (0, 2), (1, 2))
    m = matrix_from_params(frame, [F(5), F(7), F(11)])
    assert m == RMatrix([[0, 5, 7], [0, 0, 11], [0, 0, 0]])
    with pytest.raises(MatrixError):
        matrix_from_params(frame, [F(1)])
    assert matrix_from_params(frame, [5, "7", F(11)]) == m
    partial = FlagFrame.standard(4, dims=[2, 3])
    assert partial.positions == ((0, 2), (1, 2))
    assert matrix_from_params(partial, [5, 7]) == RMatrix([[0, 0, 5], [0, 0, 7], [0, 0, 0]])


@pytest.mark.parametrize("size", [None, 1.5, True, -3, 0, 1001], ids=repr)
def test_parameter_positions_refuse_sizes_that_are_not_matrix_sizes(size):
    # the positions come from a frame, and the frame refuses the size
    with pytest.raises(MatrixError, match="matrix|matrices"):
        FlagFrame.standard(size).positions


@pytest.mark.parametrize(
    "size, x, message",
    [
        (4, [0.5, 0.25, 1.5], "inexact or unsupported entry type: float"),
        (4, [True, 0, 1], "inexact or unsupported entry type: bool"),
        ("4", [1, 2, 3], "matrix size must be an integer, got str"),
        (4.0, [1, 2, 3], "matrix size must be an integer, got float"),
        (4, "123", "matrix parameters must be a tuple or list"),
        (4, None, "matrix parameters must be a tuple or list"),
        (10**20, [], "matrices built by size are limited to 1000000 entries"),
        (4, [1, 2], "expected 3 parameters, got 2"),
    ],
    ids=[
        "float-params", "bool-param", "str-size", "float-size", "str-params", "none", "huge",
        "short",
    ],
)
def test_matrix_from_params_refuses_inexact_input(size, x, message):
    # a size that is not a matrix size is refused by the frame it would give
    with pytest.raises(MatrixError, match=f"^{message}$"):
        matrix_from_params(FlagFrame.standard(size), x)


def test_build_h_polytope_reproduces_reference_systems():
    for which in ("frame-a", "frame-b"):
        frame = reference_frame(which=which)
        h = build_h_polytope(frame)
        assert set(h.rows) == DATASETS["example1"][which]["inequalities"]


def test_origin_is_interior():
    for which in ("frame-a", "frame-b"):
        h = build_h_polytope(reference_frame(which=which))
        origin = (F(0),) * h.d
        assert all(iq.evaluate(origin) > 0 for iq in inequalities(h))


def test_build_rejects_one_block_flags():
    for n in (2, 3, 5):
        with pytest.raises(
            MatrixError, match=f"^a flag with the one block 1..{n - 1} has no polytope parameters$"
        ):
            build_h_polytope(FlagFrame.standard(n, dims=[n - 1]))


def test_segment_polytope_for_smallest_usable_frame():
    h = build_h_polytope(FlagFrame.standard(3))
    assert h.d == 1
    v = enumerate_vertices(h)
    assert len(v.vertices) == 2
    assert is_bounded(h)


def test_enumerate_vertices_simplex():
    v = enumerate_vertices(simplex(3))
    assert set(v.vertices) == {
        (F(0), F(0), F(0)),
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
    }


def test_enumerate_vertices_reproduces_reference_lists():
    for which in ("frame-a", "frame-b"):
        h = build_h_polytope(reference_frame(which=which))
        v = enumerate_vertices(h)
        assert set(v.vertices) == DATASETS["example1"][which]["vertices"]
    v = enumerate_vertices(build_h_polytope(FlagFrame.standard(4)))
    assert repr(v) == "VPolytope(d=3, 10 vertices)"


def test_vertices_satisfy_system_with_enough_tight_rows():
    h = build_h_polytope(reference_frame())
    v = enumerate_vertices(h)
    for p in v.vertices:
        values = [iq.evaluate(p) for iq in inequalities(h)]
        assert all(x >= 0 for x in values)
        assert sum(1 for x in values if x == 0) >= h.d


def test_enumeration_guards():
    with pytest.raises(MatrixError):
        enumerate_vertices(HPolytope(7, [ineq(1, *([1] * 7))]))
    many = HPolytope(2, [ineq(i + 2, 1, i + 1) for i in range(41)])
    # one size check guards every user of the double description
    for call in (enumerate_vertices, is_bounded, facet_incidence):
        with pytest.raises(MatrixError, match="vertex enumeration limited to d <= 6 and 40"):
            call(many)


def test_is_bounded_cases():
    assert is_bounded(build_h_polytope(reference_frame()))
    assert is_bounded(simplex(3))
    assert is_bounded(cube(3))
    # half plane
    assert not is_bounded(HPolytope(2, [ineq(1, 1, 0)]))
    # quadrant: full rank, two recession rays
    assert not is_bounded(HPolytope(2, [ineq(1, 1, 0), ineq(1, 0, 1)]))
    # bounded, though the rows do not sum to zero
    skew = HPolytope(2, [ineq(1, 1, 0), ineq(1, -2, 0), ineq(1, 0, 1), ineq(1, 0, -3)])
    assert is_bounded(skew)
    # free line: kernel direction despite three rows
    line = HPolytope(3, [ineq(1, 1, 0, 0), ineq(1, -1, 0, 0), ineq(1, 0, 1, 0)])
    assert not is_bounded(line)
    # one-dimensional cases
    assert is_bounded(HPolytope(1, [ineq(1, 1), ineq(1, -1)]))
    assert not is_bounded(HPolytope(1, [ineq(1, 1)]))
    assert not is_bounded(HPolytope(2, []))
    with pytest.raises(MatrixError):
        is_bounded(HPolytope(7, [ineq(1, *([1] * 7))]))


def test_double_description_runs_once_per_polytope(monkeypatch):
    runs = []
    run = polytope._run_double_description
    monkeypatch.setattr(polytope, "_run_double_description", lambda h: runs.append(h) or run(h))
    h = build_h_polytope(reference_frame())
    assert is_bounded(h)
    first = enumerate_vertices(h)
    assert enumerate_vertices(h) == first
    assert runs == [h]
    # the cached result takes no part in equality
    assert h == build_h_polytope(reference_frame())


def test_random_frame_polytopes_are_bounded():
    r = rng(40)
    for n in (4, 5):
        for _ in range(5):
            assert is_bounded(build_h_polytope(rand_frame(r, n)))


def test_facet_census_reference_and_cube():
    for which in ("frame-a", "frame-b"):
        h = build_h_polytope(reference_frame(which=which))
        assert dict(facet_census(h)) == DATASETS["example1"][which]["census"]
    c = cube(3)
    assert dict(facet_census(c)) == {4: 6}
    with pytest.raises(MatrixError):
        facet_census(simplex(2))


def test_facets_have_enough_incident_vertices():
    h = build_h_polytope(reference_frame())
    incidence = facet_incidence(h)
    assert len(incidence) == 7
    assert all(len(tight) >= h.d for _, tight in incidence)


def test_scaled_vertex_segments_contain_origin_strictly():
    h = build_h_polytope(reference_frame())
    v = enumerate_vertices(h)
    for w in v.vertices:
        lo, hi = None, None
        for iq in inequalities(h):
            slope = iq.evaluate(w) - iq.constant
            if slope < 0:
                bound = -iq.constant / slope
                hi = bound if hi is None else min(hi, bound)
            elif slope > 0:
                bound = -iq.constant / slope
                lo = bound if lo is None else max(lo, bound)
        assert lo is not None and hi is not None
        assert lo < 0 < hi
        assert hi >= 1  # the vertex itself is feasible


def test_feasibility_matches_double_stochasticity():
    r = rng(41)
    frame = reference_frame()
    h = build_h_polytope(frame)
    v = enumerate_vertices(h)
    points = [(F(0),) * 3]
    for w in v.vertices:
        points.append(tuple(F(1, 2) * x for x in w))
        points.append(tuple(2 * x for x in w))
    for _ in range(20):
        points.append(tuple(F(r.randint(-4, 4), 4) for _ in range(3)))
    for x in points:
        feasible = all(iq.evaluate(x) >= 0 for iq in inequalities(h))
        member = iso_backward(matrix_from_params(frame, x), frame)
        assert feasible == is_doubly_stochastic(member)


def dumped(v, h):
    """The JSON export as the stdlib encoder writes it."""
    return (json.dumps(polytope_to_json_dict(v, h), indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("make", [rand_frame, rand_tree_frame], ids=["dense", "tree"])
def test_json_export_matches_json_dumps(make, n):
    for seed in range(4):
        h = build_h_polytope(make(rng(seed), n))
        assert export_polytope(h, "json") == dumped(enumerate_vertices(h), h)


def test_json_export_of_empty_lists_matches_json_dumps():
    for h in (
        # no rows and no vertices
        HPolytope(2, []),
        # a box with x >= 1 and x <= -1 has rows but no vertices
        HPolytope(1, [ineq(-1, 1), ineq(-1, -1)]),
        # the point x = 1/3 has both
        HPolytope(1, [ineq(1, -3), ineq(-1, 3)]),
    ):
        assert export_polytope(h, "json") == dumped(enumerate_vertices(h), h)


def test_json_export_digit_limit_matches_json_dumps():
    limit = sys.get_int_max_str_digits()
    half = 10 ** (limit // 2)
    # limit digits are written, limit + 1 refused, in a row or a vertex
    for big, writable in ((10**limit - 1, True), (10**limit, False)):
        # the point x = half y, y = b has the coordinate half b, of limit
        # digits or limit + 1, from rows of about half as many
        b = big // half
        for h in (
            HPolytope(1, [ineq(big, -1), ineq(-big, 1)]),
            HPolytope(1, [ineq(1, big), ineq(-1, -big)]),
            HPolytope(1, [ineq(big, 1)]),
            HPolytope(1, [ineq(1, big)]),
            HPolytope(2, [ineq(0, 1, -half), ineq(0, -1, half), ineq(-b, 0, 1), ineq(b, 0, -1)]),
            HPolytope(2, [ineq(0, half, -1), ineq(0, -half, 1), ineq(1, 0, b), ineq(-1, 0, -b)]),
        ):
            v = enumerate_vertices(h)
            if writable:
                assert export_polytope(h, "json") == dumped(v, h)
                continue
            for write in (lambda: export_polytope(h, "json"), lambda: dumped(v, h)):
                with pytest.raises(MatrixError, match="^number has too many digits to write out$"):
                    write()


def test_ray_built_vertices_equal_fraction_built_ones():
    for seed in range(4):
        h = build_h_polytope(rand_frame(rng(seed), 4))
        v = enumerate_vertices(h)
        assert isinstance(v, VPolytope) and v.d == h.d
        assert list(v.vertices) == sorted(set(v.vertices))
        for y, p in zip(v.rays, v.vertices, strict=True):
            assert y[0] > 0 and math.gcd(*y) == 1
            assert p == tuple(F(x, y[0]) for x in y[1:])
    # the double description is the only way to build one
    with pytest.raises(TypeError):
        VPolytope(2, [(1, 2)])


def seeded_frames(kind):
    r = rng(1)
    if kind == "dense-d3":
        return [rand_frame(r, 4) for _ in range(60)]
    if kind == "tree-d6":
        return [rand_tree_frame(r, 5) for _ in range(60)]
    # the frames of the pinned "seeded-d6-dense" builds in test_cli.py
    return [rand_frame(rng(k), 5) for k in range(8)]


@pytest.mark.parametrize("kind", ["dense-d3", "tree-d6", "dense-d6", "segment"])
def test_double_description_matches_the_full_basis_oracle(kind):
    """The pass starts from one vertex and its d edges; the oracle solves
    the full (d + 1)-row basis. Both must give the same (ray, mask) list,
    in the same order, and the same unbounded flag."""
    frames = [FlagFrame.standard(3)] if kind == "segment" else seeded_frames(kind)
    for h in map(build_h_polytope, frames):
        assert polytope._run_double_description(h) == full_basis_double_description(h)


@pytest.mark.parametrize("kind", ["dense-d3", "tree-d6", "dense-d6"])
def test_vertex_order_is_the_fraction_order(kind):
    """The double description sorts its vertices by an integer key scaled
    by the square of the largest t, not by the lcm of every t. Its order
    must be the one of Fraction tuples on the benchmark's kinds of frames
    and on dense n = 5 frames, whose lcm runs to thousands of bits."""
    lcm_bits, key_bits = [], []
    for frame in seeded_frames(kind):
        h = build_h_polytope(frame)
        v = enumerate_vertices(h)
        assert list(v.vertices) == sorted(set(v.vertices))
        lcm_bits.append(math.lcm(*(y[0] for y in v.rays)).bit_length())
        key_bits.append((max(y[0] for y in v.rays) ** 2).bit_length())
    if kind == "dense-d6":
        assert max(lcm_bits) > 4000 and max(key_bits) < 64


def test_off_export_tetrahedron():
    h = build_h_polytope(reference_frame(which="frame-b"))
    text = export_polytope(h, "off").decode()
    lines = text.strip().splitlines()
    assert lines[0] == "OFF"
    nv, nf, ne = (int(x) for x in lines[1].split())
    assert (nv, nf, ne) == (4, 4, 6)
    coords = [line.split() for line in lines[2 : 2 + nv]]
    assert all(len(c) == 3 for c in coords)
    faces = [line.split() for line in lines[2 + nv :]]
    assert len(faces) == nf
    for face in faces:
        size = int(face[0])
        idx = [int(x) for x in face[1:]]
        assert len(idx) == size == 3
        assert all(0 <= i < nv for i in idx)


def test_off_export_refuses_coordinates_beyond_floats():
    # scaling the last frame column by 10^400 scales some parameters by as much
    f = reference_frame(which="frame-b").f.to_rows()
    big = FlagFrame(RMatrix([row[:3] + [row[3] * 10**400] for row in f]), (1, 2, 3))
    h = build_h_polytope(big)
    v = enumerate_vertices(h)
    assert max(abs(x) for p in v.vertices for x in p) > 10**399
    with pytest.raises(MatrixError, match="OFF faces are ordered in floats"):
        export_polytope(h, "off")


def test_off_export_has_twenty_significant_digits():
    h = build_h_polytope(reference_frame())
    text = export_polytope(h, "off").decode()
    assert "0.66666666666666666667" in text


def test_off_export_rejects_flat_input():
    # a square squashed into the z = 0 plane has no interior
    flat = HPolytope(
        3,
        [
            ineq(1, 1, 0, 0),
            ineq(1, -1, 0, 0),
            ineq(1, 0, 1, 0),
            ineq(1, 0, -1, 0),
            ineq(0, 0, 0, 1),
            ineq(0, 0, 0, -1),
        ],
    )
    # a box with x >= 1 and x <= -1 is bounded but has no vertices
    empty = HPolytope(
        3,
        [
            ineq(-1, 1, 0, 0),
            ineq(-1, -1, 0, 0),
            ineq(1, 0, 1, 0),
            ineq(1, 0, -1, 0),
            ineq(1, 0, 0, 1),
            ineq(1, 0, 0, -1),
        ],
    )
    assert is_bounded(empty)
    for h, count in ((flat, 4), (empty, 0)):
        assert len(enumerate_vertices(h).vertices) == count
        with pytest.raises(MatrixError, match="degenerate polytope"):
            export_polytope(h, "off")
    for fmt in ("obj", ["json"], b"json", None, 10**5000):
        with pytest.raises(MatrixError, match="^unknown export format: "):
            export_polytope(flat, fmt)
