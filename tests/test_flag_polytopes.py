"""The doubly stochastic polytope of every flag with two or more blocks.

A flag with k blocks labels a class-k subsemigroup; its polytope lives on
the frame's positions. Refining the flag to a complete one on the same
frame and cutting that polytope by x_(i,j) = 0 on the same-block pairs
gives the same polytope, so its vertices, restricted to the flag's
positions, are an oracle for the flag's own."""

import json

import pytest

from conftest import all_dims, rng, rand_frame
from nilmat.cli import main
from nilmat.polytope import (
    HPolytope,
    LinearInequality,
    _facet_masks,
    build_h_polytope,
    enumerate_vertices,
    is_bounded,
    matrix_from_params,
)
from nilmat.qflag import (
    FlagFrame,
    flag_membership,
    is_doubly_stochastic,
    iso_backward,
    nilpotency_class,
)
from polytope_oracles import _affine_rank

FLAGS = [(n, dims) for n in (3, 4, 5) for dims in all_dims(n) if len(dims) >= 2]


def frames(n, dims):
    """The standard frame and two seeded random frames of the flag."""
    return [FlagFrame.standard(n, dims)] + [rand_frame(rng(seed), n, dims) for seed in (1, 2)]


def refined_cut_vertices(frame):
    """Vertices of the refined complete flag's polytope cut by x_p = 0 for
    each position p outside the flag's, restricted to the flag's positions."""
    complete = FlagFrame(frame.f, range(1, frame.n))
    h = build_h_polytope(complete)
    rows = [LinearInequality(row[0], row[1:]) for row in h.rows]
    for p in complete.positions:
        if p not in frame.positions:
            unit = tuple(int(q == p) for q in complete.positions)
            rows.append(LinearInequality(0, unit))
            rows.append(LinearInequality(0, tuple(-x for x in unit)))
    kept = [complete.positions.index(p) for p in frame.positions]
    cut = enumerate_vertices(HPolytope(h.d, rows))
    return sorted(tuple(x[i] for i in kept) for x in cut.vertices)


@pytest.mark.parametrize("n, dims", FLAGS, ids=str)
def test_flag_polytope_is_the_refined_cut(n, dims):
    for frame in frames(n, dims):
        h = build_h_polytope(frame)
        assert h.d == len(frame.positions)
        assert is_bounded(h)
        assert all(row[0] > 0 for row in h.rows)
        assert list(enumerate_vertices(h).vertices) == refined_cut_vertices(frame)


@pytest.mark.parametrize("n, dims", FLAGS, ids=str)
def test_flag_polytope_is_full_dimensional(n, dims):
    for frame in frames(n, dims):
        h = build_h_polytope(frame)
        v = enumerate_vertices(h)
        everything = (1 << len(v.rays)) - 1
        facets = _facet_masks(h)
        # an implicit row would be tight on every vertex
        assert len(facets) > h.d
        assert all(0 < m < everything for _, m in facets)
        assert _affine_rank(v.vertices) == h.d


@pytest.mark.parametrize("n, dims", FLAGS, ids=str)
def test_flag_polytope_vertices_are_members_of_class_at_most_k(n, dims):
    k = len(dims)
    for frame in frames(n, dims):
        classes = []
        for x in enumerate_vertices(build_h_polytope(frame)).vertices:
            a = iso_backward(matrix_from_params(frame, x), frame)
            assert is_doubly_stochastic(a)
            assert flag_membership(a, frame)
            classes.append(nilpotency_class(a))
        assert max(classes) == k


@pytest.mark.parametrize(
    "n, a, vertices",
    [(6, 1, 14), (6, 2, 24), (6, 3, 36), (6, 4, 5), (7, 1, 60), (7, 5, 6)],
)
def test_two_block_flags_enumerate_within_the_limits(n, a, vertices):
    h = build_h_polytope(FlagFrame.standard(n, (a, n - 1)))
    assert h.d == a * (n - 1 - a)
    assert len(enumerate_vertices(h).rays) == vertices
    assert is_bounded(h)


@pytest.mark.parametrize("dims, header", [((1, 4), "12 8 18"), ((3, 4), "4 4 6")], ids=str)
def test_two_block_build_writes_a_closed_off_mesh(dims, header, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "frame.json").write_text(json.dumps(FlagFrame.standard(5, dims).to_json_dict()))
    argv = ["polytope", "build", "--frame", "frame.json", "--census", "--off", "x.off"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "d = 3\n" in out and "bounded = true\n" in out and "facet census = {" in out
    lines = (tmp_path / "x.off").read_text().splitlines()
    assert lines[1] == header
    v, f, e = map(int, lines[1].split())
    assert v - e + f == 2
