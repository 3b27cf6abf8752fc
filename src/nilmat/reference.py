"""Bundled reference data for the two worked 4x4 frames.

The "example1" dataset pins down, for two concrete complete flags, the
exact inequality systems, vertex lists, and facet censuses of the doubly
stochastic polytopes. The verify command recomputes everything from the
frame matrices alone and diffs against these constants.
"""

from fractions import Fraction

from .exactmat import MatrixError, RMatrix, _shown, format_rational
from .polytope import build_h_polytope, enumerate_vertices, facet_census
from .qflag import FlagFrame

F = Fraction

_FRAME_A = (
    (1, 1, 1, 1),
    (1, -1, 0, 0),
    (1, 0, -1, 0),
    (1, 0, 0, -1),
)

_FRAME_B = (
    (1, 0, 1, 1),
    (1, 0, 1, 0),
    (1, 1, 1, 0),
    (1, -1, -3, -1),
)

# canonical (constant, coeff_a, coeff_b, coeff_c) integer rows
_INEQS_A = {
    (1, 1, 1, 1),
    (1, -3, 1, 1),
    (1, 1, -3, -3),
    (1, -1, 3, 0),
    (1, 3, -1, 0),
    (1, -1, -1, 0),
    (1, 0, 0, 3),
    (1, 0, 0, -1),
}

_INEQS_B = {
    (1, -1, 4, 4),
    (1, 3, -4, -4),
    (1, 1, -4, -12),
    (1, -3, 4, 12),
    (1, 0, 0, 4),
    (1, 0, 0, -4),
    (1, -1, 0, 0),
    (1, 1, 0, 0),
}

_VERTICES_A = {
    (F(-5, 12), F(-1, 4), F(-1, 3)),
    (F(-1, 4), F(-5, 12), F(-1, 3)),
    (F(1, 8), F(-7, 24), F(-1, 3)),
    (F(5, 12), F(7, 12), F(-1, 3)),
    (F(1, 4), F(3, 4), F(-1, 3)),
    (F(-1, 8), F(5, 8), F(-1, 3)),
    (F(-1, 2), F(-1, 2), F(0)),
    (F(1, 2), F(1, 2), F(0)),
    (F(-1, 2), F(-1, 2), F(2, 3)),
    (F(1, 2), F(-1, 6), F(2, 3)),
}

_VERTICES_B = {
    (F(1), F(5, 4), F(-1, 4)),
    (F(1), F(-1, 4), F(1, 4)),
    (F(-1), F(-1, 4), F(-1, 4)),
    (F(-1), F(-3, 4), F(1, 4)),
}

_CENSUS_A = {6: 1, 5: 2, 4: 2, 3: 2}
_CENSUS_B = {3: 4}

DATASETS = {
    "example1": {
        "frame-a": {
            "matrix": _FRAME_A,
            "inequalities": _INEQS_A,
            "vertices": _VERTICES_A,
            "census": _CENSUS_A,
        },
        "frame-b": {
            "matrix": _FRAME_B,
            "inequalities": _INEQS_B,
            "vertices": _VERTICES_B,
            "census": _CENSUS_B,
        },
    },
}


def _dataset(name):
    if not isinstance(name, str):
        raise MatrixError(f"dataset name must be a string, got {type(name).__name__}")
    if name not in DATASETS:
        raise MatrixError(f"unknown verification dataset: {name!r}")
    return DATASETS[name]


def reference_frame(name="example1", which="frame-a"):
    frames = _dataset(name)
    # frames are named by strings, and an unhashable which must not reach
    # the dict lookup
    if not isinstance(which, str) or which not in frames:
        raise MatrixError(f"unknown frame of {name}: {_shown(which)}")
    return _frame(frames[which])


def _frame(entry):
    return FlagFrame(RMatrix(entry["matrix"]), (1, 2, 3))


def _fmt_tuple(values):
    return "(" + ", ".join(format_rational(x) for x in values) + ")"


def _diff_sets(expected, actual, fmt):
    missing = sorted(expected - actual)
    extra = sorted(actual - expected)
    parts = []
    if missing:
        parts.append("missing " + ", ".join(fmt(x) for x in missing))
    if extra:
        parts.append("unexpected " + ", ".join(fmt(x) for x in extra))
    return "; ".join(parts)


def _check(name, ok, detail, diff):
    """One check dict; diff describes a failure and is blank on success."""
    return {"name": name, "ok": ok, "detail": detail, "diff": "" if ok else diff}


def run_checks(dataset):
    """Recompute each frame's polytope and diff against the dataset.

    Returns a list of check dicts with a name, an ok flag, a display
    detail, and a diff string when the check failed.
    """
    checks = []
    for which, entry in sorted(dataset.items()):
        h = build_h_polytope(_frame(entry))
        v = enumerate_vertices(h)
        ineqs, want_ineqs = set(h.rows), set(entry["inequalities"])
        vertices = set(v.vertices)
        want_vertices = set(entry["vertices"])
        census, want_census = dict(facet_census(h)), dict(entry["census"])
        checks += [
            _check(
                f"{which} inequalities",
                ineqs == want_ineqs,
                f"{len(ineqs)} canonical inequalities",
                _diff_sets(want_ineqs, ineqs, _fmt_tuple),
            ),
            _check(
                f"{which} vertices",
                vertices == want_vertices,
                ", ".join(_fmt_tuple(p) for p in v.vertices),
                _diff_sets(want_vertices, vertices, _fmt_tuple),
            ),
            _check(
                f"{which} facet census",
                census == want_census,
                _fmt_census(census),
                f"expected {_fmt_census(want_census)}, got {_fmt_census(census)}",
            ),
        ]
    return checks


def _fmt_census(census):
    return (
        "{"
        + ", ".join(f"{size}-gon x{count}" for size, count in sorted(census.items()))
        + "}"
    )


def verify(name="example1"):
    """Run all checks for a named dataset; (all_ok, checks)."""
    checks = run_checks(_dataset(name))
    return all(c["ok"] for c in checks), checks
