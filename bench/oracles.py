"""Output oracles for the benchmark's jobs.

Every check here uses its own small Fraction routines, never nilmat's, so a
fault in the code being timed cannot also hide itself from its check. A
check returns nothing when the output is right and raises OracleError
saying what is wrong otherwise.
"""

import json
import math
from fractions import Fraction
from itertools import combinations


class OracleError(Exception):
    """A job's output was rejected."""


def require(condition, message):
    if not condition:
        raise OracleError(message)


# -- exact linear algebra, written independently of nilmat.exactmat -----------


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def inverse(a):
    """Gauss-Jordan inverse of a square Fraction matrix; ValueError if
    singular."""
    n = len(a)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[c], aug[piv] = aug[piv], aug[c]
        p = aug[c][c]
        aug[c] = [x / p for x in aug[c]]
        for r in range(n):
            f = aug[r][c]
            if r != c and f != 0:
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def rank(rows):
    a = [list(map(Fraction, r)) for r in rows]
    if not a:
        return 0
    r = 0
    for c in range(len(a[0])):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return r


def is_zero(m):
    return all(x == 0 for row in m for x in row)


def nilpotency_index(b):
    """Least k >= 1 with b^k = 0 (b assumed nilpotent)."""
    p, k = b, 1
    while not is_zero(p):
        p, k = matmul(p, b), k + 1
        require(k <= len(b) + 1, "matrix is not nilpotent")
    return k


def embed(frame, finv, b):
    """F . diag(1, B) . F^-1, the unit-sum matrix of a reduced matrix."""
    n = len(frame)
    block = [[Fraction(int(i == j == 0)) for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        for j in range(n - 1):
            block[i + 1][j + 1] = b[i][j]
    return matmul(matmul(frame, block), finv)


def reduce(frame, finv, a):
    """(F^-1 . A . F) with its constant block checked and stripped."""
    m = matmul(matmul(finv, a), frame)
    n = len(frame)
    require(
        m[0][0] == 1 and all(m[0][j] == 0 and m[j][0] == 0 for j in range(1, n)),
        "matrix does not have unit row and column sums",
    )
    return [row[1:] for row in m[1:]]


def block_of(dims, j):
    """1-based block of reduced coordinate j (1-based) under breakpoints."""
    return next(i + 1 for i, d in enumerate(dims) if j <= d)


def strictly_block_upper(b, dims):
    return all(
        x == 0 or block_of(dims, i + 1) < block_of(dims, j + 1)
        for i, row in enumerate(b)
        for j, x in enumerate(row)
    )


def is_doubly_stochastic(a):
    n = len(a)
    return (
        all(x >= 0 for row in a for x in row)
        and all(sum(row) == 1 for row in a)
        and all(sum(a[i][j] for i in range(n)) == 1 for j in range(n))
    )


# -- JSON formats ---------------------------------------------------------------


def matrix_json(m):
    return {
        "rows": len(m),
        "cols": len(m[0]),
        "entries": [[_fmt(x) for x in row] for row in m],
    }


def _fmt(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_matrix_json(text):
    try:
        obj = json.loads(text)
        rows = [[Fraction(x) for x in row] for row in obj["entries"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise OracleError(f"output is not a matrix JSON: {exc}") from exc
    require(
        obj.get("rows") == len(rows) and all(len(r) == obj.get("cols") for r in rows),
        "matrix JSON shape fields disagree with its entries",
    )
    return rows


# -- flag polytopes -------------------------------------------------------------


def canonical(constant, coeffs):
    """Scale constant + coeffs . x >= 0 by a positive rational to coprime
    integers."""
    values = [Fraction(constant)] + [Fraction(c) for c in coeffs]
    den = math.lcm(*(v.denominator for v in values))
    ints = [int(v * den) for v in values]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def flag_inequalities(frame):
    """The entry-nonnegativity system of a complete-flag frame, as a set of
    canonical integer tuples (constant, coeffs...).

    In parameters x_t of the strictly upper triangular reduced matrix, entry
    (i, j) of F . diag(1, B) . F^-1 is 1/n + sum_t F[i][a+1] Finv[b+1][j] x_t
    where t = (a, b). Entries with no parameter dependence are vacuous.
    """
    n = len(frame)
    finv = inverse(frame)
    positions = [(a, b) for a in range(n - 1) for b in range(a + 1, n - 1)]
    out = set()
    for i in range(n):
        for j in range(n):
            coeffs = [frame[i][a + 1] * finv[b + 1][j] for a, b in positions]
            if any(coeffs):
                out.add(canonical(Fraction(1, n), coeffs))
    return out


def _facet_census(d, inequalities, vertices):
    census = {}
    for row in inequalities:
        tight = [v for v in vertices if _slack(row, v) == 0]
        if len(tight) >= d and rank([[x - y for x, y in zip(v, tight[0])] for v in tight[1:]]) == d - 1:
            census[len(tight)] = census.get(len(tight), 0) + 1
    return census


def _slack(row, v):
    return row[0] + sum(c * x for c, x in zip(row[1:], v))


def _dot(xs, ys):
    return sum(x * y for x, y in zip(xs, ys))


def _null_vector(rows, d):
    """The kernel direction of rows (d - 1 vectors in d dimensions), or None
    when the kernel is not a line."""
    a = [list(map(Fraction, r)) for r in rows]
    pivots = []
    for c in range(d):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            f = a[i][c]
            if i != r and f != 0:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    free = [c for c in range(d) if c not in pivots]
    if len(free) != 1:
        return None
    y = [Fraction(0)] * d
    y[free[0]] = Fraction(1)
    for i, c in enumerate(pivots):
        y[c] = -a[i][free[0]]
    scale = abs(next(x for x in y if x != 0))
    return tuple(x / scale for x in y)


def _edge_directions(d, tight):
    """Extreme rays of the cone {y : t . y >= 0 for the tight rows t}, the
    directions of the edges leaving a vertex; OracleError when the tight
    rows have rank below d, so that the point is no vertex."""
    if len(tight) == d:
        try:
            return list(zip(*inverse(tight)))  # A_T y = e_i
        except ValueError:
            raise OracleError(f"tight rank below {d}: not a vertex") from None
    require(rank(tight) == d, f"tight rank below {d}: not a vertex")
    rays = set()
    for subset in combinations(tight, d - 1):
        y = _null_vector(subset, d)
        if y is None:
            continue
        for ray in (y, tuple(-x for x in y)):
            if all(_dot(t, ray) >= 0 for t in tight):
                rays.add(ray)
    return rays


def _check_vertices(d, rows, vertices):
    """Each point satisfies every row and is a vertex, and walking each edge
    from it reaches a listed vertex. The graph of a polytope is connected,
    so a nonempty vertex set that holds every neighbour of its members holds
    all the vertices."""
    require(vertices, "no vertices listed")
    listed = set(vertices)
    for v in vertices:
        slacks = [_slack(row, v) for row in rows]
        require(min(slacks) >= 0, f"vertex {v} violates an inequality")
        tight = [row[1:] for row, s in zip(rows, slacks) if s == 0]
        for y in _edge_directions(d, tight):
            den = math.lcm(*(Fraction(x).denominator for x in y))
            y = [int(x * den) for x in y]  # integer rows then give integer rates
            rates = [(s, _dot(row[1:], y)) for row, s in zip(rows, slacks)]
            steps = [s / -rate for s, rate in rates if rate < 0]
            require(steps, f"unbounded edge at vertex {v}")
            step = min(steps)
            w = tuple(x + step * dy for x, dy in zip(v, y))
            require(w in listed, f"vertex {w} is missing: it neighbours {v}")


def check_polytope_build(stdout, out_bytes, out_path, d, inequalities, census):
    """`polytope build --out` on a complete-flag frame.

    inequalities is the frame's system from flag_inequalities. The JSON
    must list exactly that system; every vertex must satisfy it and be tight
    on inequalities of rank d; every neighbour of a listed vertex, found by
    walking each edge to the next vertex, must be listed (so none is
    missing); the printed counts must match the JSON. With census, the
    printed census must equal the one recomputed from the JSON vertices,
    and Euler's relation V - E + F = 2 must hold.
    """
    lines = stdout.splitlines()
    try:
        obj = json.loads(out_bytes)
        got = [canonical(iq["constant"], iq["coeffs"]) for iq in obj["inequalities"]]
        vertices = [tuple(Fraction(x) for x in v) for v in obj["vertices"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise OracleError(f"--out file is not a polytope JSON: {exc}") from exc
    require(obj.get("d") == d, f"JSON dimension {obj.get('d')} != {d}")
    require(len(set(got)) == len(got) and set(got) == inequalities, "JSON inequalities differ from the frame's system")
    require(len(set(vertices)) == len(vertices), "duplicate vertex in JSON")
    require(all(len(v) == d for v in vertices), "vertex of wrong arity")
    _check_vertices(d, got, vertices)
    expected = [
        f"d = {d}",
        f"inequalities = {len(got)}",
        f"vertices = {len(vertices)}",
        "bounded = true",
    ]
    if census:
        own = _facet_census(d, got, vertices)
        body = ", ".join(f"{size}: {count}" for size, count in sorted(own.items()))
        expected.append(f"facet census = {{{body}}}")
        facets = sum(own.values())
        twice_edges = sum(size * count for size, count in own.items())
        require(twice_edges % 2 == 0, "facet sizes sum to an odd number")
        require(len(vertices) - twice_edges // 2 + facets == 2, "Euler's relation V - E + F = 2 fails")
    expected.append(f"wrote {out_path}")
    require(lines == expected, f"printed report {lines!r} != expected {expected!r}")


def check_verify(rc, stdout):
    lines = stdout.splitlines()
    require(rc == 0, f"verify exited {rc}")
    require(lines and lines[-1] == "all checks passed", "verify did not report all checks passed")
    require(all(line.startswith("PASS ") for line in lines[:-1]), "verify reported a failed check")


# -- ordered partitions and patterns --------------------------------------------


def surjections(n, k):
    """Ordered partitions of an n-set into k blocks, by inclusion-exclusion."""
    return sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1))


def check_partition_lines(lines, n, k):
    """All ordered partitions of 1..n into k blocks, one per line like
    "1,3|2", each once, in strictly increasing order of the vector (block
    of 1, ..., block of n)."""
    expected = surjections(n, k)
    require(len(lines) == expected, f"{len(lines)} partitions listed, {expected} exist")
    prev = None
    for line in lines:
        try:
            blocks = [tuple(int(x) for x in part.split(",")) for part in line.split("|")]
        except ValueError as exc:
            raise OracleError(f"unparsable partition line {line!r}") from exc
        require(len(blocks) == k, f"{line!r} does not have {k} blocks")
        require(all(list(b) == sorted(set(b)) and b for b in blocks), f"{line!r} has an unsorted block")
        require(sorted(x for b in blocks for x in b) == list(range(1, n + 1)), f"{line!r} does not partition 1..{n}")
        where = {x: i for i, b in enumerate(blocks) for x in b}
        vec = tuple(where[x] for x in range(1, n + 1))
        require(prev is None or vec > prev, f"{line!r} repeated or out of canonical order")
        prev = vec


def render_partition(blocks):
    return "|".join(",".join(str(x) for x in b) for b in blocks)


def check_partition_json(stdout, out_bytes, out_path, n, k):
    obj = json.loads(out_bytes)
    parts = obj["partitions"]
    require((obj["n"], obj["k"], obj["count"]) == (n, k, len(parts)), "JSON header disagrees with its list")
    require(stdout == f"wrote {len(parts)} partitions to {out_path}\n", f"unexpected report {stdout!r}")
    check_partition_lines([render_partition(p) for p in parts], n, k)


def partition_bits(blocks):
    """Pattern of an ordered partition: (i, j) when i's block precedes j's,
    1-based, row-major."""
    where = {x: i for i, b in enumerate(blocks) for x in b}
    n = len(where)
    return [[i, j] for i in range(1, n + 1) for j in range(1, n + 1) if where[i] < where[j]]


def order_bits(seq):
    pos = {x: t for t, x in enumerate(seq)}
    n = len(seq)
    return [[i, j] for i in range(1, n + 1) for j in range(1, n + 1) if pos[i] < pos[j]]


def pattern_index(n, bits):
    """Nilpotency index of a pattern: one more than its longest path, or
    None when it has a cycle."""
    succ = {i: [j for a, j in bits if a == i] for i in range(1, n + 1)}
    longest = {}

    def depth(v, seen):
        if v in seen:
            return None
        if v not in longest:
            best = 0
            for w in succ[v]:
                dw = depth(w, seen | {v})
                if dw is None:
                    return None
                best = max(best, dw + 1)
            longest[v] = best
        return longest[v]

    depths = [depth(v, frozenset()) for v in range(1, n + 1)]
    return None if None in depths else max(depths) + 1


def check_pattern(stdout, n, bits):
    try:
        obj = json.loads(stdout)
    except ValueError as exc:
        raise OracleError("pattern output is not JSON") from exc
    require(obj == {"n": n, "bits": bits}, "pattern bits differ from the partition's order relation")


def member_expected(a, bits, kind):
    """Membership of a nonnegative-ambient matrix in a pattern semigroup."""
    allowed = {(i - 1, j - 1) for i, j in bits}
    support = {(i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x != 0}
    if kind in ("omega", "m0plus") and any(x < 0 for row in a for x in row):
        return False
    if kind in ("m0", "m0plus"):
        rows = [i for i, _ in support]
        cols = [j for _, j in support]
        if len(set(rows)) < len(rows) or len(set(cols)) < len(cols):
            return False
    return support <= allowed


def check_text(stdout, expected):
    require(stdout == expected, f"output {stdout!r} != expected {expected!r}")


# -- unit-sum matrices and frames -----------------------------------------------


def check_matrix_output(stdout, expected):
    require(parse_matrix_json(stdout) == expected, "matrix output differs from the exact expected matrix")


def check_make_nilpotent(stdout, frame, finv, dims, index):
    """Doubly stochastic, in the flag's nilpotent semigroup, and of the
    reduced matrix's nilpotency class."""
    s = parse_matrix_json(stdout)
    require(is_doubly_stochastic(s), "make-nilpotent output is not doubly stochastic")
    b = reduce(frame, finv, s)
    require(strictly_block_upper(b, dims), "make-nilpotent output is not in the flag's subsemigroup")
    require(nilpotency_index(b) == index, "make-nilpotent output changed the nilpotency class")
