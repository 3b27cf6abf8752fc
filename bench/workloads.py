"""The benchmark's four workloads: seeded inputs and the jobs that use them.

A job is one in-process call of `nilmat.cli.main(argv)` with stdout
captured, or, where the CLI has no path for an operation, one public library
call. Every input is generated here from the seed, with the benchmark's own
exact code, and written to a file before timing starts; the program only
ever sees those files. Each job carries the oracle that checks its output.

Workload sizes are fixed and only the contents come from the seed, so two
seeds give the same mix of work. Job lists are interleaved so that any
prefix of a list has about the same mix as the whole.
"""

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracles
from nilmat import boolrel, omega

# Inequality counts of the random frames, one entry per job. The counts set
# the C(m, d) subset loop, so fixing them per seed keeps the cost mix fixed.
D3_PLAN = (16, 12, 16, 16, 8, 16, 16, 15, 16, 16) * 16
# At d=6, as many frames cost less than the 14s as more, so the median job
# is the middle 14-inequality frame rather than a boundary between sizes.
D6_PLAN = (13, 14, 15, 13, 16, 14, 13, 15, 14)
# Frame sizes of the flag-algebra workload, one frame per entry.
FLAG_SIZES = (5, 6, 7, 8) * 8
ENUMERATE_TEXT = ((8, 4), (7, 3), (6, 2), (5, 3))
ENUMERATE_JSON = ((7, 4), (6, 3))
LIGHT_SIZES = (2, 3, 4, 5, 5, 6, 7, 8)


@dataclass
class Job:
    """One unit of timed work: `argv` for a CLI job, else `call`."""

    label: str
    check: Callable
    argv: Optional[list] = None
    call: Optional[Callable] = None
    out_path: Optional[str] = None


@dataclass
class Outcome:
    value: object  # exit code of a CLI job, return value of a library job
    stdout: str
    out_bytes: Optional[bytes]


class InputFiles:
    """Writes numbered input files into a work directory."""

    def __init__(self, root):
        self.root = root
        self.count = 0

    def path(self, stem):
        self.count += 1
        return os.path.join(self.root, f"{self.count:04d}-{stem}")

    def write(self, stem, obj):
        path = self.path(stem + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path


# -- random inputs ---------------------------------------------------------------


def _frame_json(frame, dims):
    return {"F": oracles.matrix_json(frame), "dims": list(dims)}


def _columns_to_frame(cols):
    n = len(cols[0])
    return [[Fraction(cols[j][i]) for j in range(n)] for i in range(n)]


def _nonsingular(frame):
    try:
        return oracles.inverse(frame)
    except ValueError:
        return None


def dense_frame(rng, n):
    """All-ones column plus zero-sum columns of random small integers."""
    while True:
        cols = [[1] * n]
        for _ in range(n - 1):
            body = [rng.randint(-3, 3) for _ in range(n - 1)]
            cols.append(body + [-sum(body)])
        frame = _columns_to_frame(cols)
        finv = _nonsingular(frame)
        if finv is not None:
            return frame, finv


def tree_frame(rng, n):
    """All-ones column plus signed differences e_i - e_j; these give the
    sparse complete-flag polytopes with 13-16 inequalities at n = 5."""
    while True:
        cols = [[1] * n]
        for _ in range(n - 1):
            i, j = rng.sample(range(n), 2)
            col = [0] * n
            col[i], col[j] = 1, -1
            cols.append(col)
        frame = _columns_to_frame(cols)
        finv = _nonsingular(frame)
        if finv is not None:
            return frame, finv


def frame_with_count(rng, draw, n, m):
    """A frame from draw() whose polytope has exactly m inequalities."""
    while True:
        frame, _ = draw(rng, n)
        inequalities = oracles.flag_inequalities(frame)
        if len(inequalities) == m:
            return frame, inequalities


def random_partition(rng, n, k):
    while True:
        where = [rng.randrange(k) for _ in range(n)]
        if len(set(where)) == k:
            return [[x + 1 for x in range(n) if where[x] == b] for b in range(k)]


def partition_of_shape(rng, sizes):
    elements = rng.sample(range(1, sum(sizes) + 1), sum(sizes))
    cuts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    return [sorted(elements[a:b]) for a, b in zip(cuts, cuts[1:])]


def random_dims(rng, n):
    if rng.random() < 0.5:
        return list(range(1, n))
    return sorted(rng.sample(range(1, n - 1), rng.randint(1, n - 2))) + [n - 1]


def block_upper(rng, size, dims):
    def entry(i, j):
        allowed = oracles.block_of(dims, i + 1) < oracles.block_of(dims, j + 1)
        if allowed and rng.random() < 0.7:
            return Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        return Fraction(0)

    return [[entry(i, j) for j in range(size)] for i in range(size)]


# -- workloads --------------------------------------------------------------------


def _polytope_jobs(rng, files, plan, draw, n, census):
    d = (n - 1) * (n - 2) // 2
    jobs = []
    for m in plan:
        frame, inequalities = frame_with_count(rng, draw, n, m)
        src = files.write(f"frame-n{n}-m{m}", _frame_json(frame, range(1, n)))
        out = files.path(f"poly-n{n}.json")
        argv = ["polytope", "build", "--frame", src, "--out", out]
        if census:
            argv.append("--census")
        check = _polytope_check(out, d, inequalities, census)
        jobs.append(Job(f"polytope build d={d} m={m}", check, argv=argv, out_path=out))
    return jobs


def _polytope_check(out_path, d, inequalities, census):
    return lambda o: oracles.check_polytope_build(o.stdout, o.out_bytes, out_path, d, inequalities, census)


def polytope_d3(rng, files):
    verify = Job("verify example1", lambda o: oracles.check_verify(o.value, o.stdout), argv=["verify", "example1"])
    return [verify] + _polytope_jobs(rng, files, D3_PLAN, dense_frame, 4, census=True)


def polytope_d6(rng, files):
    return _polytope_jobs(rng, files, D6_PLAN, tree_frame, 5, census=False)


def _text(expected):
    return lambda o: oracles.check_text(o.stdout, expected)


def _is_maximal_call(path, kind):
    def call():
        with open(path, encoding="utf-8") as fh:
            pattern = boolrel.BoolMatrix.from_json_dict(json.load(fh))
        return boolrel.is_maximal_nilpotent_pattern(pattern, kind)

    return call


def _pattern_class_call(path):
    def call():
        with open(path, encoding="utf-8") as fh:
            return omega.pattern_class(boolrel.BoolMatrix.from_json_dict(json.load(fh)))

    return call


def _equals(expected):
    def check(o):
        oracles.require(o.value == expected, f"library call returned {o.value!r}, expected {expected!r}")

    return check


def _maximality_jobs(rng, files, kind, maximal, sub):
    """Partition patterns of the given block sizes (maximal by the paper's
    theorem), then sub-patterns with one bit dropped but the same
    nilpotency index (never maximal: the dropped bit extends them without
    raising the class). The seed picks which elements go in which block;
    the block sizes fix the cost."""
    jobs = []
    for sizes, expected in [(s, True) for s in maximal] + [(s, False) for s in sub]:
        n, k = sum(sizes), len(sizes)
        while True:
            bits = oracles.partition_bits(partition_of_shape(rng, sizes))
            if expected:
                break
            keep_index = [b for b in bits if oracles.pattern_index(n, [c for c in bits if c != b]) == k]
            if keep_index:
                dropped = rng.choice(keep_index)
                bits = [c for c in bits if c != dropped]
                break
        path = files.write(f"pattern-n{n}", {"n": n, "bits": bits})
        jobs.append(Job(f"is_maximal {kind} n={n} {expected}", _equals(expected), call=_is_maximal_call(path, kind)))
    return jobs


def _member_job(rng, files, n):
    bits = oracles.partition_bits(random_partition(rng, n, rng.randint(2, n)))
    a = [[Fraction(0)] * n for _ in range(n)]
    for i, j in rng.sample(bits, min(len(bits), rng.randint(1, n))):
        a[i - 1][j - 1] = Fraction(rng.randint(1, 3), rng.randint(1, 3))
    twist = rng.choice(["none", "outside", "negative"])
    if twist == "outside":
        a[rng.randrange(n)][rng.randrange(n)] = Fraction(1)
    elif twist == "negative":
        i, j = rng.choice(bits)
        a[i - 1][j - 1] = Fraction(-1)
    kind = rng.choice(omega.KINDS)
    pattern = files.write("member-pattern", {"n": n, "bits": bits})
    matrix = files.write("member-matrix", oracles.matrix_json(a))
    expected = "true\n" if oracles.member_expected(a, bits, kind) else "false\n"
    argv = ["omega", "member", "--pattern", pattern, "--matrix", matrix, "--kind", kind]
    return Job(f"omega member {kind}", _text(expected), argv=argv)


def _lines_check(n, k):
    return lambda o: oracles.check_partition_lines(o.stdout.splitlines(), n, k)


def _json_check(out, n, k):
    return lambda o: oracles.check_partition_json(o.stdout, o.out_bytes, out, n, k)


def _pattern_check(n, bits):
    return lambda o: oracles.check_pattern(o.stdout, n, bits)


def combinatorics(rng, files):
    heavy = []
    for n, k in ENUMERATE_TEXT:
        argv = ["omega", "enumerate", "--n", str(n), "--k", str(k)]
        heavy.append(Job(f"omega enumerate {n} {k}", _lines_check(n, k), argv=argv))
    for n, k in ENUMERATE_JSON:
        out = files.path(f"partitions-{n}-{k}.json")
        argv = ["omega", "enumerate", "--n", str(n), "--k", str(k), "--json", out]
        heavy.append(Job(f"omega enumerate --json {n} {k}", _json_check(out, n, k), argv=argv, out_path=out))
    heavy += _maximality_jobs(rng, files, "bn", [(2, 2), (1, 2, 1), (1, 1, 1, 1), (3, 1)], [(2, 1, 1)])
    heavy += _maximality_jobs(rng, files, "rook", [(2, 2), (1, 1, 2)], [(1, 2, 1)])
    heavy += _maximality_jobs(rng, files, "bn", [(1, 2), (2, 1), (1, 1, 1)], [(1, 1, 1)])

    light = []
    for n in range(4, 12):
        k = rng.randint(1, n)
        light.append(Job("omega count", _text(f"{oracles.surjections(n, k)}\n"), argv=["omega", "count", "--n", str(n), "--k", str(k)]))
    for n in LIGHT_SIZES * 2:
        blocks = random_partition(rng, n, rng.randint(1, n))
        argv = ["omega", "pattern", "--partition", oracles.render_partition(blocks)]
        light.append(Job("omega pattern --partition", _pattern_check(n, oracles.partition_bits(blocks)), argv=argv))
    for n in LIGHT_SIZES:
        seq = rng.sample(range(1, n + 1), n)
        argv = ["omega", "pattern", "--order", ",".join(map(str, seq))]
        light.append(Job("omega pattern --order", _pattern_check(n, oracles.order_bits(seq)), argv=argv))
    light += [_member_job(rng, files, n) for n in (3, 4, 5, 6) * 4]
    for n in LIGHT_SIZES * 2:
        k = rng.randint(1, n)
        path = files.write("class-pattern", {"n": n, "bits": oracles.partition_bits(random_partition(rng, n, k))})
        light.append(Job("pattern_class", _equals(k), call=_pattern_class_call(path)))
    rng.shuffle(light)
    return _interleave(heavy, light)


def _interleave(heavy, light):
    jobs = []
    step = len(light) / len(heavy)
    for i, job in enumerate(heavy):
        jobs.append(job)
        jobs.extend(light[round(i * step):round((i + 1) * step)])
    return jobs


def flag_algebra(rng, files):
    jobs = []
    for n in FLAG_SIZES:
        frame, finv = dense_frame(rng, n)
        dims = random_dims(rng, n)
        b = block_upper(rng, n - 1, dims)
        a = oracles.embed(frame, finv, b)
        index = oracles.nilpotency_index(b)
        cap = min(1 / (2 * n * abs(x)) for row in a for x in row if x != 0)
        alpha = cap / 2
        s = [[alpha * x + (1 - alpha) / n for x in row] for row in a]
        assert oracles.is_doubly_stochastic(s)
        f_path = files.write(f"frame-n{n}", _frame_json(frame, dims))
        a_path = files.write("a", oracles.matrix_json(a))
        b_path = files.write("b", oracles.matrix_json(b))
        s_path = files.write("s", oracles.matrix_json(s))
        a_is_ds = "true\n" if oracles.is_doubly_stochastic(a) else "false\n"
        jobs += [
            Job("q iso", _matrix_check(b), argv=["q", "iso", "--frame", f_path, "--matrix", a_path]),
            Job("q iso --inverse", _matrix_check(a), argv=["q", "iso", "--inverse", "--frame", f_path, "--matrix", b_path]),
            Job(
                "q make-nilpotent",
                _make_nilpotent_check(frame, finv, dims, index),
                argv=["q", "make-nilpotent", "--frame", f_path, "--b", b_path],
            ),
            Job("q member -ds true", _text("true\n"), argv=["q", "member", "--doubly-stochastic", "--frame", f_path, "--matrix", s_path]),
            Job("q member -ds", _text(a_is_ds), argv=["q", "member", "--doubly-stochastic", "--frame", f_path, "--matrix", a_path]),
            Job("q nilclass", _text(f"{index}\n"), argv=["q", "nilclass", "--matrix", s_path]),
            Job("nilcheck d", _text(f"{index}\n"), argv=["nilcheck", "--ambient", "d", "--matrix", s_path]),
            Job("nilcheck q", _text(f"{index}\n"), argv=["nilcheck", "--ambient", "q", "--matrix", a_path]),
        ]
    return jobs


def _matrix_check(expected):
    return lambda o: oracles.check_matrix_output(o.stdout, expected)


def _make_nilpotent_check(frame, finv, dims, index):
    return lambda o: oracles.check_make_nilpotent(o.stdout, frame, finv, dims, index)


WORKLOADS = {
    "polytope-d3": polytope_d3,
    "polytope-d6": polytope_d6,
    "combinatorics": combinatorics,
    "flag-algebra": flag_algebra,
}
