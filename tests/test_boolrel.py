import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from boolrel_oracles import (
    all_bool_matrices,
    full_scan_is_maximal,
    longest_paths_in,
    path_length_is_maximal,
    rook_matrices,
    single_bit_is_maximal,
)
from conftest import rng, rand_nonneg_matrix
from nilmat import boolrel
from nilmat.boolrel import (
    BoolMatrix,
    _layers,
    closure,
    is_acyclic,
    is_maximal_nilpotent_pattern,
    is_rook,
    nilpotency_index,
    support_pattern,
)
from nilmat.exactmat import MAX_ENTRIES, RMatrix, MatrixError
from nilmat.omega import (
    LinearOrder,
    OrderedPartition,
    count_max_nilpotent,
    iter_ordered_partitions,
    pattern_from_order,
    pattern_from_partition,
)

F = Fraction


def bits(n, *pairs):
    """BoolMatrix from 1-based pairs, for readable test data."""
    return BoolMatrix.from_pairs(n, [(i - 1, j - 1) for i, j in pairs])


STRICT_UPPER_3 = bits(3, (1, 2), (1, 3), (2, 3))


def test_support_pattern_basics():
    assert support_pattern(RMatrix.filled(3, 3, F(1, 3))) == BoolMatrix.full(3)
    d = RMatrix([[2, 0, 0], [0, 0, 0], [0, 0, F(1, 3)]])
    assert support_pattern(d) == bits(3, (1, 1), (3, 3))
    with pytest.raises(MatrixError):
        support_pattern(RMatrix([[1, -1], [0, 1]]))
    with pytest.raises(MatrixError):
        support_pattern(RMatrix([[1, 2, 3]]))


def test_support_pattern_is_multiplicative_on_nonnegatives():
    r = rng(10)
    for n in range(2, 7):
        for _ in range(20):
            a = rand_nonneg_matrix(r, n)
            b = rand_nonneg_matrix(r, n)
            assert support_pattern(a * b) == support_pattern(a) * support_pattern(b)


def test_boolean_product_examples():
    assert BoolMatrix.full(3) * BoolMatrix.full(3) == BoolMatrix.full(3)
    assert bits(3, (1, 2)) * bits(3, (2, 3)) == bits(3, (1, 3))
    assert STRICT_UPPER_3 * STRICT_UPPER_3 == bits(3, (1, 3))
    with pytest.raises(MatrixError):
        BoolMatrix.full(2) * BoolMatrix.full(3)
    with pytest.raises(TypeError):
        BoolMatrix.empty(2) * 2
    with pytest.raises(MatrixError, match="^size mismatch$"):
        BoolMatrix.empty(2).is_subset(BoolMatrix.full(3))


def test_nilpotency_index_examples(monkeypatch):
    assert nilpotency_index(BoolMatrix.empty(3)) == 1
    assert nilpotency_index(bits(2, (1, 2), (2, 1))) is None
    upper4 = bits(4, (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert nilpotency_index(upper4) == 4
    assert nilpotency_index(bits(1, (1, 1))) is None
    # the cross-check compares the class, not only acyclicity: a layering
    # of class 1 against power iteration's 3 is caught
    monkeypatch.setattr(boolrel, "_layers", lambda b: [0] * b.n)
    with pytest.raises(AssertionError, match="power iteration and layering disagree"):
        nilpotency_index(STRICT_UPPER_3)


def test_nilpotency_index_agrees_with_acyclicity():
    r = rng(11)
    for _ in range(300):
        n = r.randint(1, 4)
        b = BoolMatrix(n, [r.getrandbits(n) for _ in range(n)])
        assert (nilpotency_index(b) is not None) == is_acyclic(b)


def test_class_preservation_under_support():
    r = rng(12)
    for _ in range(100):
        n = r.randint(2, 5)
        a = rand_nonneg_matrix(r, n, density=0.3)
        boolean = nilpotency_index(support_pattern(a))
        p = a
        exact = None
        for k in range(1, n + 1):
            if p.is_zero():
                exact = k
                break
            p = p * a
        assert boolean == exact


def test_is_rook():
    assert is_rook(bits(3, (1, 2), (2, 3), (3, 1)))
    assert is_rook(BoolMatrix.empty(3))
    assert is_rook(bits(3, (1, 2)))
    assert not is_rook(bits(3, (1, 1), (1, 2)))
    assert not is_rook(bits(3, (1, 2), (3, 2)))


def test_rook_and_full_universe_counts():
    assert sum(1 for _ in rook_matrices(4)) == 209
    ms = list(all_bool_matrices(2))
    assert len(ms) == 16
    assert len(set(ms)) == 16


def test_closure_examples():
    e = BoolMatrix.empty(3)
    assert closure([e]) == {e}

    a, b = bits(3, (1, 2)), bits(3, (2, 3))
    expected = {a, b, bits(3, (1, 3)), e}
    assert closure([a, b]) == expected

    cyc = closure([bits(3, (1, 2)), bits(3, (2, 1))])
    assert any(any(m.has_bit(i, i) for i in range(3)) for m in cyc)

    with pytest.raises(MatrixError):
        closure([BoolMatrix.empty(6)])
    with pytest.raises(MatrixError):
        closure([])
    with pytest.raises(MatrixError, match="^generators must share one size$"):
        closure([BoolMatrix.empty(2), BoolMatrix.empty(3)])


def test_closure_is_multiplicatively_closed():
    r = rng(13)
    for _ in range(20):
        gens = [BoolMatrix(3, [r.getrandbits(3) for _ in range(3)]) for _ in range(2)]
        s = closure(gens)
        assert all(x * y in s for x in s for y in s)


def test_maximality_of_full_triangle_pattern():
    assert is_maximal_nilpotent_pattern(STRICT_UPPER_3, "bn")
    assert is_maximal_nilpotent_pattern(STRICT_UPPER_3, "rook")


def test_single_bit_pattern_is_not_maximal():
    assert not is_maximal_nilpotent_pattern(bits(3, (1, 2)), "bn")


def test_two_block_partition_pattern_is_maximal():
    pattern = pattern_from_partition(OrderedPartition([(1, 2), (3,)]))
    assert is_maximal_nilpotent_pattern(pattern, "bn")


def test_every_partition_pattern_is_maximal_in_both_ambients():
    for n in (1, 2, 3, 4):
        for k in range(1, n + 1):
            for p in iter_ordered_partitions(n, k):
                assert is_maximal_nilpotent_pattern(pattern_from_partition(p), "bn")
                assert is_maximal_nilpotent_pattern(pattern_from_partition(p), "rook")


# n=4 patterns for the 2^16-element "bn" scan, maximal and not: four
# partition patterns (one block, four, two and three), the four-block one
# less a bit (that bit is then the only witness), a bare chain and two
# disjoint edges.
N4_BN_PATTERNS = [
    BoolMatrix.empty(4),
    bits(4, (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
    bits(4, (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)),
    bits(4, (1, 2), (2, 3), (3, 4)),
    bits(4, (1, 3), (1, 4), (2, 3), (2, 4)),
    bits(4, (2, 1), (3, 1), (4, 1), (2, 3), (4, 3)),
    bits(4, (1, 2), (3, 4)),
]


def test_maximality_agrees_with_the_full_scan():
    for n in (1, 2, 3):
        for pattern in filter(is_acyclic, all_bool_matrices(n)):
            for kind in ("bn", "rook"):
                expected = full_scan_is_maximal(pattern, kind)
                assert is_maximal_nilpotent_pattern(pattern, kind) == expected, (pattern, kind)
    acyclic4 = list(filter(is_acyclic, all_bool_matrices(4)))
    assert len(acyclic4) == 543
    verdicts = [is_maximal_nilpotent_pattern(p, "rook") for p in acyclic4]
    assert verdicts == [full_scan_is_maximal(p, "rook") for p in acyclic4]
    assert sum(verdicts) == 75
    bn = [is_maximal_nilpotent_pattern(p, "bn") for p in N4_BN_PATTERNS]
    assert bn == [full_scan_is_maximal(p, "bn") for p in N4_BN_PATTERNS]
    assert bn == [True, True, False, False, True, True, False]


def acyclic_patterns(n):
    """Every labelled acyclic digraph on n vertices, each once: the subsets
    of the n! total-order patterns."""
    out = set()
    for seq in permutations(range(1, n + 1)):
        order_bits = pattern_from_order(LinearOrder(seq)).bits()
        for code in range(1 << len(order_bits)):
            rows = [0] * n
            for b, (i, j) in enumerate(order_bits):
                if code >> b & 1:
                    rows[i] |= 1 << j
            out.add(BoolMatrix(n, rows))
    return out


def test_maximal_patterns_are_the_partition_patterns():
    # The paper's classification for Omega_n: the maximal nilpotent
    # subsemigroups of class k are the patterns of the ordered k-partitions.
    for n, expected_count in zip((1, 2, 3, 4, 5), (1, 3, 25, 543, 29281)):
        acyclic = acyclic_patterns(n)
        assert len(acyclic) == expected_count
        maximal = [p for p in acyclic if is_maximal_nilpotent_pattern(p, "bn")]
        for k in range(1, n + 1):
            of_class_k = {p for p in maximal if nilpotency_index(p) == k}
            assert of_class_k == {pattern_from_partition(q) for q in iter_ordered_partitions(n, k)}
            assert len(of_class_k) == count_max_nilpotent(n, k)


def random_partition(r, n):
    elems = list(range(1, n + 1))
    r.shuffle(elems)
    cuts = sorted(r.sample(range(1, n), r.randint(0, n - 1)))
    return OrderedPartition(elems[a:b] for a, b in zip([0] + cuts, cuts + [n]))


def dropped(pattern, i, j):
    """The pattern with its 0-based bit (i, j) cleared."""
    rows = list(pattern.rows)
    rows[i] &= ~(1 << j)
    return BoolMatrix(pattern.n, rows)


def test_maximality_up_to_the_size_limit():
    r = rng(14)
    same_class_drops = 0
    for n in range(6, 11):
        for _ in range(4):
            pattern = pattern_from_partition(random_partition(r, n))
            assert is_maximal_nilpotent_pattern(pattern, "bn")
            assert is_maximal_nilpotent_pattern(pattern, "rook")
            k = nilpotency_index(pattern)
            for i, j in pattern.bits():
                smaller = dropped(pattern, i, j)
                if nilpotency_index(smaller) == k:
                    same_class_drops += 1
                    assert not is_maximal_nilpotent_pattern(smaller, "bn")
    assert same_class_drops > 0


def test_maximality_agrees_with_the_single_bit_oracle_at_n5():
    r = rng(15)
    acyclic5 = sorted(acyclic_patterns(5), key=lambda p: p.rows)
    sample = r.sample(acyclic5, 300)
    verdicts = [is_maximal_nilpotent_pattern(p, "bn") for p in sample]
    assert verdicts == [single_bit_is_maximal(p) for p in sample]
    assert 0 < sum(verdicts) < len(sample)


def random_acyclic_pattern(r, n):
    """A random relabelling of a random subset, of random density, of the
    strict upper triangle."""
    label = list(range(n))
    r.shuffle(label)
    density = r.random()
    return BoolMatrix.from_pairs(
        n, [(label[i], label[j]) for i in range(n) for j in range(i + 1, n) if r.random() < density]
    )


def test_maximality_agrees_with_the_path_length_rule():
    r = rng(16)
    verdicts = []
    for _ in range(5000):
        pattern = random_acyclic_pattern(r, r.randint(1, 10))
        expected = path_length_is_maximal(pattern)
        for kind in ("bn", "rook"):
            assert is_maximal_nilpotent_pattern(pattern, kind) == expected, (pattern, kind)
        verdicts.append(expected)
    assert 0 < sum(verdicts) < len(verdicts)
    # past the partition enumeration's n <= 10: a partition pattern per
    # size, up to five one-bit drops of it, and random acyclic patterns
    patterns = []
    for n in range(11, 25):
        pattern = pattern_from_partition(random_partition(r, n))
        drops = r.sample(pattern.bits(), min(5, pattern.bit_count()))
        patterns += [pattern] + [dropped(pattern, i, j) for i, j in drops]
        patterns += [random_acyclic_pattern(r, n) for _ in range(60)]
    verdicts = [path_length_is_maximal(p) for p in patterns]
    for kind in ("bn", "rook"):
        assert [is_maximal_nilpotent_pattern(p, kind) for p in patterns] == verdicts
    assert 14 <= sum(verdicts) < len(verdicts)
    # the layering is the relaxation's longest path ending at each vertex
    for p in patterns:
        assert _layers(p) == longest_paths_in(p)[0], p
    assert _layers(bits(3, (1, 2), (3, 3))) is None
    assert _layers(bits(3, (1, 2), (2, 3), (3, 2))) is None


def test_maximality_past_the_enumeration_bound(monkeypatch):
    # 15 blocks, 14 of seven elements and one of two, so that a dropped
    # bit keeps the class and leaves a pattern that is not maximal
    r = rng(18)
    elems = list(range(1, 101))
    r.shuffle(elems)
    pattern = pattern_from_partition(OrderedPartition(elems[a : a + 7] for a in range(0, 100, 7)))
    smaller = dropped(pattern, *r.choice(pattern.bits()))
    assert nilpotency_index(smaller) == nilpotency_index(pattern) == 15

    def no_product(a, b):
        raise AssertionError("the maximality test made a Boolean product")

    # the verdict reads the layering alone
    monkeypatch.setattr(BoolMatrix, "__mul__", no_product)
    assert is_maximal_nilpotent_pattern(pattern, "bn")
    assert is_maximal_nilpotent_pattern(pattern, "rook")
    assert not is_maximal_nilpotent_pattern(smaller, "bn")
    assert not is_maximal_nilpotent_pattern(smaller, "rook")


def test_maximality_oracle_rejects_bad_inputs():
    with pytest.raises(MatrixError):
        is_maximal_nilpotent_pattern(bits(2, (1, 2), (2, 1)), "bn")
    with pytest.raises(MatrixError):
        is_maximal_nilpotent_pattern(STRICT_UPPER_3, "weird")


@pytest.mark.parametrize(
    "n, rows",
    [("3", [0, 0, 0]), (2, 5), (2, [0, 1.5]), (2, [0, True]), (True, [0])],
)
def test_malformed_boolmatrix_is_a_matrix_error(n, rows):
    with pytest.raises(MatrixError):
        BoolMatrix(n, rows)


@pytest.mark.parametrize(
    "i, j", [(0, 99), (0, -1), (99, 0)], ids=["column-past-n", "negative", "row-past-n"]
)
def test_has_bit_refuses_positions_outside_the_matrix(i, j):
    assert BoolMatrix.full(3).has_bit(0, 2)
    with pytest.raises(MatrixError, match=r"^bit \(-?\d+, -?\d+\) out of range for size 3$"):
        BoolMatrix.full(3).has_bit(i, j)


@pytest.mark.parametrize(
    "n, pairs",
    [
        ("3", []),
        (3.0, []),
        (True, [(0, 0)]),
        (0, []),
        (3, None),
        (3, 5),
        (3, [(1.0, 2)]),
        (3, [(True, 1)]),
        (3, [(0, None)]),
        (3, [5]),
        (3, [(0, 1, 2)]),
        (3, [(3, 0)]),
        (3, [(0, -1)]),
        (3, [(10**5000, 0)]),
        (3, [(0.5, 10**5000)]),
    ],
)
def test_malformed_pairs_are_a_matrix_error(n, pairs):
    with pytest.raises(MatrixError):
        BoolMatrix.from_pairs(n, pairs)


def unread_rows():
    """Rows that fail the test if read: a refused size reads none."""
    raise AssertionError("rows read before the size was checked")
    yield


@pytest.mark.parametrize(
    "n",
    [10**20, 10**5000, 1001, "3", None, 1.0, True, 0, -1],
    ids=["1e20", "1e5000", "1001", "str", "None", "float", "bool", "0", "-1"],
)
@pytest.mark.parametrize(
    "build",
    [
        BoolMatrix.empty,
        BoolMatrix.full,
        lambda n: BoolMatrix.from_pairs(n, []),
        lambda n: BoolMatrix.from_json_dict({"n": n, "bits": []}),
        lambda n: BoolMatrix(n, unread_rows()),
    ],
    ids=["empty", "full", "from_pairs", "from_json_dict", "BoolMatrix"],
)
def test_sizes_are_checked_before_any_row_is_built(build, n):
    with pytest.raises(MatrixError):
        build(n)


def test_sizes_up_to_the_limit_are_built():
    # n * n <= MAX_ENTRIES, as for RMatrix's sized constructors
    n = math.isqrt(MAX_ENTRIES)
    assert BoolMatrix.full(n).bit_count() == MAX_ENTRIES
    assert BoolMatrix.from_json_dict({"n": n, "bits": [[1, n]]}).bits() == [(0, n - 1)]
    assert BoolMatrix(n, [0] * n) == BoolMatrix.empty(n)
    message = f"^Boolean matrices are limited to {MAX_ENTRIES} entries$"
    for build in (BoolMatrix.empty, lambda m: BoolMatrix(m, [0] * m)):
        with pytest.raises(MatrixError, match=message):
            build(n + 1)


def test_json_round_trip():
    p = bits(3, (1, 3), (2, 3))
    d = p.to_json_dict()
    assert d == {"n": 3, "bits": [[1, 3], [2, 3]]}
    assert repr(bits(2, (1, 2))) == "BoolMatrix(2, bits=[(1, 2)])"
    assert BoolMatrix.from_json_dict(d) == p
    with pytest.raises(MatrixError):
        BoolMatrix.from_json_dict({"n": 2, "bits": [[0, 1]]})
    with pytest.raises(MatrixError):
        BoolMatrix.from_json_dict({"n": 2, "bits": [[1, 3]]})
    with pytest.raises(MatrixError):
        BoolMatrix.from_json_dict({"bits": []})
    with pytest.raises(MatrixError):
        BoolMatrix.from_json_dict({"n": True, "bits": []})
    with pytest.raises(MatrixError):
        BoolMatrix.from_json_dict({"n": 2, "bits": 5})
    with pytest.raises(MatrixError):
        BoolMatrix.from_json_dict({"n": 2, "bits": None})


BUILDERS = {
    "empty": lambda: BoolMatrix.empty(3),
    "full": lambda: BoolMatrix.full(4),
    "from_pairs": lambda: bits(3, (1, 2), (3, 1)),
    "from_json_dict": lambda: BoolMatrix.from_json_dict({"n": 3, "bits": [[1, 3], [2, 3]]}),
    "product": lambda: STRICT_UPPER_3 * STRICT_UPPER_3,
    "support": lambda: support_pattern(RMatrix([[0, F(1, 2)], [3, 0]])),
    "partition": lambda: pattern_from_partition(OrderedPartition([(2,), (1, 3)])),
    "order": lambda: pattern_from_order(LinearOrder([2, 3, 1])),
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
def test_every_builder_gives_what_the_checked_constructor_gives(build):
    # the builders skip the checked constructor; their patterns must be
    # the ones it would build, down to the row tuple and the hash
    p = build()
    assert type(p.rows) is tuple
    assert BoolMatrix(p.n, p.rows) == p
    assert hash(BoolMatrix(p.n, p.rows)) == hash(p)


@st.composite
def patterns(draw):
    n = draw(st.integers(1, 6))
    return BoolMatrix(n, draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(patterns())
def test_both_pair_readers_rebuild_the_pattern(p):
    assert BoolMatrix.from_json_dict(p.to_json_dict()) == BoolMatrix.from_pairs(p.n, p.bits()) == p


def _from_0_based(pair):
    return BoolMatrix.from_pairs(3, [(0, 0), pair])


def _from_1_based(pair):
    return BoolMatrix.from_json_dict({"n": 3, "bits": [[1, 1], pair]})


HUGE = 10**5000


@pytest.mark.parametrize(
    "build, pair, shown",
    [
        (_from_0_based, (3, 0), "(3, 0)"),
        (_from_0_based, (0, -1), "(0, -1)"),
        (_from_0_based, (3, 3), "(3, 3)"),
        (_from_0_based, [2, HUGE], f"(2, <int of {HUGE.bit_length()} bits>)"),
        (_from_1_based, [0, 1], "(0, 1)"),
        (_from_1_based, [1, 4], "(1, 4)"),
        (_from_1_based, [-1, 2], "(-1, 2)"),
        (_from_1_based, [HUGE, 1], f"(<int of {HUGE.bit_length()} bits>, 1)"),
    ],
    ids=["0:row", "0:negative", "0:corner", "0:huge", "1:zero", "1:column", "1:negative", "1:huge"],
)
def test_out_of_range_bits_are_quoted_as_given(build, pair, shown):
    with pytest.raises(MatrixError) as exc:
        build(pair)
    assert str(exc.value) == f"bit {shown} out of range for size 3"
