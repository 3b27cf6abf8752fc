import math
import time
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import rng, rand_matrix, rand_pattern_supported
from nilmat.boolrel import BoolMatrix, support_pattern
from nilmat.exactmat import RMatrix, MatrixError
from nilmat.omega import (
    MAX_COUNT_WORK,
    LinearOrder,
    OrderedPartition,
    count_max_nilpotent,
    enumerate_partitions,
    is_unit,
    iter_ordered_partitions,
    membership,
    monomial_conjugator,
    nilpotency_class,
    nilpotent_nonzero_count,
    pattern_class,
    pattern_from_order,
    pattern_from_partition,
)
from omega_oracles import (
    assignment_partitions,
    block_indices,
    fraction_monomial_conjugator,
    pair_order_pattern,
    pair_partition_pattern,
)

F = Fraction


def bits(n, *pairs):
    return BoolMatrix.from_pairs(n, [(i - 1, j - 1) for i, j in pairs])


def test_linear_order_parsing_and_validation():
    o = LinearOrder.parse("2,3,1")
    assert o.seq == (2, 3, 1)
    assert str(o) == "2,3,1"
    with pytest.raises(MatrixError):
        LinearOrder([1, 1, 2])
    with pytest.raises(MatrixError):
        LinearOrder([0, 1])
    for seq in (["1", "x"], ["1", "2"], [1.9, 2], [True, 2], [F(1), 2], 3):
        with pytest.raises(MatrixError, match="not a sequence of integers"):
            LinearOrder(seq)
    # int() reads other scripts' digits and underscores; the parser does not
    for text in ("1,2.5", "1/2,1", "\u0662,1", "1,\uff12", "1_0,1", "1,2,"):
        with pytest.raises(MatrixError, match="not a comma-separated list of integers"):
            LinearOrder.parse(text)
    assert LinearOrder.parse(" 2, +1 ").seq == (2, 1)
    # a linear order is the ordered partition into singletons
    singletons = OrderedPartition([[2], [3], [1]])
    assert o == singletons and hash(o) == hash(singletons)
    assert o.k == o.n == 3
    assert repr(o) == "LinearOrder((2, 3, 1))"
    assert pattern_from_partition(o) == pattern_from_order(o)


def test_ordered_partition_parsing_and_validation():
    p = OrderedPartition.parse("3,1|2")
    assert p.blocks == ((1, 3), (2,))
    assert str(p) == "1,3|2"
    assert (p.n, p.k) == (3, 2)
    assert p == OrderedPartition([[3, 1], [2]]) and hash(p) == hash(OrderedPartition([[1, 3], [2]]))
    assert repr(OrderedPartition([[2], [3, 1]])) == "OrderedPartition(((2,), (1, 3)))"
    assert block_indices(p) == {1: 1, 3: 1, 2: 2}
    with pytest.raises(MatrixError):
        OrderedPartition([(1, 2), (2, 3)])
    with pytest.raises(MatrixError):
        OrderedPartition([(1,), ()])
    with pytest.raises(MatrixError):
        OrderedPartition([(1, 3)])
    for blocks in ([["x"]], [[1.5], [2]], [[1], [False, 2]], 5, [1, 2]):
        with pytest.raises(MatrixError, match="not a sequence of integers"):
            OrderedPartition(blocks)
    for text in ("1|x", "1|\uff12", "\u0661|2", "1_0|2"):
        with pytest.raises(MatrixError, match="not a comma-separated list of integers"):
            OrderedPartition.parse(text)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: OrderedPartition([[1, 1]]), "blocks must partition 1..2: ((1, 1),)"),
        (lambda: OrderedPartition.parse("1,1|2"), "blocks must partition 1..3: ((1, 1), (2,))"),
        (
            lambda: OrderedPartition([(2, 1, 2), (3,)]),
            "blocks must partition 1..4: ((1, 2, 2), (3,))",
        ),
    ],
    ids=["one-block", "parsed", "with-others"],
)
def test_ordered_partition_refuses_a_repeated_element(build, message):
    # a repeated element is not merged into one: the blocks then miss n
    with pytest.raises(MatrixError) as exc:
        build()
    assert str(exc.value) == message


def test_pattern_from_order_examples():
    assert pattern_from_order(LinearOrder([1, 2, 3])) == bits(3, (1, 2), (1, 3), (2, 3))
    assert pattern_from_order(LinearOrder([3, 2, 1])) == bits(3, (2, 1), (3, 1), (3, 2))
    assert pattern_from_order(LinearOrder([2, 3, 1])) == bits(3, (2, 3), (2, 1), (3, 1))


def test_pattern_from_partition_examples():
    singles = OrderedPartition([(1,), (2,), (3,)])
    assert pattern_from_partition(singles) == bits(3, (1, 2), (1, 3), (2, 3))
    assert pattern_from_partition(OrderedPartition([(1, 2, 3)])) == BoolMatrix.empty(3)
    assert pattern_from_partition(OrderedPartition([(1, 3), (2,)])) == bits(3, (1, 2), (3, 2))


def test_patterns_stop_at_the_pattern_reader_cap():
    # the patterns that BoolMatrix.from_json_dict reads back: n * n <= MAX_ENTRIES
    order = LinearOrder(range(1, 1001))
    assert pattern_from_order(order).bit_count() == 1000 * 999 // 2
    assert pattern_from_partition(OrderedPartition([range(1, 1001)])) == BoolMatrix.empty(1000)
    message = "^Boolean matrices are limited to 1000000 entries$"
    with pytest.raises(MatrixError, match=message):
        pattern_from_order(LinearOrder(range(1, 1002)))
    with pytest.raises(MatrixError, match=message):
        pattern_from_partition(OrderedPartition([range(1, 1001), (1001,)]))


def test_order_pattern_is_singleton_partition_pattern():
    for n in range(1, 6):
        for perm in permutations(range(1, n + 1)):
            o = LinearOrder(perm)
            singletons = OrderedPartition([(x,) for x in perm])
            assert pattern_from_order(o) == pattern_from_partition(singletons)


def test_membership_examples():
    up = pattern_from_order(LinearOrder([1, 2]))
    down = pattern_from_order(LinearOrder([2, 1]))
    a = RMatrix([[0, 2], [0, 0]])
    assert membership(a, up, "omega")
    assert not membership(a, down, "omega")
    neg = RMatrix([[0, -2], [0, 0]])
    assert not membership(neg, up, "omega")
    assert not membership(neg, up, "m0plus")
    assert membership(neg, up, "m0")
    two_in_col = RMatrix([[0, 1], [0, 1]])
    assert not membership(two_in_col, BoolMatrix.full(2), "m0")
    with pytest.raises(MatrixError):
        membership(a, up, "bogus")
    with pytest.raises(MatrixError):
        membership(RMatrix([[1, 2, 3]]), up, "omega")


def test_count_examples():
    assert count_max_nilpotent(2, 1) == 1
    assert count_max_nilpotent(4, 4) == 24
    assert count_max_nilpotent(3, 2) == 6
    assert count_max_nilpotent(4, 2) == 14
    assert count_max_nilpotent(4, 3) == 36
    for n in range(1, 9):
        assert count_max_nilpotent(n, n) == math.factorial(n)
    with pytest.raises(MatrixError):
        count_max_nilpotent(3, 4)
    with pytest.raises(MatrixError):
        count_max_nilpotent(3, 0)


@pytest.mark.parametrize("n, k", [(5.0, 2), (True, True), (3, 2.0), ("3", 2), (3, None)])
def test_counts_that_are_not_ints_are_refused(n, k):
    with pytest.raises(MatrixError, match="must be integers"):
        count_max_nilpotent(n, k)
    with pytest.raises(MatrixError, match="must be integers"):
        next(iter_ordered_partitions(n, k))


@pytest.mark.parametrize(
    "n, k",
    [(3, 10**5000), (3, -(10**5000)), (-(10**5000), 2), (10**5000, 10**5000 + 1)],
    ids=["huge-k", "huge-negative-k", "huge-negative-n", "huge-both"],
)
def test_counts_too_long_to_write_out_are_refused_cleanly(n, k):
    # the message names such an int by its bit length
    with pytest.raises(MatrixError, match="need 1 <= k <= n, got k=.*bits"):
        count_max_nilpotent(n, k)
    with pytest.raises(MatrixError, match="need 1 <= k <= n"):
        next(iter_ordered_partitions(n, k))


@pytest.mark.parametrize(
    "parse, text",
    [
        (LinearOrder.parse, None),
        (LinearOrder.parse, 5),
        (LinearOrder.parse, [1, 2]),
        (OrderedPartition.parse, None),
        (OrderedPartition.parse, 3),
        (OrderedPartition.parse, b"1|2"),
    ],
    ids=repr,
)
def test_parsers_refuse_non_strings(parse, text):
    with pytest.raises(MatrixError, match=f"must be a string, got {type(text).__name__}"):
        parse(text)


@pytest.mark.parametrize("max_digits", [-1, "x", [1], 1.5, True, None])
def test_count_digit_limit_must_be_a_nonnegative_int(max_digits):
    with pytest.raises(MatrixError, match="max_digits"):
        count_max_nilpotent(4, 2, max_digits)


def test_count_digit_limit_refuses_only_counts_longer_than_it():
    refused = 0
    for n in range(1, 41):
        for k in range(1, n + 1):
            digits = len(str(count_max_nilpotent(n, k)))
            assert count_max_nilpotent(n, k, digits) == count_max_nilpotent(n, k)
            for limit in range(1, digits):
                try:
                    count_max_nilpotent(n, k, limit)
                except MatrixError as exc:
                    assert str(exc) == "number has too many digits to write out"
                    refused += 1
    assert refused > 15000
    # 0 is no limit, and domain errors come first
    assert count_max_nilpotent(15000, 2, 0) == 2**15000 - 2
    with pytest.raises(MatrixError, match="need 1 <= k <= n"):
        count_max_nilpotent(3, 9, 1)


@pytest.mark.parametrize("n, k", [(10**20, 2), (100000, 50000)])
def test_count_work_limit_refuses_at_once(n, k):
    start = time.perf_counter()
    with pytest.raises(MatrixError, match=f"^count limited to .* <= {MAX_COUNT_WORK}$"):
        count_max_nilpotent(n, k, 0)
    assert time.perf_counter() - start < 1.0


def test_count_work_limit_passes_what_the_digit_check_passes():
    # the (n, k) with the largest work bound that the check at Python's
    # default 4,300 digits lets through, and a count whose bound is 0
    assert count_max_nilpotent(1632, 1632, 4300) == math.factorial(1632)
    assert count_max_nilpotent(10**30, 1) == 1


def test_enumeration_canonical_order():
    two = enumerate_partitions(2, 2)
    assert two == [OrderedPartition([(1,), (2,)]), OrderedPartition([(2,), (1,)])]

    six = enumerate_partitions(3, 2)
    assert len(six) == 6
    assert [str(p) for p in six] == [
        "1,2|3",
        "1,3|2",
        "1|2,3",
        "2,3|1",
        "2|1,3",
        "3|1,2",
    ]

    singles = enumerate_partitions(3, 3)
    assert {str(p) for p in singles} == {
        "1|2|3",
        "1|3|2",
        "2|1|3",
        "3|1|2",
        "2|3|1",
        "3|2|1",
    }

    with pytest.raises(MatrixError, match="partition enumeration limited to n <= 10"):
        enumerate_partitions(11, 2)
    with pytest.raises(MatrixError, match="^partition enumeration limited to n <= 10$"):
        next(iter_ordered_partitions(11, 3))
    with pytest.raises(MatrixError):
        enumerate_partitions(3, 0)


def test_enumeration_matches_count_small():
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert len(enumerate_partitions(n, k)) == count_max_nilpotent(n, k)


def test_enumeration_matches_the_assignment_oracle():
    # every 1 <= k <= n <= 7, in order: 52,609 partitions
    total = 0
    for n in range(1, 8):
        for k in range(1, n + 1):
            got = enumerate_partitions(n, k)
            assert got == list(assignment_partitions(n, k))
            total += len(got)
    assert total == 52609


def test_enumeration_matches_the_assignment_oracle_at_n8():
    # with the test above, every 1 <= k <= n <= 8: n = 8 splits into heads
    # and tails of 4 elements each, so a head can leave up to 4 blocks for
    # its tails to fill
    for k in range(1, 9):
        assert enumerate_partitions(8, k) == list(assignment_partitions(8, k))


def test_pattern_builders_match_the_pair_oracles():
    for n in range(1, 8):
        for k in range(1, n + 1):
            for p in iter_ordered_partitions(n, k):
                assert pattern_from_partition(p) == pair_partition_pattern(p)
    for n in range(1, 7):
        for perm in permutations(range(1, n + 1)):
            o = LinearOrder(perm)
            assert pattern_from_order(o) == pair_order_pattern(o)


def test_membership_matches_the_bit_by_bit_test():
    r = rng(22)
    for _ in range(200):
        n = r.randint(1, 4)
        pattern = BoolMatrix(n, [r.randrange(1 << n) for _ in range(n)])
        a = rand_matrix(r, n)
        a = RMatrix([[x if r.random() < 0.4 else 0 for x in row] for row in a.to_rows()])
        positions = a.nonzero_positions()
        inside = all(pattern.has_bit(i, j) for i, j in positions)
        nonneg = a.min_entry() >= 0
        rook = len({i for i, _ in positions}) == len(positions) == len({j for _, j in positions})
        assert membership(a, pattern, "omega") == (inside and nonneg)
        assert membership(a, pattern, "m0") == (inside and rook)
        assert membership(a, pattern, "m0plus") == (inside and nonneg and rook)


def test_partition_patterns_are_per_class_antichains():
    # patterns of distinct partitions with the same block count never
    # contain one another (across classes they do: fewer blocks, fewer bits)
    for n in range(2, 6):
        for k in range(2, n + 1):
            patterns = [pattern_from_partition(p) for p in iter_ordered_partitions(n, k)]
            assert len({p.rows for p in patterns}) == len(patterns)
            for i, a in enumerate(patterns):
                for j, b in enumerate(patterns):
                    if i != j:
                        assert not a.is_subset(b)


def test_pattern_class_examples():
    for n in range(1, 6):
        for k in range(1, n + 1):
            for p in iter_ordered_partitions(n, k):
                assert pattern_class(pattern_from_partition(p)) == k
    assert pattern_class(BoolMatrix.empty(4)) == 1
    assert pattern_class(pattern_from_order(LinearOrder([1, 2, 3, 4]))) == 4
    with pytest.raises(MatrixError):
        pattern_class(BoolMatrix.full(2))


def test_monomial_conjugator_examples():
    o = LinearOrder([1, 2, 3])
    assert monomial_conjugator(o, o) == RMatrix.identity(3)
    m = monomial_conjugator(LinearOrder([1, 2, 3]), LinearOrder([2, 3, 1]))
    assert m == RMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    with pytest.raises(MatrixError, match="^orders live on different ground sets$"):
        monomial_conjugator(LinearOrder([1, 2]), LinearOrder([1, 2, 3]))


def test_monomial_conjugator_gives_equal_values_one_answer():
    # an ordered partition into singletons equals, and hashes like, the order
    order, part = LinearOrder([2, 1]), OrderedPartition([[2], [1]])
    assert part == order and hash(part) == hash(order)
    swap = RMatrix([[0, 1], [1, 0]])
    for o1, o2 in ((part, order), (order, part), (part, part)):
        assert monomial_conjugator(o1, LinearOrder([1, 2])) == swap
        assert monomial_conjugator(o1, o2) == RMatrix.identity(2)
    p1, p2 = OrderedPartition([[1, 3], [2]]), OrderedPartition([[2, 3], [1]])
    m = monomial_conjugator(p1, p2)
    assert m == RMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    # conjugation carries the first pattern onto exactly the second
    x = rand_pattern_supported(rng(21), pattern_from_partition(p1), density=1)
    assert support_pattern(m.inverse() * x * m) == pattern_from_partition(p2)


def test_monomial_conjugator_refuses_different_block_sizes():
    with pytest.raises(MatrixError, match="^ordered partitions have different block sizes$"):
        monomial_conjugator(OrderedPartition([[1, 2], [3]]), OrderedPartition([[1], [2, 3]]))
    with pytest.raises(MatrixError, match="^ordered partitions have different block sizes$"):
        monomial_conjugator(OrderedPartition([[1, 2, 3]]), LinearOrder([1, 2, 3]))


def test_monomial_conjugator_matches_the_fraction_oracle():
    for n in range(1, 5):
        by_sizes = {}
        for k in range(1, n + 1):
            for p in iter_ordered_partitions(n, k):
                by_sizes.setdefault(tuple(len(b) for b in p.blocks), []).append(p)
        by_sizes[(1,) * n] += [LinearOrder(p) for p in permutations(range(1, n + 1))]
        for parts in by_sizes.values():
            for p1 in parts:
                for p2 in parts:
                    m = monomial_conjugator(p1, p2)
                    assert m == fraction_monomial_conjugator(p1, p2)
                    assert m.to_json_dict() == fraction_monomial_conjugator(p1, p2).to_json_dict()


def test_conjugation_carries_patterns_exactly():
    r = rng(20)
    for _ in range(40):
        n = r.randint(2, 5)
        seq1 = list(range(1, n + 1))
        seq2 = list(range(1, n + 1))
        r.shuffle(seq1)
        r.shuffle(seq2)
        o1, o2 = LinearOrder(seq1), LinearOrder(seq2)
        m = monomial_conjugator(o1, o2)
        a = rand_pattern_supported(r, pattern_from_order(o1))
        conj = m.inverse() * a * m
        target = pattern_from_order(o2)
        assert all(target.has_bit(i, j) for i, j in conj.nonzero_positions())


def test_nilpotent_nonzero_count():
    up = RMatrix([[0, 1, 2, 3], [0, 0, 4, 5], [0, 0, 0, 6], [0, 0, 0, 0]])
    assert nilpotent_nonzero_count(up) == 6
    single = RMatrix([[0, F(7, 3)], [0, 0]])
    assert nilpotent_nonzero_count(single) == 1
    with pytest.raises(MatrixError):
        nilpotent_nonzero_count(RMatrix.identity(2))
    with pytest.raises(MatrixError):
        nilpotent_nonzero_count(RMatrix([[0, -1], [0, 0]]))


def test_is_unit():
    assert is_unit(RMatrix([[0, 1], [1, 0]]))
    assert is_unit(RMatrix([[2, 0], [0, F(1, 2)]]))
    assert not is_unit(RMatrix([[1, 1], [0, 1]]))
    assert not is_unit(RMatrix([[1, 0], [0, 0]]))
    # a negative entry lies outside the nonnegative ambient, so no unit of it
    assert not is_unit(RMatrix([[-1, 0], [0, 1]]))
    assert not is_unit(RMatrix([[-1]]))
    assert not is_unit(RMatrix([[0, -1], [1, 0]]))
    with pytest.raises(MatrixError, match="^support pattern needs a square matrix$"):
        is_unit(RMatrix([[1, 0]]))


def test_unit_iff_inverse_nonnegative():
    r = rng(21)
    from nilmat.exactmat import SingularMatrix

    for _ in range(60):
        n = r.randint(2, 4)
        a = rand_pattern_supported(r, BoolMatrix.full(n), density=0.7)
        try:
            inv = a.inverse()
            invertible_with_nonneg_inverse = inv.min_entry() >= 0
        except SingularMatrix:
            invertible_with_nonneg_inverse = False
        assert is_unit(a) == invertible_with_nonneg_inverse


def test_nilpotency_class_in_nonnegative_ambient():
    assert nilpotency_class(RMatrix.zero(3)) == 1
    up = RMatrix([[0, 1, 1], [0, 0, 1], [0, 0, 0]])
    assert nilpotency_class(up) == 3
    assert nilpotency_class(RMatrix.identity(3)) is None
    with pytest.raises(MatrixError):
        nilpotency_class(RMatrix([[0, -1], [0, 0]]))
    with pytest.raises(MatrixError, match="^nilpotency class defined for square matrices$"):
        nilpotency_class(RMatrix([[0, 1]]))
