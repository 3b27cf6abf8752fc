"""Acceptance suite: one test per criterion, exact values, timed budgets.

Each test prints a single PASS line with its measured runtime; run with
pytest -s to see them. Budgets are asserted, so a slow environment fails
loudly rather than silently degrading.
"""

import math
import time
from fractions import Fraction

from conftest import (
    rng,
    rand_block_upper,
    rand_frame,
    rand_matrix,
    rand_nonneg_matrix,
    rand_pattern_supported,
    rand_q_matrix,
)
from nilmat import boolrel, omega, qflag
from nilmat.boolrel import is_maximal_nilpotent_pattern, nilpotency_index, support_pattern
from nilmat.exactmat import RMatrix, SingularMatrix
from nilmat.omega import (
    LinearOrder,
    OrderedPartition,
    count_max_nilpotent,
    enumerate_partitions,
    is_unit,
    iter_ordered_partitions,
    nilpotent_nonzero_count,
    pattern_class,
    pattern_from_order,
    pattern_from_partition,
)
from nilmat.polytope import (
    build_h_polytope,
    enumerate_vertices,
    facet_census,
    is_bounded,
)
from nilmat.qflag import (
    FlagFrame,
    flag_membership,
    is_doubly_stochastic,
    iso_backward,
    iso_forward,
    make_stochastic_nilpotent,
    nilpotency_class,
    q_zero,
    scale_toward_zero,
)
from nilmat.reference import DATASETS, reference_frame

F = Fraction


class _timer:
    def __init__(self, number, label, budget):
        self.number = number
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            return False
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, (
            f"criterion {self.number} took {elapsed:.2f}s, budget {self.budget}s"
        )
        print(f"PASS criterion {self.number:2d} ({self.label}): {elapsed:.2f}s < {self.budget}s")
        return False


def shift_matrix(size):
    rows = [[F(0)] * size for _ in range(size)]
    for i in range(size - 1):
        rows[i][i + 1] = F(1)
    return RMatrix(rows)


def test_criterion_01_reference_inequalities():
    with _timer(1, "first reference frame inequality system", 1.0):
        h = build_h_polytope(reference_frame(which="frame-a"))
        assert set(h.rows) == DATASETS["example1"]["frame-a"]["inequalities"]


def test_criterion_02_reference_vertices():
    with _timer(2, "first reference frame vertex list", 1.0):
        h = build_h_polytope(reference_frame(which="frame-a"))
        v = enumerate_vertices(h)
        assert set(v.vertices) == DATASETS["example1"]["frame-a"]["vertices"]
        assert len(v.vertices) == 10


def test_criterion_03_reference_census():
    with _timer(3, "first reference frame facet census", 1.0):
        h = build_h_polytope(reference_frame(which="frame-a"))
        assert dict(facet_census(h)) == {6: 1, 5: 2, 4: 2, 3: 2}


def test_criterion_04_second_reference_frame():
    with _timer(4, "second reference frame vertices and census", 1.0):
        h = build_h_polytope(reference_frame(which="frame-b"))
        v = enumerate_vertices(h)
        assert set(v.vertices) == {
            (F(1), F(5, 4), F(-1, 4)),
            (F(1), F(-1, 4), F(1, 4)),
            (F(-1), F(-1, 4), F(-1, 4)),
            (F(-1), F(-3, 4), F(1, 4)),
        }
        assert dict(facet_census(h)) == {3: 4}


def test_criterion_05_counting_formula_vs_enumeration():
    with _timer(5, "surjection counting formula vs brute enumeration", 5.0):
        for n in range(1, 9):
            for k in range(1, n + 1):
                brute = sum(1 for _ in iter_ordered_partitions(n, k))
                assert count_max_nilpotent(n, k) == brute
            assert count_max_nilpotent(n, n) == math.factorial(n)


def test_criterion_06_maximality_oracle():
    with _timer(6, "pattern maximality oracle", 60.0):
        for k in (1, 2, 3):
            for p in enumerate_partitions(3, k):
                assert is_maximal_nilpotent_pattern(pattern_from_partition(p), "bn")
        rook_cases = [
            pattern_from_order(LinearOrder([2, 4, 1, 3])),
            pattern_from_partition(OrderedPartition([(1, 2), (3, 4)])),
            pattern_from_partition(OrderedPartition([(2,), (1, 4), (3,)])),
        ]
        for pattern in rook_cases:
            assert is_maximal_nilpotent_pattern(pattern, "rook")


def test_criterion_07_pattern_class_equals_block_count():
    with _timer(7, "pattern class equals block count", 5.0):
        for n in range(1, 6):
            for k in range(1, n + 1):
                for p in iter_ordered_partitions(n, k):
                    assert pattern_class(pattern_from_partition(p)) == k


def test_criterion_08_support_map_preserves_class():
    with _timer(8, "support map preserves element nilpotency class", 10.0):
        r = rng(108)
        for i in range(1000):
            n = r.randint(2, 5)
            a = rand_nonneg_matrix(r, n, density=r.choice([0.2, 0.3, 0.5, 0.8]))
            exact = None
            p = a
            for k in range(1, n + 1):
                if p == RMatrix.zero(n):
                    exact = k
                    break
                p = p * a
            assert nilpotency_index(support_pattern(a)) == exact
            assert omega.nilpotency_class(a) == exact


def test_criterion_09_iso_round_trip_and_multiplicativity():
    with _timer(9, "frame isomorphism round trip and multiplicativity", 10.0):
        r = rng(109)
        frames = [rand_frame(r, 5) for _ in range(3)]
        for i in range(500):
            frame = frames[i % 3]
            b = rand_matrix(r, 4, max_den=2)
            assert iso_forward(iso_backward(b, frame), frame) == b
            a1 = rand_q_matrix(r, frame)
            a2 = rand_q_matrix(r, frame)
            assert iso_backward(iso_forward(a1, frame), frame) == a1
            assert iso_forward(a1 * a2, frame) == iso_forward(a1, frame) * iso_forward(a2, frame)


def test_criterion_10_membership_scaling_invariance():
    with _timer(10, "flag membership is scaling invariant", 10.0):
        r = rng(110)
        frames = {n: [rand_frame(r, n) for _ in range(3)] for n in (4, 5)}
        members = 0
        for i in range(500):
            n = 4 if i % 2 == 0 else 5
            frame = frames[n][i % 3]
            if i % 3 == 0:
                a = iso_backward(rand_block_upper(r, frame), frame)
            else:
                a = rand_q_matrix(r, frame)
            alpha = F(0)
            while alpha == 0:
                alpha = F(r.randint(-8, 8), r.randint(1, 4))
            before = flag_membership(a, frame)
            after = flag_membership(scale_toward_zero(a, alpha), frame)
            assert before == after
            members += before
        assert 0 < members < 500  # both members and non-members were exercised


def test_criterion_11_interpolation_counterexample():
    with _timer(11, "positive interpolations are never nilpotent", 1.0):
        for n in (3, 4, 5):
            e = RMatrix.identity(n)
            z = q_zero(n)
            for t in (F(1, 2), F(1, 3)):
                a = t * z + (1 - t) * e
                p = a
                for k in range(1, 7):
                    expected = (1 - t) ** k * e + (1 - (1 - t) ** k) * z
                    assert p == expected
                    assert p != z
                    p = p * a


def test_criterion_12_random_flag_polytopes_are_bounded():
    with _timer(12, "random flag polytopes are bounded", 60.0):
        r = rng(112)
        for i in range(100):
            n = 4 if i % 2 == 0 else 5
            assert is_bounded(build_h_polytope(rand_frame(r, n)))


def test_criterion_13_stochastic_class_attainment():
    with _timer(13, "doubly stochastic elements attain class n-1", 1.0):
        for n in (3, 4, 5):
            frame = FlagFrame.standard(n)
            a = make_stochastic_nilpotent(frame, shift_matrix(n - 1))
            assert is_doubly_stochastic(a)
            assert flag_membership(a, frame)
            assert nilpotency_class(a) == n - 1


def test_criterion_14_nilpotent_support_bound():
    with _timer(14, "nilpotent nonnegative matrices have sparse support", 5.0):
        r = rng(114)
        for i in range(1000):
            n = r.randint(2, 6)
            k = r.randint(1, n)
            partition = r.choice(enumerate_partitions(n, k))
            a = rand_pattern_supported(r, pattern_from_partition(partition))
            assert nilpotent_nonzero_count(a) <= n * (n - 1) // 2


def test_criterion_15_units_are_exactly_nonneg_invertible():
    with _timer(15, "units equal matrices with nonnegative inverse", 10.0):
        r = rng(115)
        units = 0
        for i in range(500):
            n = r.randint(2, 4)
            style = i % 3
            if style == 0:
                # monomial: permutation times positive diagonal
                perm = list(range(n))
                r.shuffle(perm)
                rows = [[F(0)] * n for _ in range(n)]
                for row, col in enumerate(perm):
                    rows[row][col] = F(r.randint(1, 5), r.randint(1, 3))
                a = RMatrix(rows)
            elif style == 1:
                a = rand_nonneg_matrix(r, n, density=0.9)  # usually invertible, not monomial
            else:
                a = rand_nonneg_matrix(r, n, density=0.4)  # often singular
            try:
                inverse_nonneg = a.inverse().min_entry() >= 0
            except SingularMatrix:
                inverse_nonneg = False
            assert is_unit(a) == inverse_nonneg
            units += is_unit(a)
        assert units >= 160  # the monomial style must have contributed


def test_full_reference_dataset_passes():
    from nilmat.reference import verify

    ok, checks = verify("example1")
    assert ok
    assert len(checks) == 6
