from fractions import Fraction

import pytest

import exactmat_oracle as oracle
from conftest import (
    all_dims,
    rng,
    rand_block_upper,
    rand_frame,
    rand_matrix,
    rand_q_matrix,
)
from nilmat import qflag
from nilmat.exactmat import DimensionMismatch, RMatrix, MatrixError
from nilmat.omega import OrderedPartition, pattern_from_partition
from nilmat.qflag import (
    FlagFrame,
    flag_membership,
    flags_equal,
    is_doubly_stochastic,
    is_in_q,
    is_strictly_block_upper,
    iso_backward,
    iso_forward,
    make_stochastic_nilpotent,
    nilpotency_class,
    q_zero,
    scale_toward_zero,
    stochastic_scaling_range,
)
from nilmat.reference import reference_frame
from qflag_oracles import fraction_flags_equal, fraction_standard_frame

F = Fraction


def shift_matrix(size):
    rows = [[F(0)] * size for _ in range(size)]
    for i in range(size - 1):
        rows[i][i + 1] = F(1)
    return RMatrix(rows)


def interpolated(t, n):
    return t * q_zero(n) + (1 - t) * RMatrix.identity(n)


def test_flat_matrix_is_the_zero_element():
    z = q_zero(4)
    assert z * z == z
    assert is_in_q(z)
    assert is_doubly_stochastic(z)
    a = rand_q_matrix(rng(30), FlagFrame.standard(4))
    assert a * z == z
    assert z * a == z


def test_membership_examples():
    assert is_in_q(RMatrix([[0, 1], [1, 0]]))
    assert is_in_q(RMatrix([[2, -1], [-1, 2]]))
    assert not is_in_q(RMatrix([[1, 0], [0, 2]]))
    assert not is_in_q(RMatrix([[F(1, 2), F(1, 4)], [F(1, 2), F(3, 4)]]))
    with pytest.raises(MatrixError):
        is_in_q(RMatrix([[1, 2, 3]]))


def test_doubly_stochastic_examples():
    assert is_doubly_stochastic(q_zero(3))
    assert is_doubly_stochastic(RMatrix([[0, 1], [1, 0]]))
    assert not is_doubly_stochastic(RMatrix([[2, -1], [-1, 2]]))
    assert not is_doubly_stochastic(RMatrix([[1, 2, 3]]))


def test_products_stay_in_the_semigroup():
    r = rng(31)
    frame = FlagFrame.standard(5)
    for _ in range(25):
        a = rand_q_matrix(r, frame)
        b = rand_q_matrix(r, frame)
        assert is_in_q(a * b)


def test_frame_validation():
    with pytest.raises(MatrixError):
        FlagFrame(RMatrix([[2, 1], [1, -1]]), [1])  # first column not ones
    with pytest.raises(MatrixError):
        FlagFrame(RMatrix([[1, 1], [1, 0]]), [1])  # second column sum not zero
    with pytest.raises(MatrixError):
        FlagFrame(RMatrix([[1, 0], [1, 0]]), [1])  # singular
    with pytest.raises(MatrixError, match="^frame matrix must be square of size >= 2$"):
        FlagFrame(RMatrix([[1]]), [1])
    good = RMatrix([[1, 1], [1, -1]])
    with pytest.raises(MatrixError):
        FlagFrame(good, [])
    with pytest.raises(MatrixError):
        FlagFrame(good, [2])
    for dims in (1, [1.9], [True], ["1"], ["x"]):
        with pytest.raises(MatrixError, match="not a sequence of integers"):
            FlagFrame(good, dims)
    big = FlagFrame.standard(3).f
    for dims in ([True, 2], ["1", 2], ["x", 2]):
        with pytest.raises(MatrixError, match="not a sequence of integers"):
            FlagFrame(big, dims)
    frame = FlagFrame(good, [1])
    assert frame.positions == ()


def test_standard_frame_structure():
    frame = FlagFrame.standard(4)
    assert frame.dims == (1, 2, 3)
    assert frame.positions == ((0, 1), (0, 2), (1, 2))
    partial = FlagFrame.standard(4, dims=[2, 3])
    assert partial.positions == ((0, 2), (1, 2))
    for size in (3.0, True, "3", None):
        with pytest.raises(MatrixError, match="matrix size must be an integer"):
            FlagFrame.standard(size)


def test_iso_forward_examples():
    frame = reference_frame()
    n = frame.n
    assert iso_forward(q_zero(n), frame) == RMatrix.zero(n - 1)
    assert iso_forward(RMatrix.identity(n), frame) == RMatrix.identity(n - 1)
    with pytest.raises(MatrixError):
        iso_forward(RMatrix.identity(n) * 2, frame)
    with pytest.raises(MatrixError):
        iso_forward(RMatrix.identity(3), frame)


def test_iso_backward_examples():
    frame = reference_frame()
    n = frame.n
    assert iso_backward(RMatrix.zero(n - 1), frame) == q_zero(n)
    assert iso_backward(RMatrix.identity(n - 1), frame) == RMatrix.identity(n)
    b = rand_matrix(rng(32), n - 1)
    assert is_in_q(iso_backward(b, frame))
    for wrong in (RMatrix.identity(n), RMatrix.zero(n - 1, n)):
        with pytest.raises(DimensionMismatch, match="^reduced matrix must have size n-1$"):
            iso_backward(wrong, frame)
        with pytest.raises(DimensionMismatch, match="^reduced matrix must have size n-1$"):
            is_strictly_block_upper(wrong, frame)


def test_iso_round_trips_and_multiplicativity():
    r = rng(33)
    for n in (3, 4, 5):
        frame = rand_frame(r, n)
        for _ in range(10):
            b = rand_matrix(r, n - 1, max_den=2)
            assert iso_forward(iso_backward(b, frame), frame) == b
            a1 = rand_q_matrix(r, frame)
            a2 = rand_q_matrix(r, frame)
            assert iso_backward(iso_forward(a1, frame), frame) == a1
            assert iso_forward(a1 * a2, frame) == iso_forward(a1, frame) * iso_forward(
                a2, frame
            )


def test_flag_membership_examples():
    r = rng(34)
    for frame in (FlagFrame.standard(4), reference_frame(), rand_frame(r, 5)):
        n = frame.n
        assert flag_membership(q_zero(n), frame)
        assert not flag_membership(RMatrix.identity(n), frame)
        upper = rand_block_upper(r, frame, density=1.0)
        assert flag_membership(iso_backward(upper, frame), frame)


def test_flag_membership_respects_partial_flags():
    frame = FlagFrame.standard(4, dims=[2, 3])
    inside_block = RMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])  # (1,2) same block
    across = RMatrix([[0, 0, 1], [0, 0, 1], [0, 0, 0]])
    assert not flag_membership(iso_backward(inside_block, frame), frame)
    assert flag_membership(iso_backward(across, frame), frame)
    assert is_strictly_block_upper(across, frame)
    assert not is_strictly_block_upper(inside_block, frame)


def test_positions_are_the_omega_pattern_of_the_interval_partition():
    # the flag's dims cut 1..n-1 into intervals; the ordered partition into
    # those intervals labels the same pattern on the Omega side
    for n in range(2, 8):
        assert len(all_dims(n)) == 2 ** (n - 2)
        for dims in all_dims(n):
            blocks = [list(range(lo + 1, hi + 1)) for lo, hi in zip((0,) + dims, dims)]
            pattern = pattern_from_partition(OrderedPartition(blocks))
            assert list(FlagFrame.standard(n, dims).positions) == pattern.bits()


def test_block_upper_test_agrees_with_the_block_rule():
    def block(dims, j):
        # 1-based block of 1-based reduced coordinate j, read off dims
        # without FlagFrame.positions
        return next(i + 1 for i, d in enumerate(dims) if j <= d)

    r = rng(35)
    seen = set()
    for n in range(2, 7):
        for dims in all_dims(n):
            frame = FlagFrame.standard(n, dims)
            for _ in range(12):
                b = RMatrix(
                    [
                        [F(r.randint(1, 3)) if r.random() < 0.3 else F(0) for _ in range(n - 1)]
                        for _ in range(n - 1)
                    ]
                )
                expected = all(
                    block(dims, i + 1) < block(dims, j + 1) for i, j in b.nonzero_positions()
                )
                assert is_strictly_block_upper(b, frame) == expected
                assert is_strictly_block_upper(rand_block_upper(r, frame), frame)
                seen.add(expected)
    assert seen == {True, False}


def test_nilpotency_class_examples():
    assert nilpotency_class(q_zero(3)) == 1
    assert nilpotency_class(interpolated(F(1, 2), 3)) is None
    for n in (3, 4, 5):
        frame = FlagFrame.standard(n)
        a = iso_backward(shift_matrix(n - 1), frame)
        assert nilpotency_class(a) == n - 1
    with pytest.raises(MatrixError):
        nilpotency_class(RMatrix.identity(2) * 2)


def test_interpolation_powers_never_reach_the_zero_element():
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


def test_scale_toward_zero():
    frame = FlagFrame.standard(4)
    a = rand_q_matrix(rng(35), frame)
    assert scale_toward_zero(a, 1) == a
    t = F(1, 3)
    assert scale_toward_zero(RMatrix.identity(4), 1 - t) == interpolated(t, 4)
    with pytest.raises(MatrixError):
        scale_toward_zero(a, 0)
    with pytest.raises(MatrixError):
        scale_toward_zero(RMatrix.identity(4) * 2, F(1, 2))


def test_membership_is_scaling_invariant():
    r = rng(36)
    frame = FlagFrame.standard(4)
    for _ in range(30):
        member = r.random() < 0.5
        if member:
            a = iso_backward(rand_block_upper(r, frame), frame)
        else:
            a = rand_q_matrix(r, frame)
        alpha = F(0)
        while alpha == 0:
            alpha = F(r.randint(-6, 6), r.randint(1, 3))
        scaled = scale_toward_zero(a, alpha)
        assert flag_membership(a, frame) == flag_membership(scaled, frame)


def test_stochastic_scaling_range_examples():
    perm = RMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    lo, hi = stochastic_scaling_range(perm)
    assert (lo, hi) == (F(-1, 3), F(1))
    assert is_doubly_stochastic(scale_toward_zero(perm, lo))
    assert is_doubly_stochastic(scale_toward_zero(perm, hi))
    assert not is_doubly_stochastic(scale_toward_zero(perm, lo - F(1, 100)))
    assert not is_doubly_stochastic(scale_toward_zero(perm, hi + F(1, 100)))

    positive = F(1, 2) * q_zero(4) + F(1, 2) * perm
    lo2, hi2 = stochastic_scaling_range(positive)
    assert lo2 < 0 < hi2
    assert hi2 > 1

    with pytest.raises(MatrixError):
        stochastic_scaling_range(q_zero(4))
    with pytest.raises(MatrixError, match="^scaling range defined on the unit-sum semigroup$"):
        stochastic_scaling_range(RMatrix.identity(4) * 2)


def test_scaling_range_is_negative_to_positive():
    r = rng(37)
    frame = FlagFrame.standard(4)
    for _ in range(25):
        a = rand_q_matrix(r, frame)
        if a == q_zero(4):
            continue
        lo, hi = stochastic_scaling_range(a)
        assert lo < 0 < hi


def test_make_stochastic_nilpotent():
    frame = FlagFrame.standard(4)
    z = make_stochastic_nilpotent(frame, RMatrix.zero(3))
    assert z == q_zero(4)

    a = make_stochastic_nilpotent(frame, shift_matrix(3))
    assert is_doubly_stochastic(a)
    assert flag_membership(a, frame)
    assert nilpotency_class(a) == 3

    explicit = make_stochastic_nilpotent(frame, shift_matrix(3), alpha=F(1, 100))
    assert is_doubly_stochastic(explicit)

    with pytest.raises(MatrixError):
        make_stochastic_nilpotent(frame, shift_matrix(3), alpha=F(50))
    with pytest.raises(MatrixError):
        make_stochastic_nilpotent(frame, shift_matrix(3), alpha=0)
    with pytest.raises(MatrixError):
        make_stochastic_nilpotent(frame, RMatrix.identity(3))


def test_make_stochastic_nilpotent_preserves_class():
    r = rng(38)
    frame = FlagFrame.standard(5)
    for _ in range(15):
        b = rand_block_upper(r, frame)
        a = iso_backward(b, frame)
        result = make_stochastic_nilpotent(frame, b)
        assert nilpotency_class(result) == nilpotency_class(a)


def test_flags_equal():
    f1 = FlagFrame.standard(4)
    # same flag, rescaled and recombined basis columns
    cols = list(zip(*f1.f.to_rows()))
    new_cols = [
        cols[0],
        tuple(2 * x for x in cols[1]),
        tuple(x + y for x, y in zip(cols[1], cols[2])),
        tuple(-x for x in cols[3]),
    ]
    f2 = FlagFrame(RMatrix(list(zip(*new_cols))), (1, 2, 3))
    assert flags_equal(f1, f2)
    assert not flags_equal(reference_frame(which="frame-a"), reference_frame(which="frame-b"))
    assert not flags_equal(f1, FlagFrame.standard(4, dims=[2, 3]))


def _same_flag_copy(r, frame):
    """The frame with each basis column scaled by a nonzero Fraction and
    shifted by a multiple of an earlier one: the same flag, new columns."""
    cols = [list(col) for col in zip(*frame.f.to_rows())]
    for j in range(1, frame.n):
        scale = F(r.choice([-3, -2, -1, 1, 2, 3]), r.randint(1, 4))
        cols[j] = [scale * x for x in cols[j]]
        if j > 1:
            i, c = r.randint(1, j - 1), F(r.randint(-2, 2), r.randint(1, 3))
            cols[j] = [x + c * y for x, y in zip(cols[j], cols[i])]
    return FlagFrame(RMatrix(list(zip(*cols))), frame.dims)


def _swapped_across_blocks(r, frame):
    """The frame with a basis column of its first block swapped for one of
    a later block: another flag, unless the spans happen to agree."""
    i = r.randint(1, frame.dims[0])
    j = r.randint(frame.dims[0] + 1, frame.n - 1)
    cols = [list(col) for col in zip(*frame.f.to_rows())]
    cols[i], cols[j] = cols[j], cols[i]
    return FlagFrame(RMatrix(list(zip(*cols))), frame.dims)


def test_flags_equal_matches_the_fraction_oracle():
    r = rng(41)
    verdicts, dens = [], set()
    for n in range(3, 7):
        for dims in all_dims(n):
            if len(dims) < 2:
                continue
            frame = rand_frame(r, n, dims)
            copy = _same_flag_copy(r, frame)
            assert flags_equal(frame, copy)
            dens.add(copy.f._den)
            others = [
                copy,
                _swapped_across_blocks(r, frame),
                rand_frame(r, n, dims),
                FlagFrame.standard(n, dims),
            ]
            for other in others:
                for pair in ((frame, other), (other, frame), (copy, other)):
                    verdict = flags_equal(*pair)
                    assert verdict == fraction_flags_equal(*pair)
                    verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)
    assert dens != {1}


@pytest.mark.parametrize("n", range(2, 9))
def test_standard_frame_matches_the_fraction_oracle(n):
    for dims in [None] + all_dims(n):
        frame = FlagFrame.standard(n, dims)
        assert frame.f._den == 1
        assert frame.to_json_dict() == fraction_standard_frame(n, dims).to_json_dict()


@pytest.mark.parametrize(
    "frame",
    [FlagFrame.standard(4), FlagFrame.standard(4, dims=[1, 3]), reference_frame()],
    ids=["standard", "two-block", "reference"],
)
def test_make_stochastic_nilpotent_keeps_the_flat_matrix(frame):
    # b = 0 gives the flat matrix, which every alpha but 0 keeps; it has no
    # scaling range, so none is checked
    zero = RMatrix.zero(frame.n - 1)
    for alpha in (None, 5, "1/2"):
        assert make_stochastic_nilpotent(frame, zero, alpha) == q_zero(frame.n)
    with pytest.raises(MatrixError, match="^scaling by 0 collapses to the zero element$"):
        make_stochastic_nilpotent(frame, zero, 0)


def test_distinct_flags_are_separated_by_a_stochastic_element():
    frame_a = reference_frame(which="frame-a")
    frame_b = reference_frame(which="frame-b")
    b = shift_matrix(3)
    witness = make_stochastic_nilpotent(frame_b, b)
    assert is_doubly_stochastic(witness)
    assert flag_membership(witness, frame_b)
    assert not flag_membership(witness, frame_a)


@pytest.mark.parametrize("alpha", [0.1, 0.5, True, False, "x", "0.5", None], ids=repr)
def test_scaling_refuses_inexact_alpha(alpha):
    frame = FlagFrame.standard(4)
    a = iso_backward(shift_matrix(3), frame)
    with pytest.raises(MatrixError):
        scale_toward_zero(a, alpha)
    if alpha is not None:
        for b in (shift_matrix(3), RMatrix.zero(3)):
            with pytest.raises(MatrixError):
                make_stochastic_nilpotent(frame, b, alpha)


def test_scaling_reads_exact_alpha_literals():
    frame = FlagFrame.standard(4)
    b = shift_matrix(3)
    a = iso_backward(b, frame)
    assert scale_toward_zero(a, "1/3") == scale_toward_zero(a, F(1, 3))
    assert make_stochastic_nilpotent(frame, b, "1/100") == make_stochastic_nilpotent(
        frame, b, F(1, 100)
    )


@pytest.mark.parametrize("size", [True, 1.0, 0, -2, "3"])
def test_q_zero_refuses_sizes_that_are_not_positive_ints(size):
    with pytest.raises(MatrixError):
        q_zero(size)


# Fraction reference code for the integer routes of nilmat.qflag


def _ref_in_q(rows):
    return all(sum(r) == 1 for r in rows) and all(sum(c) == 1 for c in zip(*rows))


def _ref_frame_error(rows):
    if any(r[0] != 1 for r in rows):
        return "first frame column must be all ones"
    for j, col in enumerate(zip(*rows)):
        if j and sum(col) != 0:
            return f"frame column {j + 1} must have zero sum"
    return None


def _ref_reduced(rows):
    """The reduced block of a conjugated matrix, or None when it is not
    block diagonal."""
    top, *rest = rows
    if top[0] != 1 or any(top[1:]) or any(r[0] for r in rest):
        return None
    return [r[1:] for r in rest]


def _ref_default_alpha(rows):
    n = len(rows)
    return min(1 / (2 * n * abs(x)) for r in rows for x in r if x != 0) / 2


def _perturbed(r, rows):
    """rows, half of the time with a nonzero amount added to one entry,
    either alone or taken back from another entry of its row (row sums
    kept) or of its column (column sums kept)."""
    rows = [list(row) for row in rows]
    if r.random() < 0.5:
        n, m = len(rows), len(rows[0])
        i, j = r.randrange(n), r.randrange(m)
        delta = F(r.choice([-1, 1]) * r.randint(1, 3), r.randint(1, 4))
        rows[i][j] += delta
        kind = r.choice(["entry", "row", "column"])
        if kind == "row" and m > 1:
            rows[i][(j + r.randrange(1, m)) % m] -= delta
        elif kind == "column" and n > 1:
            rows[(i + r.randrange(1, n)) % n][j] -= delta
    return rows


def test_integer_routes_agree_with_fraction_reference_code():
    r = rng(39)
    seen = set()
    for _ in range(90):
        n = r.randint(2, 6)
        frame = rand_frame(r, n)
        rows = _perturbed(r, rand_q_matrix(r, frame).to_rows())
        a = RMatrix(rows)
        member = _ref_in_q(rows)
        seen.add(member)
        assert is_in_q(a) == member
        # the conjugation's constant block, computed entry by entry
        conj = oracle.RMatrix(frame.f_inv.to_rows()) * oracle.RMatrix(rows)
        want = _ref_reduced((conj * oracle.RMatrix(frame.f.to_rows())).to_rows())
        assert (want is not None) == member
        if want is None:
            with pytest.raises(MatrixError, match="not block diagonal"):
                iso_forward(a, frame)
        else:
            assert iso_forward(a, frame) == RMatrix(want)
        f_rows = _perturbed(r, frame.f.to_rows())
        message = _ref_frame_error(f_rows)
        if message is None:
            assert FlagFrame(RMatrix(f_rows), frame.dims).f == RMatrix(f_rows)
        else:
            with pytest.raises(MatrixError) as exc:
                FlagFrame(RMatrix(f_rows), frame.dims)
            assert str(exc.value) == message
    assert seen == {True, False}


def test_default_alpha_agrees_with_fraction_reference_code():
    r = rng(40)
    for _ in range(30):
        frame = rand_frame(r, r.randint(2, 6))
        b = rand_block_upper(r, frame)
        a = iso_backward(b, frame)
        if a == q_zero(frame.n):
            continue
        alpha = _ref_default_alpha(a.to_rows())
        assert make_stochastic_nilpotent(frame, b) == scale_toward_zero(a, alpha)


def test_cross_checks_are_live(monkeypatch):
    # the action route, the two-entry scaling bounds and the final
    # stochasticity check are assertions the integer routes must keep
    a = rand_q_matrix(rng(41), FlagFrame.standard(4))
    with monkeypatch.context() as m:
        m.setattr(qflag, "_in_q_by_action", lambda a: False)
        with pytest.raises(AssertionError):
            is_in_q(a)
    with monkeypatch.context() as m:
        m.setattr(RMatrix, "max_entry", RMatrix.min_entry)
        with pytest.raises(AssertionError):
            stochastic_scaling_range(a)
    with monkeypatch.context() as m:
        m.setattr(qflag, "is_doubly_stochastic", lambda a: False)
        with pytest.raises(AssertionError):
            make_stochastic_nilpotent(FlagFrame.standard(4), shift_matrix(3))
