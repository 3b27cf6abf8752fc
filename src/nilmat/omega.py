"""Maximal nilpotent structure in the semigroup of nonnegative matrices.

Subsemigroups are represented by their Boolean support patterns. A linear
order on {1..n} labels the class-n case, an ordered partition into k
blocks the class-k case; everything element-level reduces to a membership
test against the pattern.
"""

import math
from itertools import chain
from operator import add

from .boolrel import BoolMatrix, _partition_rows, _size, _support, is_rook, nilpotency_index
from .exactmat import MatrixError, _is_int, _normalised, _parse_int, _shown, int_tuple

KINDS = ("omega", "m0", "m0plus")

# most work count_max_nilpotent takes on: the count's bit size, at most
# n·bit_length(k - 1) as the count is below k^n, times its k terms. Every
# (n, k) that passes the digit check at Python's default 4,300 digits stays
# below it (the largest, n = k = 1632, needs 29,297,664), and the costliest
# (n, k) it lets through, k = 3, took 1.2 s on a 2-vCPU Xeon VM
MAX_COUNT_WORK = 2**25


def _require_text(text, what):
    if not isinstance(text, str):
        raise MatrixError(f"{what} must be a string, got {type(text).__name__}")
    return text


def _parse_ints(text):
    try:
        return [_parse_int(part) for part in text.split(",")]
    except ValueError:
        raise MatrixError(f"not a comma-separated list of integers: {text!r}") from None


class OrderedPartition:
    """Ordered sequence of disjoint nonempty blocks covering {1..n}."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        try:
            blocks = tuple(tuple(sorted(int_tuple(b))) for b in blocks)
        except TypeError:  # blocks itself is not iterable
            raise MatrixError(f"not a sequence of integers: {_shown(blocks)}") from None
        if not blocks or any(not b for b in blocks):
            raise MatrixError("blocks must be nonempty")
        flat = [x for b in blocks for x in b]
        n = len(flat)
        if sorted(flat) != list(range(1, n + 1)):
            raise MatrixError(f"blocks must partition 1..{n}: {_shown(blocks)}")
        self.blocks = blocks

    @classmethod
    def parse(cls, text):
        """Parse "1,3|2" into blocks ({1,3}, {2})."""
        text = _require_text(text, "ordered partition")
        return cls(_parse_ints(part) for part in text.split("|"))

    @classmethod
    def _trusted(cls, blocks):
        # fast path for enumeration, where blocks are sorted, disjoint and
        # covering by construction
        self = object.__new__(cls)
        self.blocks = blocks
        return self

    @property
    def n(self):
        return sum(len(b) for b in self.blocks)

    @property
    def k(self):
        return len(self.blocks)

    def __str__(self):
        return "|".join(",".join(str(x) for x in b) for b in self.blocks)

    def __eq__(self, other):
        return isinstance(other, OrderedPartition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"OrderedPartition({self.blocks})"


class LinearOrder(OrderedPartition):
    """A linear order on {1..n}, listed from smallest to largest: the
    ordered partition of 1..n into singletons, which it equals."""

    __slots__ = ()

    def __init__(self, seq):
        seq = int_tuple(seq)
        n = len(seq)
        if n < 1 or sorted(seq) != list(range(1, n + 1)):
            raise MatrixError(f"not a permutation of 1..{n}: {_shown(seq)}")
        self.blocks = tuple((x,) for x in seq)

    @classmethod
    def parse(cls, text):
        return cls(_parse_ints(_require_text(text, "linear order")))

    @property
    def seq(self):
        return tuple(b[0] for b in self.blocks)

    def __str__(self):
        return ",".join(str(x) for x in self.seq)

    def __repr__(self):
        return f"LinearOrder({self.seq})"


def pattern_from_order(order):
    """Support pattern of the subsemigroup labelled by a linear order.

    Bit (k, l) is set exactly when k comes before l, so the pattern has
    n(n-1)/2 bits and is the strict upper triangle after relabelling.
    """
    pattern = pattern_from_partition(order)
    assert pattern.bit_count() == order.n * (order.n - 1) // 2
    return pattern


def pattern_from_partition(partition):
    """Support pattern of the class-k subsemigroup labelled by an ordered
    partition: bit (i, j) is set when i's block comes strictly before j's."""
    n = _size(partition.n, "pattern size")
    return BoolMatrix._trusted(n, _partition_rows(n, partition.blocks))


def membership(a, pattern, kind="omega"):
    """Does the matrix lie in the pattern's subsemigroup of the ambient?

    kind "omega" requires nonnegative entries, "m0" at most one nonzero
    per row and per column, "m0plus" both. On top of the ambient test the
    support must sit inside the pattern.
    """
    if kind not in KINDS:
        raise MatrixError(f"unknown semigroup kind: {_shown(kind)}")
    if not a.is_square or a.rows != pattern.n:
        raise MatrixError("matrix size must match the pattern size")
    if kind in ("omega", "m0plus") and a.min_entry() < 0:
        return False
    support = _support(a)
    if kind in ("m0", "m0plus") and not is_rook(support):
        return False
    return support.is_subset(pattern)


def _check_block_count(n, k):
    """n and k checked as a set size and a block count: ints, not bools,
    with 1 <= k <= n."""
    if not (_is_int(n) and _is_int(k)):
        raise MatrixError(
            f"n and k must be integers, got {type(n).__name__} and {type(k).__name__}"
        )
    if not (1 <= k <= n):
        raise MatrixError(f"need 1 <= k <= n, got k={_shown(k)}, n={_shown(n)}")


def count_max_nilpotent(n, k, max_digits=0):
    """Number of maximal nilpotent subsemigroups of class k, i.e. the
    number of surjections from an n-set onto k ordered blocks, by
    inclusion-exclusion. k = n gives n!.

    A positive max_digits refuses, before any big-integer work, an (n, k)
    whose count surely has more decimal digits than that. Whatever
    max_digits is, an (n, k) whose work bound exceeds MAX_COUNT_WORK is
    refused too, after that check."""
    _check_block_count(n, k)
    if not _is_int(max_digits) or max_digits < 0:
        raise MatrixError("max_digits must be a nonnegative integer")
    # the count is at least k!·k^(n-k) (the first k elements go onto the
    # blocks bijectively, the rest anywhere), so at least 2^bits with bits
    # the sum of floor(log2 i) over i <= k plus (n - k)·floor(log2 k)
    m = k.bit_length() - 1
    bits = m * (k + 1) - (1 << (m + 1)) + 2 + (n - k) * m
    # 2^bits >= 10^max_digits, as log2(10) < 3.322
    if max_digits and bits * 1000 >= max_digits * 3322:
        raise MatrixError("number has too many digits to write out")
    if n * (k - 1).bit_length() * k > MAX_COUNT_WORK:
        raise MatrixError(f"count limited to n * bit_length(k - 1) * k <= {MAX_COUNT_WORK}")
    return sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k))


_ENUMERATION_MAX_N = 10


def _assignments(elements, k, spare, blocks=None, mask=0):
    """Assignments of the elements to k blocks, in the lexicographic order
    of their block-index vectors, that leave at most spare blocks empty:
    (blocks, mask of the nonempty blocks) pairs. A partial assignment is
    dropped as soon as more blocks are empty than spare plus the elements
    still to place can fill."""
    if blocks is None:
        blocks = ((),) * k
    if not elements:
        yield blocks, mask
        return
    e, rest = elements[0], elements[1:]
    for b in range(k):
        used = mask | 1 << b
        if k - used.bit_count() <= spare + len(rest):
            placed = blocks[:b] + (blocks[b] + (e,),) + blocks[b + 1 :]
            yield from _assignments(rest, k, spare, placed, used)


def _partition_chunks(n, k, tail_item=None):
    """The ordered partitions of {1..n} into k blocks, one chunk per head.

    The tail is the assignment of the last t = floor(n/2) elements, and the
    head that of the first h = n - t. Every head element is smaller than
    every tail element, so block j of a partition is head block j followed
    by tail block j, and the canonical order is head-major and tail-minor.
    Yields (head blocks, tails) in that order, where tails lists
    tail_item(tail blocks), or the tail blocks themselves, for every tail
    covering the blocks that the head leaves empty. The tail table, at most
    k^t assignments, is built once per call, and the tails for each set of
    empty blocks are filtered once."""
    _check_block_count(n, k)
    if n > _ENUMERATION_MAX_N:
        raise MatrixError(f"partition enumeration limited to n <= {_ENUMERATION_MAX_N}")
    t = n // 2
    h = n - t
    masks, items = [], []
    for blocks, mask in _assignments(range(h + 1, n + 1), k, h):
        masks.append(mask)
        items.append(blocks if tail_item is None else tail_item(blocks))
    full = (1 << k) - 1
    covering = {}  # empty blocks of a head -> the tails that fill them
    for head, mask in _assignments(range(1, h + 1), k, t):
        empty = full & ~mask
        chunk = covering.get(empty)
        if chunk is None:
            chunk = covering[empty] = [
                item for used, item in zip(masks, items) if used & empty == empty
            ]
        yield head, chunk


def iter_ordered_partitions(n, k):
    """All ordered partitions of {1..n} into k nonempty blocks.

    Canonical order: blocks hold sorted contents and partitions come out
    lexicographically by the vector (block index of 1, ..., block index
    of n)."""
    trusted = OrderedPartition._trusted
    for head, tails in _partition_chunks(n, k):
        for tail in tails:
            yield trusted(tuple(map(add, head, tail)))


def enumerate_partitions(n, k):
    return list(iter_ordered_partitions(n, k))


def nilpotency_class(a):
    """Least k with a^k equal to the zero matrix, or None.

    The ambient here is the nonnegative matrices, whose zero element is
    the zero matrix. Their support map is multiplicative, so a^k vanishes
    exactly when the k-th Boolean power of the support pattern is empty.
    """
    if not a.is_square:
        raise MatrixError("nilpotency class defined for square matrices")
    if a.min_entry() < 0:
        raise MatrixError("nilpotency class here is relative to the nonnegative ambient")
    return nilpotency_index(_support(a))


def pattern_class(pattern):
    """Nilpotency class of the full pattern subsemigroup, computed as the
    least Boolean power of the pattern that vanishes."""
    k = nilpotency_index(pattern)
    if k is None:
        raise MatrixError("pattern has a directed cycle, so no nilpotency class")
    return k


def monomial_conjugator(order1, order2):
    """Permutation matrix M whose conjugation X -> M^-1 X M carries the
    first ordered partition's pattern onto the second's; the two need the
    same block sizes, in order, as any two linear orders on 1..n have.

    M has a one at (i, j) exactly when j is the image of i under the
    permutation sending the t-th element of order1's blocks, read in
    order, to the t-th element of order2's."""
    if order1.n != order2.n:
        raise MatrixError("orders live on different ground sets")
    if [len(b) for b in order1.blocks] != [len(b) for b in order2.blocks]:
        raise MatrixError("ordered partitions have different block sizes")
    n = order1.n
    image = dict(zip(chain.from_iterable(order1.blocks), chain.from_iterable(order2.blocks)))
    return _normalised(
        tuple(tuple(int(image[i] == j) for j in range(1, n + 1)) for i in range(1, n + 1)), 1
    )


def nilpotent_nonzero_count(a):
    """Count the nonzero entries of a nilpotent nonnegative matrix.

    The count never exceeds n(n-1)/2 because the support of a nilpotent
    nonnegative matrix fits inside a strict triangle after relabelling.
    """
    if nilpotency_class(a) is None:
        raise MatrixError("matrix is not nilpotent")
    count = a.count_nonzero()
    assert count <= a.rows * (a.rows - 1) // 2
    return count


def is_unit(a):
    """Is the matrix invertible inside the nonnegative ambient, i.e. a
    monomial matrix with positive entries? Equivalent to having an
    inverse that is again nonnegative. A matrix with a negative entry lies
    outside that ambient, so it is not a unit of it."""
    if not a.is_square:
        raise MatrixError("support pattern needs a square matrix")
    if a.min_entry() < 0:
        return False
    support = _support(a)
    return is_rook(support) and support.bit_count() == a.rows
