"""Oracles that nilmat.omega used before it carried partition blocks
through the enumeration, built patterns from block masks and built
permutation matrices from integer rows.

`assignment_partitions` fills a block-index vector, tracks the used blocks
in a bitmask and rebuilds the blocks at every leaf; `pair_order_pattern`
and `pair_partition_pattern` list every (i, j) pair whose order or block
index increases and hand the list to BoolMatrix.from_pairs.
`fraction_monomial_conjugator` fills Fraction rows and hands them to
RMatrix."""

from nilmat.boolrel import BoolMatrix
from nilmat.exactmat import ONE, ZERO, RMatrix
from nilmat.omega import OrderedPartition


def assignment_partitions(n, k):
    """Ordered partitions of {1..n} into k nonempty blocks, in the
    lexicographic order of the block-index vector."""
    assign = [0] * n

    def rec(i, used_mask):
        if i == n:
            blocks = [[] for _ in range(k)]
            for elem0, b in enumerate(assign):
                blocks[b - 1].append(elem0 + 1)
            yield OrderedPartition._trusted(tuple(tuple(b) for b in blocks))
            return
        remaining = n - i - 1
        for b in range(1, k + 1):
            mask = used_mask | (1 << b)
            if k - mask.bit_count() > remaining:
                continue
            assign[i] = b
            yield from rec(i + 1, mask)

    yield from rec(0, 0)


def pair_order_pattern(order):
    """Bit (i, j) set exactly when i comes before j in the order."""
    pos = {e: t for t, e in enumerate(order.seq)}
    n = order.n
    pairs = [
        (i - 1, j - 1)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j and pos[i] < pos[j]
    ]
    return BoolMatrix.from_pairs(n, pairs)


def block_indices(partition):
    """Map element -> 1-based index of its block."""
    return {x: idx for idx, block in enumerate(partition.blocks, start=1) for x in block}


def pair_partition_pattern(partition):
    """Bit (i, j) set exactly when i's block comes before j's."""
    bidx = block_indices(partition)
    n = partition.n
    pairs = [
        (i - 1, j - 1)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if bidx[i] < bidx[j]
    ]
    return BoolMatrix.from_pairs(n, pairs)


def fraction_monomial_conjugator(order1, order2):
    """Permutation matrix with a one at (i, j) when the t-th element of
    order1's blocks, read in order, is i and the t-th element of order2's
    is j."""
    n = order1.n
    seq1 = [x for block in order1.blocks for x in block]
    seq2 = [x for block in order2.blocks for x in block]
    image = {seq1[t]: seq2[t] for t in range(n)}
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(1, n + 1):
        rows[i - 1][image[i] - 1] = ONE
    return RMatrix(rows)
