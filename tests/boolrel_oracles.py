"""Exhaustive maximality oracle: the scan over the whole ambient semigroup
that nilmat.boolrel used before it decided maximality on the single-bit
extensions. 2^(n*n) candidates for "bn", so meant for n <= 4."""

from nilmat.boolrel import BoolMatrix, _extension_breaks, nilpotency_index


def all_bool_matrices(n):
    """Every Boolean n x n matrix; 2^(n*n) of them, so keep n tiny."""
    width = (1 << n) - 1
    for code in range(1 << (n * n)):
        yield BoolMatrix(n, tuple((code >> (i * n)) & width for i in range(n)))


def rook_matrices(n):
    """Every (0,1)-matrix with at most one bit per row and column."""

    def rec(i, used_cols, rows):
        if i == n:
            yield BoolMatrix(n, tuple(rows))
            return
        rows.append(0)
        yield from rec(i + 1, used_cols, rows)
        rows.pop()
        for j in range(n):
            bit = 1 << j
            if not used_cols & bit:
                rows.append(bit)
                yield from rec(i + 1, used_cols | bit, rows)
                rows.pop()

    yield from rec(0, 0, [])


def full_scan_is_maximal(pattern, kind):
    """Does every ambient element outside the pattern break nilpotency of
    the pattern's class? Checks each one, not just the single bits."""
    k = nilpotency_index(pattern)
    universe = all_bool_matrices(pattern.n) if kind == "bn" else rook_matrices(pattern.n)
    return all(_extension_breaks(pattern, x, k) for x in universe if not x.is_subset(pattern))
