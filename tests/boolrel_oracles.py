"""Maximality oracles that nilmat.boolrel used before it read the answer
from path lengths.

`extension_breaks` decides one extension by saturating the semigroup
generated by {pattern, x} and measuring its class; `full_scan_is_maximal`
applies it to every ambient element outside the pattern (2^(n*n)
candidates for "bn", so meant for n <= 4), and
`single_bit_is_maximal` only to the single-bit extensions E_ij."""

from nilmat.boolrel import BoolMatrix, is_acyclic, nilpotency_index


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


def saturate_or_find_cycle(gens, keep):
    """Closure of gens by a worklist of freshly discovered products,
    stopping at the first element that the predicate `keep` rejects.

    Returns (closed_set, None) when every element is kept, otherwise
    (None, rejected_element).
    """
    for g in gens:
        if not keep(g):
            return None, g
    closed = set(gens)
    frontier = list(closed)
    while frontier:
        fresh = set()
        for a in frontier:
            for b in closed:
                for prod in (a * b, b * a):
                    if prod not in closed and prod not in fresh:
                        if not keep(prod):
                            return None, prod
                        fresh.add(prod)
        closed |= fresh
        frontier = list(fresh)
    return closed, None


def generated_class(gens, size_bound):
    """Nilpotency class of the semigroup generated by gens.

    Least m such that every product of m generators is empty. Valid only
    when the generated semigroup is nilpotent; the bound guards the loop.
    """
    current = set(gens)
    m = 1
    while any(not e.is_empty() for e in current):
        current = {a * g for a in current if not a.is_empty() for g in gens}
        m += 1
        if m > size_bound + 2:
            raise AssertionError("class iteration exceeded the closure size bound")
    return m


def extension_breaks(pattern, x, k):
    """Does adjoining x stop the pattern's downset from being nilpotent
    of class at most k?

    True when the semigroup generated by {pattern, x} contains a cyclic
    element or has nilpotency class above k. Walk-replacement arguments
    make this equivalent to the same question for the full downset, in
    both the unrestricted and the rook ambient.
    """
    gens = (pattern, x)
    closed, cyclic = saturate_or_find_cycle(gens, is_acyclic)
    if cyclic is not None:
        return True
    return generated_class(gens, len(closed)) > k


def single_bit_is_maximal(pattern):
    """Does every single-bit matrix E_ij outside the pattern break it?"""
    n = pattern.n
    k = nilpotency_index(pattern)
    return all(
        extension_breaks(pattern, BoolMatrix.from_pairs(n, [(i, j)]), k)
        for i in range(n)
        for j in range(n)
        if not pattern.has_bit(i, j)
    )


def full_scan_is_maximal(pattern, kind):
    """Does every ambient element outside the pattern break nilpotency of
    the pattern's class? Checks each one, not just the single bits."""
    k = nilpotency_index(pattern)
    universe = all_bool_matrices(pattern.n) if kind == "bn" else rook_matrices(pattern.n)
    return all(extension_breaks(pattern, x, k) for x in universe if not x.is_subset(pattern))
