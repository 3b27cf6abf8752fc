"""Maximality oracles that nilmat.boolrel used before it compared a
pattern with its longest-path layering.

`extension_breaks` decides one extension by saturating the semigroup
generated by {pattern, x} and measuring its class; `full_scan_is_maximal`
applies it to every ambient element outside the pattern (2^(n*n)
candidates for "bn", so meant for n <= 4), and
`single_bit_is_maximal` only to the single-bit extensions E_ij.
`path_length_is_maximal` reads the answer from path lengths, for any n,
relaxed by `longest_paths_in`."""

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


def longest_paths_in(pattern):
    """Lengths of the longest paths ending and starting at each vertex of
    an acyclic pattern, as two lists, by n rounds of relaxation over its
    edges."""
    n = pattern.n
    edges = pattern.bits()
    longest_in, longest_out = [0] * n, [0] * n
    for _ in range(n):
        for i, j in edges:
            longest_in[j] = max(longest_in[j], longest_in[i] + 1)
            longest_out[i] = max(longest_out[i], longest_out[j] + 1)
    return longest_in, longest_out


def path_length_is_maximal(pattern):
    """Maximality of an acyclic pattern P of class k by path lengths, in
    either ambient.

    Breaking is upward-closed in the adjoined element x (each product
    word over {P, y} contains the same word over {P, x} when x is inside
    y), every x outside P contains a single-bit matrix E_ij outside it,
    and every E_ij is a rook matrix, so both ambients get the verdict of
    the single-bit extensions. Let L_in(i) be the longest path in P
    ending at i and L_out(j) the longest starting at j. When P plus the
    edge (i, j) is acyclic, a walk in it uses (i, j) at most once, the
    longest through it has L_in(i) + 1 + L_out(j) edges, and any k
    consecutive edges of one spell a nonempty product of k generators;
    so E_ij breaks the pattern exactly when that sum is at least k.
    Otherwise i = j or j reaches i, E_ij makes a cycle and always breaks,
    yet the verdict needs no test for it: a sum below k then gives
    L_in(i) + L_out(i) <= k - 2, so on a longest path v_0 ... v_(k-1) of
    P the vertex v_t with t = L_in(i) + 1 is no successor of i (else
    L_out(i) >= k - t), cannot reach i, and E_(i, v_t) keeps the class.
    Hence P is maximal exactly when L_in(i) + 1 + L_out(j) >= k for
    every bit (i, j) outside P. The lengths come from `longest_paths_in`,
    and k is the longest path plus one.
    """
    n = pattern.n
    longest_in, longest_out = longest_paths_in(pattern)
    k = max(longest_in) + 1
    return all(
        longest_in[i] + 1 + longest_out[j] >= k
        for i in range(n)
        for j in range(n)
        if not pattern.has_bit(i, j)
    )
