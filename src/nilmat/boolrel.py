"""Boolean matrices as binary relations on {1..n}.

A BoolMatrix is simultaneously a (0,1)-matrix under Boolean product, a
binary relation under composition, and the digraph with an edge i -> j
whenever bit (i, j) is set. Rows are stored as integer bitmasks, which
makes composition a handful of bitwise ORs.
"""

from .exactmat import MAX_ENTRIES, MatrixError, _is_int, _shown, int_tuple

_CLOSURE_MAX_N = 5


def _size(n, what="BoolMatrix size"):
    """n checked as the size of a Boolean matrix to build from it: a
    positive int, not a bool, with at most MAX_ENTRIES bits in all."""
    if not _is_int(n) or n < 1:
        raise MatrixError(f"{what} must be a positive integer")
    if n * n > MAX_ENTRIES:
        raise MatrixError(f"Boolean matrices are limited to {MAX_ENTRIES} entries")
    return n


class BoolMatrix:
    """Square Boolean matrix with rows stored as bitmasks."""

    __slots__ = ("n", "rows")

    def __init__(self, n, rows):
        n = _size(n)
        rows = int_tuple(rows)
        if len(rows) != n or any(not 0 <= r < (1 << n) for r in rows):
            raise MatrixError("row masks do not match the declared size")
        self.n = n
        self.rows = rows

    @classmethod
    def _trusted(cls, n, rows):
        # for a size and a tuple of row masks valid by construction
        self = object.__new__(cls)
        self.n, self.rows = n, rows
        return self

    @classmethod
    def empty(cls, n):
        n = _size(n)
        return cls._trusted(n, (0,) * n)

    @classmethod
    def full(cls, n):
        n = _size(n)
        return cls._trusted(n, ((1 << n) - 1,) * n)

    @classmethod
    def from_pairs(cls, n, pairs):
        """Build from 0-based (i, j) pairs of ints."""
        n = _size(n)
        return cls._trusted(n, _bit_rows(n, pairs, 0))

    def bits(self):
        """0-based (i, j) pairs in row-major order."""
        return [(i, j) for i in range(self.n) for j in _set_bits(self.rows[i])]

    def has_bit(self, i, j):
        if not (_is_int(i) and _is_int(j) and 0 <= i < self.n and 0 <= j < self.n):
            raise MatrixError(f"bit ({_shown(i)}, {_shown(j)}) out of range for size {self.n}")
        return bool(self.rows[i] >> j & 1)

    def bit_count(self):
        return sum(r.bit_count() for r in self.rows)

    def is_empty(self):
        return all(r == 0 for r in self.rows)

    def is_subset(self, other):
        if self.n != other.n:
            raise MatrixError("size mismatch")
        return all(a & ~b == 0 for a, b in zip(self.rows, other.rows))

    def __mul__(self, other):
        if not isinstance(other, BoolMatrix):
            return NotImplemented
        if self.n != other.n:
            raise MatrixError("size mismatch in Boolean product")
        out = []
        # the hot path: an inline bit loop, not _set_bits, whose generator
        # makes the product about a fifth slower
        for i in range(self.n):
            m = self.rows[i]
            acc = 0
            while m:
                j = (m & -m).bit_length() - 1
                acc |= other.rows[j]
                m &= m - 1
            out.append(acc)
        # valid by construction: each row is an OR of the other's rows
        return BoolMatrix._trusted(self.n, tuple(out))

    def __eq__(self, other):
        return isinstance(other, BoolMatrix) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"BoolMatrix({self.n}, bits={[(i + 1, j + 1) for i, j in self.bits()]})"

    # -- JSON (bits are 1-based on the wire) ----------------------------------

    def to_json_dict(self):
        return {"n": self.n, "bits": [[i + 1, j + 1] for i, j in self.bits()]}

    @classmethod
    def from_json_dict(cls, obj):
        if not isinstance(obj, dict) or "n" not in obj or "bits" not in obj:
            raise MatrixError('pattern JSON must be {"n": ..., "bits": [[i, j], ...]}')
        n = _size(obj["n"], "pattern size")
        if not isinstance(obj["bits"], list):
            raise MatrixError('pattern JSON must be {"n": ..., "bits": [[i, j], ...]}')
        return cls._trusted(n, _bit_rows(n, obj["bits"], 1))


def _bit_rows(n, pairs, base):
    """Row masks of a size-n pattern from (i, j) pairs numbered from base,
    0 or 1; each pair is checked once, and an error quotes it as given."""
    try:
        pairs = list(pairs)
    except TypeError:
        raise MatrixError(f"not a sequence of (i, j) pairs: {_shown(pairs)}") from None
    rows = [0] * n
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not all(map(_is_int, pair)):
            raise MatrixError(f"bad bit entry: {_shown(pair)}")
        i, j = pair
        if not (base <= i < n + base and base <= j < n + base):
            raise MatrixError(f"bit ({_shown(i)}, {_shown(j)}) out of range for size {n}")
        rows[i - base] |= 1 << (j - base)
    return tuple(rows)


def _support(a):
    """Boolean support of a square matrix, read from its integer rows."""
    return BoolMatrix._trusted(
        a.rows, tuple(sum(1 << j for j, x in enumerate(row) if x) for row in a._num)
    )


def support_pattern(a):
    """Boolean support of a square nonnegative rational matrix.

    This map is multiplicative on nonnegative matrices because sums of
    nonnegative products cannot cancel; a negative entry is refused.
    """
    if not a.is_square:
        raise MatrixError("support pattern needs a square matrix")
    if a.min_entry() < 0:
        raise MatrixError("negative entry; support map undefined")
    return _support(a)


def _partition_rows(n, blocks):
    """Row masks of an ordered partition of 1..n into blocks: bit (i, j)
    is set when i's block comes strictly before j's."""
    rows = [0] * n
    later = 0  # the elements of the blocks after the current one
    for block in reversed(blocks):
        mask = 0
        for x in block:
            rows[x - 1] = later
            mask |= 1 << (x - 1)
        later |= mask
    return tuple(rows)


def _set_bits(mask):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _layers(b):
    """Kahn's topological sort of the digraph of b, recording each vertex's
    layer L(x), the length of the longest path ending at x. Returns the
    layers, or None when a cycle (a self-loop included) leaves vertices
    unsorted, their in-degrees never reaching 0."""
    indeg = [0] * b.n
    for r in b.rows:
        for j in _set_bits(r):
            indeg[j] += 1
    layer = [0] * b.n
    stack = [v for v in range(b.n) if indeg[v] == 0]
    while stack:
        v = stack.pop()
        above = layer[v] + 1
        for j in _set_bits(b.rows[v]):
            if layer[j] < above:
                layer[j] = above
            indeg[j] -= 1
            if indeg[j] == 0:
                stack.append(j)
    return None if any(indeg) else layer


def is_acyclic(b):
    """Kahn's topological sort; a self-loop counts as a cycle."""
    return _layers(b) is not None


def nilpotency_index(b):
    """Least k with b^k empty, or None when the digraph has a cycle.

    Power iteration is bounded by n steps (an acyclic relation dies by
    b^n). The longest-path layering cross-checks the answer on the class:
    k is one more than the highest layer, and None means no layering.
    """
    layers = _layers(b)
    expected = None if layers is None else max(layers) + 1
    p = b
    for k in range(1, b.n + 1):
        if p.is_empty():
            break
        p = p * b
    else:
        k = None
    assert k == expected, "power iteration and layering disagree"
    return k


def is_rook(b):
    """At most one set bit per row and per column."""
    seen_cols = 0
    for r in b.rows:
        if r.bit_count() > 1 or r & seen_cols:
            return False
        seen_cols |= r
    return True


def closure(generators):
    """Multiplicative closure of a set of same-sized Boolean matrices.

    The size guard keeps desk-scale inputs from exploding.
    """
    gens = list(set(generators))
    if not gens:
        raise MatrixError("closure needs at least one generator")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise MatrixError("generators must share one size")
    if n > _CLOSURE_MAX_N:
        raise MatrixError(f"closure limited to n <= {_CLOSURE_MAX_N}")
    return _saturate_or_find_cycle(gens)


def _saturate_or_find_cycle(gens):
    """Closure of gens by a worklist of freshly discovered products.

    The benchmark's tracer spans this function by name.
    """
    closed = set(gens)
    frontier = list(closed)
    while frontier:
        fresh = set()
        for a in frontier:
            for b in closed:
                for prod in (a * b, b * a):
                    if prod not in closed:
                        fresh.add(prod)
        closed |= fresh
        frontier = list(fresh)
    return closed


def is_maximal_nilpotent_pattern(pattern, kind="bn"):
    """Is the downward-closed set below `pattern` a maximal nilpotent
    subsemigroup of its class inside the chosen finite ambient semigroup?

    kind "bn" takes all Boolean matrices as ambient, kind "rook" only
    those with at most one bit per row and column. The candidate set T is
    every ambient element supported inside the pattern P, of class k;
    maximality is relative to that class, so adjoining any outside
    element must either create a cycle or force a class above k.

    Put each vertex x in layer L(x), the length of the longest path in P
    ending at x; there are k layers. Every edge of P climbs at least one
    layer, so P lies inside its layer pattern, which has bit (i, j) set
    when L(i) < L(j): the pattern of an ordered k-partition, of the same
    class k. The maximal class-k patterns are exactly the patterns of the
    ordered k-partitions (the paper), so P is maximal exactly when it
    equals its layer pattern. Boolean products are monotone, so an outside
    element breaks P exactly when some outside single-bit E_ij inside it
    does; every E_ij is a rook matrix, so "rook" gets the verdict of "bn".
    """
    if kind not in ("bn", "rook"):
        raise MatrixError(f"unknown ambient kind: {_shown(kind)}")
    layers = _layers(pattern)
    if layers is None:
        raise MatrixError("pattern is not nilpotent: its digraph has a cycle")
    blocks = [[] for _ in range(max(layers) + 1)]
    for v, t in enumerate(layers):
        blocks[t].append(v + 1)
    return pattern.rows == _partition_rows(pattern.n, blocks)
