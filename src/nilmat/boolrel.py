"""Boolean matrices as binary relations on {1..n}.

A BoolMatrix is simultaneously a (0,1)-matrix under Boolean product, a
binary relation under composition, and the digraph with an edge i -> j
whenever bit (i, j) is set. Rows are stored as integer bitmasks, which
makes composition a handful of bitwise ORs.
"""

from .exactmat import MatrixError

_CLOSURE_MAX_N = 5


class BoolMatrix:
    """Square Boolean matrix with rows stored as bitmasks."""

    __slots__ = ("n", "rows")

    def __init__(self, n, rows):
        rows = tuple(rows)
        if n < 1:
            raise MatrixError("BoolMatrix size must be positive")
        if len(rows) != n or any(not 0 <= r < (1 << n) for r in rows):
            raise MatrixError("row masks do not match the declared size")
        self.n = n
        self.rows = rows

    @classmethod
    def empty(cls, n):
        return cls(n, (0,) * n)

    @classmethod
    def full(cls, n):
        return cls(n, ((1 << n) - 1,) * n)

    @classmethod
    def from_pairs(cls, n, pairs):
        """Build from 0-based (i, j) pairs."""
        rows = [0] * n
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise MatrixError(f"bit ({i}, {j}) out of range for size {n}")
            rows[i] |= 1 << j
        return cls(n, rows)

    def bits(self):
        """0-based (i, j) pairs in row-major order."""
        out = []
        for i in range(self.n):
            m = self.rows[i]
            while m:
                j = (m & -m).bit_length() - 1
                out.append((i, j))
                m &= m - 1
        return out

    def has_bit(self, i, j):
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
        for i in range(self.n):
            m = self.rows[i]
            acc = 0
            while m:
                j = (m & -m).bit_length() - 1
                acc |= other.rows[j]
                m &= m - 1
            out.append(acc)
        return BoolMatrix(self.n, out)

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
        n = obj["n"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise MatrixError("pattern size must be a positive integer")
        pairs = []
        for pair in obj["bits"]:
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or not all(isinstance(c, int) and not isinstance(c, bool) for c in pair)
            ):
                raise MatrixError(f"bad bit entry: {pair!r}")
            i, j = pair
            if not (1 <= i <= n and 1 <= j <= n):
                raise MatrixError(f"bit ({i}, {j}) out of range for size {n}")
            pairs.append((i - 1, j - 1))
        return cls.from_pairs(n, pairs)


def support_pattern(a):
    """Boolean support of a square nonnegative rational matrix.

    This map is multiplicative on nonnegative matrices because sums of
    nonnegative products cannot cancel; a negative entry is refused.
    """
    if not a.is_square:
        raise MatrixError("support pattern needs a square matrix")
    rows = []
    for i in range(a.rows):
        mask = 0
        for j, x in enumerate(a.row(i)):
            if x < 0:
                raise MatrixError(f"negative entry at ({i + 1}, {j + 1}); support map undefined")
            if x != 0:
                mask |= 1 << j
        rows.append(mask)
    return BoolMatrix(a.rows, rows)


def is_acyclic(b):
    """Kahn's topological sort; a self-loop counts as a cycle."""
    n = b.n
    indeg = [0] * n
    for i in range(n):
        m = b.rows[i]
        while m:
            j = (m & -m).bit_length() - 1
            indeg[j] += 1
            m &= m - 1
    stack = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while stack:
        v = stack.pop()
        seen += 1
        m = b.rows[v]
        while m:
            j = (m & -m).bit_length() - 1
            indeg[j] -= 1
            if indeg[j] == 0:
                stack.append(j)
            m &= m - 1
    return seen == n


def nilpotency_index(b):
    """Least k with b^k empty, or None when the digraph has a cycle.

    Power iteration is bounded by n steps (an acyclic relation dies by
    b^n); the independent acyclicity detector cross-checks the answer.
    """
    acyclic = is_acyclic(b)
    p = b
    for k in range(1, b.n + 1):
        if p.is_empty():
            assert acyclic, "power iteration and topological sort disagree"
            return k
        p = p * b
    assert not acyclic, "power iteration and topological sort disagree"
    return None


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
    return _saturate_or_find_cycle(gens, None)[0]


def _saturate_or_find_cycle(gens, keep):
    """Closure of gens by a worklist of freshly discovered products,
    stopping at the first element that the predicate `keep` rejects.

    Returns (closed_set, None) when every element is kept, otherwise
    (None, rejected_element). The maximality oracle passes is_acyclic, so
    the rejected element is one whose digraph has a cycle; keep=None
    saturates unconditionally.
    """
    if keep is not None:
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
                        if keep is not None and not keep(prod):
                            return None, prod
                        fresh.add(prod)
        closed |= fresh
        frontier = list(fresh)
    return closed, None


def _generated_class(gens, size_bound):
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


def is_maximal_nilpotent_pattern(pattern, kind="bn"):
    """Is the downward-closed set below `pattern` a maximal nilpotent
    subsemigroup of its class inside the chosen finite ambient semigroup?

    kind "bn" takes all Boolean matrices as ambient, kind "rook" only
    those with at most one bit per row and column. The candidate set T is
    every ambient element supported inside the pattern; maximality is
    relative to the class of T, so adjoining any outside element must
    either create a cycle or force a strictly larger nilpotency class.

    Boolean products are monotone in each factor and any dominated factor
    can be replaced by the pattern itself (or, below, by single-bit
    matrices along a witnessing walk), so both the cycle test and the
    class of the extension are decided on the two generators
    {pattern, x}. Breaking is upward-closed in x: when x is inside y, each
    product word over {pattern, y} contains the same word over
    {pattern, x}, so a cyclic element or a nonempty product of k
    generators survives the swap. Every x outside the pattern contains a
    single-bit matrix E_ij outside it, and every E_ij is a rook matrix,
    so it suffices to test the single-bit extensions, and both ambients
    get the same answer.
    """
    if kind not in ("bn", "rook"):
        raise MatrixError(f"unknown ambient kind: {kind!r}")
    n = pattern.n
    if n > 4:
        raise MatrixError("maximality oracle limited to n <= 4")
    k = nilpotency_index(pattern)
    if k is None:
        raise MatrixError("pattern is not nilpotent: its digraph has a cycle")
    return all(
        _extension_breaks(pattern, BoolMatrix.from_pairs(n, [(i, j)]), k)
        for i in range(n)
        for j in range(n)
        if not pattern.has_bit(i, j)
    )


def _extension_breaks(pattern, x, k):
    """Does adjoining x stop the pattern's downset from being nilpotent
    of class at most k?

    True when the semigroup generated by {pattern, x} contains a cyclic
    element or has nilpotency class above k. Walk-replacement arguments
    make this equivalent to the same question for the full downset, in
    both the unrestricted and the rook ambient.
    """
    gens = (pattern, x)
    closed, cyclic = _saturate_or_find_cycle(gens, is_acyclic)
    if cyclic is not None:
        return True
    return _generated_class(gens, len(closed)) > k
