"""Boolean matrices as binary relations on {1..n}.

A BoolMatrix is simultaneously a (0,1)-matrix under Boolean product, a
binary relation under composition, and the digraph with an edge i -> j
whenever bit (i, j) is set. Rows are stored as integer bitmasks, which
makes composition a handful of bitwise ORs.
"""

from .exactmat import MatrixError, _is_int

_CLOSURE_MAX_N = 5
_MAXIMALITY_MAX_N = 10  # also the bound of omega.iter_ordered_partitions


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
        return [(i, j) for i in range(self.n) for j in _set_bits(self.rows[i])]

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
        if not _is_int(n) or n < 1:
            raise MatrixError("pattern size must be a positive integer")
        if not isinstance(obj["bits"], list):
            raise MatrixError('pattern JSON must be {"n": ..., "bits": [[i, j], ...]}')
        pairs = []
        for pair in obj["bits"]:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not all(map(_is_int, pair)):
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


def _set_bits(mask):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _topological_order(b):
    """Kahn's topological sort of the digraph of b.

    Returns the vertices in an order with every edge pointing forward; a
    digraph with a cycle (a self-loop included) leaves the vertices on
    and after it out, so the order is shorter than n.
    """
    indeg = [0] * b.n
    for r in b.rows:
        for j in _set_bits(r):
            indeg[j] += 1
    stack = [v for v in range(b.n) if indeg[v] == 0]
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for j in _set_bits(b.rows[v]):
            indeg[j] -= 1
            if indeg[j] == 0:
                stack.append(j)
    return order


def is_acyclic(b):
    """Kahn's topological sort; a self-loop counts as a cycle."""
    return len(_topological_order(b)) == b.n


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

    Boolean products are monotone in each factor, and the single-bit
    matrices along a witnessing walk lie in T, so both the cycle test and
    the class of an extension are decided on the two generators {P, x}.
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
    every bit (i, j) outside P; one topological pass gives both lengths.
    Limited to n <= 10, the bound of the partition enumeration.
    """
    if kind not in ("bn", "rook"):
        raise MatrixError(f"unknown ambient kind: {kind!r}")
    n = pattern.n
    if n > _MAXIMALITY_MAX_N:
        raise MatrixError(f"maximality test limited to n <= {_MAXIMALITY_MAX_N}")
    k = nilpotency_index(pattern)
    if k is None:
        raise MatrixError("pattern is not nilpotent: its digraph has a cycle")
    rows = pattern.rows
    order = _topological_order(pattern)
    longest_in = [0] * n
    for v in order:
        for j in _set_bits(rows[v]):
            longest_in[j] = max(longest_in[j], longest_in[v] + 1)
    longest_out = [0] * n
    for v in reversed(order):
        for j in _set_bits(rows[v]):
            longest_out[v] = max(longest_out[v], longest_out[j] + 1)
    return all(
        longest_in[i] + 1 + longest_out[j] >= k
        for i in range(n)
        for j in range(n)
        if not pattern.has_bit(i, j)
    )
