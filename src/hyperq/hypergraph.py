"""r-uniform hypergraphs: validated edge-array structure, builders, text I/O.

Vertices are the contiguous integers 0..n-1.  The edges are stored once,
as a read-only (m, r) integer array whose rows are strictly increasing
and in lexicographic order, so two hypergraphs compare equal iff they
have the same uniformity, vertex count and edge set.  Instances are
immutable after construction and safe to share between threads.
"""

import math
import random
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ArgumentRangeError,
    DuplicateEdgeError,
    EdgeArityError,
    EmptyVertexSetError,
    FormatError,
    NoConvergenceError,
    VertexOutOfRangeError,
)

Edge = tuple[int, ...]

# draws random_connected makes before giving up; the seeded hosts in the
# tests and the benchmark need at most 4
_CONNECT_ATTEMPTS = 1000


class Hypergraph:
    """Immutable r-uniform hypergraph.

    Attributes
    ----------
    r : uniformity, at least 2
    n : number of vertices (isolated vertices are allowed)
    edge_array : read-only (m, r) int64 array, the one stored form of the
        edges; each row is strictly increasing and the rows are in
        lexicographic order
    edges : the same edges as a tuple of int tuples (built on first use)
    incidence : per vertex, the indices of its edges as a tuple (built on
        first use); the library's searches read neither view

    Raises
    ------
    ArgumentRangeError
        If r < 2, n < 0 or n >= 2**60.
    EdgeArityError
        If an edge does not have exactly r distinct vertices.
    VertexOutOfRangeError
        If an edge mentions a vertex outside [0, n) or a vertex id that is
        not an integer (a float, even 1.0, or a string).
    DuplicateEdgeError
        If two input edges are equal as vertex sets.  Duplicates are
        never merged silently.  Errors name the first faulty edge in input
        order, checking arity, then that the ids are integers in range, then
        equality to an earlier edge.
    """

    def __init__(self, r: int, n: int, edges: Iterable[Iterable[int]]):
        if r < 2:
            raise ArgumentRangeError(f"uniformity must be >= 2, got {r}")
        if n < 0:
            raise ArgumentRangeError(f"vertex count must be >= 0, got {n}")
        if n >= 2**60:
            # numpy cannot describe a float64 array of 2**60 or more entries (2**63 bytes)
            raise ArgumentRangeError(f"vertex count must be < 2**60, got {n}")
        array = _canonical_edges(r, n, edges)
        array.flags.writeable = False
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edge_array", array)

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    def __reduce__(self):
        # copies and pickles go through the constructor, which makes their edge array read-only
        return Hypergraph, (self.r, self.n, self.edge_array)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as lexicographically sorted int tuples (built on first use)."""
        return tuple(zip(*self.edge_array.T.tolist()))

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex tuple of incident edge indices (built from ``edges`` on first use).

        Isolated vertices share the one empty tuple, so they cost a slot of
        the outer tuple and nothing else.
        """
        covered = self._covered[0].tolist()
        lists: list = [()] * self.n
        for v in covered:
            lists[v] = []
        for idx, e in enumerate(self.edges):
            for v in e:
                lists[v].append(idx)
        for v in covered:
            lists[v] = tuple(lists[v])
        return tuple(lists)

    @cached_property
    def _covered(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(vertices, edges, offsets, at)``: the covered vertices ascending,
        ``edge_array`` on them renumbered 0..k-1 (rows stay sorted), and the
        edges at v, ascending, as ``at[offsets[v]:offsets[v + 1]]``."""
        vertices, local, counts = np.unique(self.edge_array, return_inverse=True, return_counts=True)
        at = np.argsort(local.ravel(), kind="stable") // self.r
        return vertices, local.reshape(-1, self.r), np.append(0, counts.cumsum()), at

    @cached_property
    def _completions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For every (r-1)-subset of an edge, the vertices completing it to an
        edge, in CSR form: ``(keys, offsets, completers)``.

        ``keys`` holds the distinct subsets in lexicographic order, one row per
        position (shape ``(r-1, u)``, each row contiguous for `searchsorted`);
        the completers of subset j are ``completers[offsets[j]:offsets[j + 1]]``.
        ``keys`` and ``completers`` hold ids in the smallest dtype that fits
        n - 1 (uint8 up to n = 256, where ``completers`` takes r*m bytes), so
        the index is cheap to keep; every temporary is an array of r*m or
        fewer entries.

        The rows are sorted by `np.lexsort` over int64 words, each packing as
        many consecutive id columns as fit in 63 bits; for n^(r-1) < 2^63 that
        is one word, and a stable sort of one packed key is about twice as
        fast as a lexsort over the columns.
        """
        edges, r, m = self.edge_array, self.r, self.m
        bits = max(1, (self.n - 1).bit_length())
        per = 63 // bits
        # row i*m + e is edge e without its i-th vertex, which completes it;
        # word k packs the row's remaining ids per*k .. per*k + per - 1
        words = []
        for s in range(0, r - 1, per):
            words.append(np.zeros(r * m, dtype=np.int64))
            for j in range(s, min(s + per, r - 1)):
                words[-1] <<= bits
                words[-1] |= np.concatenate([edges[:, j + (j >= i)] for i in range(r)])
        order = np.lexsort(words[::-1])
        new = np.zeros(len(order), dtype=bool)
        new[:1] = True
        for w in words:
            w = w[order]
            new[1:] |= w[1:] != w[:-1]
        del words, w  # free the r*m-entry words before the completers are gathered
        starts = np.flatnonzero(new)
        i, e = np.divmod(order[starts], m)
        ids = edges.astype(np.min_scalar_type(max(self.n - 1, 0)))
        j = np.arange(r - 1)[:, None]
        return ids[e, j + (j >= i)], np.append(starts, len(order)), ids.T.ravel()[order]

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edge_array)

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise VertexOutOfRangeError(f"vertex {v} outside [0, {self.n})")
        # an edge holds v at most once, so this counts its edges without building incidence
        return int(np.count_nonzero(self.edge_array == v))

    def degrees(self) -> list[int]:
        return np.bincount(self.edge_array.ravel(), minlength=self.n).tolist()

    def min_degree(self) -> int:
        """Minimum vertex degree; raises EmptyVertexSetError when n = 0."""
        if self.n == 0:
            raise EmptyVertexSetError("min_degree of a hypergraph with no vertices")
        return min(self.degrees())

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by smallest vertex.

        Isolated vertices form singleton components.
        """
        return _components(self.edge_array, self.n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.r == other.r and self.n == other.n and np.array_equal(self.edge_array, other.edge_array)

    def __hash__(self) -> int:
        return hash((self.r, self.n, self.edge_array.tobytes()))

    def __repr__(self) -> str:
        return f"Hypergraph(r={self.r}, n={self.n}, m={self.m})"


def _components(edges: np.ndarray, n: int) -> list[list[int]]:
    """Connected components of the hypergraph on vertices 0..n-1 with these
    (m, r) edges, as Hypergraph.components gives them."""
    # min-label propagation: each vertex points to a smaller or equal one.
    # A round hooks the roots of every edge onto the edge's smallest root,
    # then jumps pointers until each tree is a star whose root is its
    # smallest vertex.  Every root with a smaller neighbouring root hooks,
    # so the trees along a path at least halve in number each round.
    parent = np.arange(n)
    while len(edges):
        roots = [parent[col] for col in edges.T]
        least = reduce(np.minimum, roots)
        before = parent.copy()
        for col in roots:
            np.minimum.at(parent, col, least)
        if (parent == before).all():
            break
        jumped = parent[parent]
        while (jumped != parent).any():
            parent = jumped
            jumped = parent[parent]
    # group by root: a stable argsort keeps each group's vertices increasing
    flat = np.argsort(parent, kind="stable").tolist()
    sizes = np.bincount(parent)
    ends = np.cumsum(sizes[sizes > 0]).tolist()
    return list(map(flat.__getitem__, map(slice, [0] + ends[:-1], ends)))


def _canonical_edges(r: int, n: int, edges: Iterable[Iterable[int]]) -> np.ndarray:
    """Validate the edges and return them as a new (m, r) int64 array with
    sorted rows in lexicographic order; raise for the first faulty edge."""
    rows = edges if isinstance(edges, (list, tuple, np.ndarray)) else list(edges)
    if len(rows) == 0:
        return np.empty((0, r), dtype=np.int64)
    try:
        raw = np.array(rows)
    except (TypeError, ValueError, OverflowError):
        raw = None
    if raw is not None and raw.dtype != np.int64:
        # other integer dtypes widen; floats, strings, objects and uint64 take the per-edge path
        raw = raw.astype(np.int64) if np.can_cast(raw.dtype, np.int64) else None
    if raw is None or raw.shape != (len(rows), r):
        # an edge of the wrong length, a non-integer id, an id beyond int64, or edges given as iterators
        rows = [tuple(e) for e in (rows.tolist() if isinstance(rows, np.ndarray) else rows)]
        k = next((k for k, e in enumerate(rows) if len(e) != r or not all(map(_is_id, e))), None)
        # raises for a faulty edge before row k
        head = _canonical_edges(r, n, np.array(rows[:k], dtype=np.int64).reshape(-1, r))
        if k is None:
            return head
        if len(rows[k]) != r or len(set(rows[k])) != r:
            raise EdgeArityError(f"edge {rows[k]} must have exactly {r} distinct vertices")
        if not all(isinstance(v, (int, np.integer)) for v in rows[k]):
            raise VertexOutOfRangeError(f"edge {rows[k]} has a non-integer vertex id")
        raise VertexOutOfRangeError(f"edge {tuple(sorted(rows[k]))} mentions a vertex outside [0, {n})")
    rows = raw if (raw[:, 1:] > raw[:, :-1]).all() else np.sort(raw, axis=1)
    # rows already in lexicographic order, as the builders emit them, skip the lexsort
    order = None if _lex_less(rows[:-1], rows[1:]).all() else np.lexsort(rows.T[::-1])
    srt = rows if order is None else rows[order]
    distinct = rows is raw or (rows[:, 1:] > rows[:, :-1]).all()
    if distinct and rows[:, 0].min() >= 0 and rows[:, -1].max() < n:
        if order is None or _lex_less(srt[:-1], srt[1:]).all():
            return srt
    # some edge is faulty: find the first one in input order
    repeated = np.any(rows[:, 1:] == rows[:, :-1], axis=1)
    outside = (rows[:, 0] < 0) | (rows[:, -1] >= n)
    duplicate = np.zeros(len(rows), dtype=bool)
    if order is not None:
        # a stable sort keeps equal rows in input order: all but the first repeat it
        duplicate[order[1:][~_lex_less(srt[:-1], srt[1:])]] = True
    i = int(np.argmax(repeated | outside | duplicate))
    if repeated[i]:
        raise EdgeArityError(f"edge {tuple(raw[i].tolist())} must have exactly {r} distinct vertices")
    if outside[i]:
        raise VertexOutOfRangeError(f"edge {tuple(rows[i].tolist())} mentions a vertex outside [0, {n})")
    raise DuplicateEdgeError(f"duplicate edge {tuple(rows[i].tolist())}")


def _is_id(v) -> bool:
    """Whether v is an integer that fits in int64."""
    return isinstance(v, (int, np.integer)) and -(2**63) <= v < 2**63


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, whether row a is lexicographically smaller than row b."""
    less = a[:, -1] < b[:, -1]
    for j in range(a.shape[1] - 2, -1, -1):
        less = (a[:, j] < b[:, j]) | ((a[:, j] == b[:, j]) & less)
    return less


@dataclass(frozen=True)
class TwoColoring:
    """A vertex bipartition witnessing 2-colorability.

    ``assignment[v]`` is the part label (0 or 1) of vertex v;
    ``part_sizes`` counts the label-0 and label-1 vertices.
    """

    assignment: tuple[int, ...]
    part_sizes: tuple[int, int]

    def __post_init__(self):
        if any(c not in (0, 1) for c in self.assignment):
            raise ArgumentRangeError("coloring labels must be 0 or 1")
        a = self.assignment.count(0)
        if self.part_sizes != (a, len(self.assignment) - a):
            raise ArgumentRangeError("part_sizes inconsistent with assignment")

    @classmethod
    def from_assignment(cls, labels: Sequence[int]) -> "TwoColoring":
        labels = tuple(labels)
        a = labels.count(0)
        return cls(labels, (a, len(labels) - a))

    def is_proper_for(self, hg: Hypergraph) -> bool:
        """True iff no edge of hg is monochromatic under this coloring."""
        if len(self.assignment) != hg.n:
            return False
        labels = np.array(self.assignment, dtype=np.int64)[hg.edge_array]
        return bool((labels.min(axis=1) < labels.max(axis=1)).all())


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

#: Fano plane edges over vertices 0..6 (the 7-point projective plane).
FANO_EDGES: tuple[Edge, ...] = (
    (0, 1, 2),
    (2, 3, 4),
    (4, 5, 0),
    (0, 6, 3),
    (1, 6, 4),
    (2, 6, 5),
    (1, 3, 5),
)


def build_fano() -> Hypergraph:
    """The Fano plane as a 3-graph on 7 vertices with 7 edges."""
    return Hypergraph(3, 7, FANO_EDGES)


def build_complete(n: int, r: int) -> Hypergraph:
    """Complete r-graph on n vertices: every r-subset is an edge."""
    if r < 2:
        raise ArgumentRangeError(f"uniformity must be >= 2, got {r}")
    if n < r:
        raise ArgumentRangeError(f"complete r-graph needs n >= r, got n={n}, r={r}")
    rows = np.arange(n - r + 1)[:, None]
    for t in range(1, r):
        rows = _extend(rows, 0, n - r + t + 1)
    return Hypergraph(r, n, rows)


def _extend(rows: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Extend each row, in lexicographic order, by every v > row[-1] with lo <= v < hi."""
    start = np.maximum(rows[:, -1] + 1, lo)
    counts = np.maximum(hi - start, 0)
    firsts = np.cumsum(counts) - counts
    out = np.empty((int(counts.sum()), rows.shape[1] + 1), dtype=np.int64)
    out[:, :-1] = np.repeat(rows, counts, axis=0)
    out[:, -1] = np.repeat(start - firsts, counts) + np.arange(len(out))
    return out


def build_two_part_complete(a: int, b: int) -> tuple[Hypergraph, TwoColoring]:
    """Complete two-part 3-graph: all triples meeting both parts.

    Part one is {0..a-1}, part two is {a..a+b-1}.  Returns the hypergraph
    together with the coloring given by the parts.
    """
    if a < 1 or b < 1 or a + b < 3:
        raise ArgumentRangeError(f"parts must satisfy a, b >= 1 and a + b >= 3, got ({a}, {b})")
    n = a + b
    # the triples i < j < k with i in part one and k in part two, emitted
    # in lexicographic order
    edges = _extend(_extend(np.arange(a)[:, None], 0, n - 1), a, n)
    coloring = TwoColoring(tuple(0 if v < a else 1 for v in range(n)), (a, b))
    return Hypergraph(3, n, edges), coloring


def build_bn(n: int) -> tuple[Hypergraph, TwoColoring]:
    """Balanced complete two-part 3-graph on n vertices (larger part first)."""
    if n < 3:
        raise ArgumentRangeError(f"balanced two-part 3-graph needs n >= 3, got {n}")
    return build_two_part_complete((n + 1) // 2, n // 2)


def build_expansion(base_edges: Iterable[Iterable[int]], n_base: int, r: int) -> Hypergraph:
    """Expand a 2-graph into an r-graph by padding each edge with r-2 fresh vertices.

    Fresh vertices are distinct across edges and numbered consecutively
    from n_base in the order the base edges are given.
    """
    if r < 2:
        raise ArgumentRangeError(f"uniformity must be >= 2, got {r}")
    pairs = [tuple(e) for e in base_edges]
    Hypergraph(2, n_base, pairs)  # validates the pairs
    m = len(pairs)
    n = n_base + (r - 2) * m
    fresh = np.arange(n_base, n, dtype=np.int64).reshape(m, r - 2)
    return Hypergraph(r, n, np.hstack([np.array(pairs, dtype=np.int64).reshape(m, 2), fresh]))


def delete_vertex(hg: Hypergraph, w: int) -> Hypergraph:
    """Remove vertex w and its incident edges, re-indexing ids above w down by one."""
    if not 0 <= w < hg.n:
        raise VertexOutOfRangeError(f"vertex {w} outside [0, {hg.n})")
    edges = hg.edge_array[~np.any(hg.edge_array == w, axis=1)]
    return Hypergraph(hg.r, hg.n - 1, edges - (edges > w))


def random_connected(n: int, r: int, m: int, rng: int | random.Random = 0) -> Hypergraph:
    """Seeded random connected r-graph on n vertices with m distinct edges.

    Draws edge sets uniformly until a connected one appears; m must make
    connectivity possible (m >= (n - 1) / (r - 1)).  Raises
    NoConvergenceError when none of a fixed budget of draws is connected,
    as happens for m near that threshold.
    """
    if n < r:
        raise ArgumentRangeError(f"need n >= r, got n={n}, r={r}")
    total = math.comb(n, r)
    if not 1 <= m <= total:
        raise ArgumentRangeError(f"edge count {m} outside [1, {total}]")
    if m * (r - 1) < n - 1:
        raise ArgumentRangeError(f"{m} edges can never connect {n} vertices")
    if total >= 2**63:
        raise ArgumentRangeError(f"C({n}, {r}) = {total} r-subsets are too many to index")
    if isinstance(rng, int):
        rng = random.Random(rng)
    # the lexicographic rank of {c_1 < ... < c_r} is total - 1 minus the sum
    # of C(n - 1 - c_j, r + 1 - j), the colex rank of its mirror image; as
    # c_j >= j - 1, no term needs n - 1 - c_j above n - j, and none exceeds total
    table = [np.array([math.comb(d, i) for d in range(n - r + i)]) for i in range(r, 0, -1)]
    for _ in range(_CONNECT_ATTEMPTS):
        rest = total - 1 - np.array(rng.sample(range(total), m), dtype=np.int64)
        edges = np.empty((m, r), dtype=np.int64)
        for j, counts in enumerate(table):
            d = counts.searchsorted(rest, side="right") - 1
            rest -= counts[d]
            edges[:, j] = n - 1 - d
        hg = Hypergraph(r, n, edges)
        if len(hg.components()) == 1:
            return hg
    raise NoConvergenceError(f"no connected draw of {m} edges on {n} vertices in {_CONNECT_ATTEMPTS} attempts")


# ---------------------------------------------------------------------------
# Text format: header "r n m", then m lines of r vertex ids
# ---------------------------------------------------------------------------


def parse(text: str) -> Hypergraph:
    """Parse the hypergraph text format.

    Lines starting with '#' and blank lines are ignored.  The first
    remaining line must read "r n m"; exactly m edge lines with r vertex
    ids each must follow.  A text in serialize's own layout is read as
    bytes in whole-array steps, any other text line by line; both readers
    give the same hypergraph, or the same error, for every text.
    """
    return Hypergraph(*(_read_plain(text) or _read_lines(text)))


def _read_lines(text: str) -> tuple[int, int, np.ndarray | list[Edge]]:
    """The header's r and n and the edges of any text in the format; raises
    FormatError for the first faulty line."""
    rows = [s for s in map(str.strip, text.splitlines()) if s and s[0] != "#"]
    if not rows:
        raise FormatError("empty input: missing header line")
    header = rows[0].split()
    if len(header) != 3:
        raise FormatError(f"header must have 3 fields 'r n m', got {rows[0]!r}")
    try:
        r, n, m = (int(tok) for tok in header)
    except ValueError:
        raise FormatError(f"non-integer field in header {rows[0]!r}") from None
    if m < 0:
        raise FormatError(f"negative edge count {m}")
    body = rows[1:]
    if len(body) != m:
        raise FormatError(f"expected {m} edge lines, found {len(body)}")
    edges = None
    if body:
        try:
            edges = np.loadtxt(body, dtype=np.int64, ndmin=2, comments=None)
        except ValueError:
            pass
    if edges is None or edges.shape != (m, r):
        # the line loop gives the first faulty line's error, and it reads what
        # loadtxt does not: `1_0`, non-ASCII digits and ids beyond int64
        edges = []
        for row in body:
            toks = row.split()
            if len(toks) != r:
                raise FormatError(f"edge line {row!r} must have {r} vertex ids")
            try:
                edges.append(tuple(int(tok) for tok in toks))
            except ValueError:
                raise FormatError(f"non-integer vertex id in line {row!r}") from None
    return r, n, edges


def _read_plain(text: str) -> tuple[int, int, np.ndarray] | None:
    """The header's r and n and the (m, r) int64 ids of a text in serialize's
    layout, read with no Python object per id or line: ASCII digits, the
    header "r n m" and m lines of r ids, one space between ids and a newline
    after each line, no id longer than 18 digits (so each fits int64).  None
    for any other text."""
    if not text.isascii():
        return None
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    # each token ends at a non-digit; with none first, one last and no two in
    # a row, the tokens are the text's digit runs and none is empty.  gaps
    # holds one more than the length of each token after the first
    ends = np.flatnonzero((buf - ord("0")) >= 10)
    gaps = np.diff(ends)
    if len(ends) < 3 or ends[-1] != len(buf) - 1 or not (0 < ends[0] <= 18 and 2 <= gaps.min() <= gaps.max() <= 19):
        return None
    r, n, m = (int(text[a + 1 : b]) for a, b in zip([-1, *ends[:2].tolist()], ends[:3].tolist()))
    # the token after which each line ends, and a space after every other one
    seps = buf[ends]
    newline = seps == ord("\n")
    lines = np.count_nonzero(newline)
    if r < 2 or len(ends) != 3 + m * r or lines != m + 1 or not newline[2::r].all():
        return None
    if lines + np.count_nonzero(seps == ord(" ")) != len(ends):
        return None
    # Horner's rule over windows as wide as the longest id, each ending at an
    # id; a window's positions before its id count as 0, also those before
    # the text's start, which wrap around to its end
    gaps = gaps[2:]
    width = int(gaps.max(initial=1)) - 1
    pos = ends[3:]
    pos -= width
    ids = np.zeros(len(pos), dtype=np.int64)
    for k in range(width, 0, -1):
        digits = buf[pos] - ord("0")
        digits *= gaps > k
        ids *= 10
        ids += digits
        pos += 1
    return r, n, ids.reshape(m, r)


def serialize(hg: Hypergraph) -> str:
    """Render the text format; edges appear in lexicographic order."""
    ids = hg.edge_array.ravel()
    top = int(ids.max(initial=0))
    width = len(str(top))
    # one row per id: its digits right-aligned after zero bytes, then ' ' or
    # '\n'; the zero bytes are dropped at the end
    cells = np.zeros((len(ids), width + 1), dtype=np.uint8)
    cells[:, width] = ord(" ")
    cells[hg.r - 1 :: hg.r, width] = ord("\n")
    rest = ids.astype(np.min_scalar_type(top))
    for col in range(width - 1, -1, -1):
        digits = rest % 10
        digits += ord("0")
        if col < width - 1:
            digits[rest == 0] = 0  # a position before the id's first digit
        cells[:, col] = digits
        rest //= 10
    return f"{hg.r} {hg.n} {hg.m}\n" + cells.tobytes().replace(b"\0", b"").decode("ascii")
