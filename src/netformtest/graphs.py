"""Directed-graph primitives for degree- and mixing-conditioned inference.

The central object is :class:`AdjacencyMatrix`, a dense 0/1 matrix over a
fixed node set, stored as per-row *and* per-column Python-int bitmasks.  That
layout gives O(1) arc flips and popcount-based degree recomputation, which the
switching sampler needs in its inner loop.  Self-loops are structurally
excluded: the diagonal is zero and cannot be set.

Node indices are 0-based everywhere inside the library; CSV readers map
external 0- or 1-based ids onto that range.  Group labels are mapped to sorted
0-based codes by :meth:`GroupAssignment.from_labels`.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AdjacencyMatrix",
    "GroupAssignment",
    "DegreeSequence",
    "CrossLinkMatrix",
    "DyadCensus",
    "DataError",
    "DuplicateArcWarning",
    "from_edge_list",
    "degree_sequence",
    "cross_link_matrix",
    "reciprocity_index",
    "transitivity_index",
    "dyad_census",
    "read_edge_csv",
    "read_node_csv",
    "write_edge_csv",
]


class DataError(ValueError):
    """Malformed or inconsistent input data (CSV rows, ids, group labels)."""


class DuplicateArcWarning(UserWarning):
    """Emitted when an edge list contains repeated arcs (collapsed to one)."""


def _row_masks(bits: np.ndarray) -> list[int]:
    """One bitmask per row of a 2-D boolean array: bit j of mask i is bits[i, j]."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    data = packed.tobytes()
    width = packed.shape[1]
    return [
        int.from_bytes(data[k : k + width], "little")
        for k in range(0, len(data), width)
    ]


class AdjacencyMatrix:
    """Square 0/1 arc indicator matrix with a structurally zero diagonal.

    Rows and columns are kept as parallel bitmasks: bit ``j`` of ``rows[i]``
    and bit ``i`` of ``cols[j]`` are both set iff the arc ``i -> j`` is
    present.  Treat ``rows``/``cols`` as read-only; mutate through
    :meth:`set_arc` so the two stay in sync.
    """

    __slots__ = ("n", "rows", "cols")

    def __init__(self, n: int, rows: list[int] | None = None):
        if n < 1:
            raise ValueError("need at least one node")
        self.n = n
        if rows is None:
            self.rows = [0] * n
            self.cols = [0] * n
            return
        if len(rows) != n:
            raise ValueError("row mask count does not match node count")
        limit = 1 << n
        cols = [0] * n
        for i, row in enumerate(rows):
            if not 0 <= row < limit:
                raise ValueError(f"row mask {i} out of range for {n} nodes")
            if (row >> i) & 1:
                raise ValueError(f"self-loop at node {i}")
            rest = row
            while rest:
                j = (rest & -rest).bit_length() - 1
                cols[j] |= 1 << i
                rest &= rest - 1
        self.rows = list(rows)
        self.cols = cols

    # -- construction -----------------------------------------------------

    @classmethod
    def zeros(cls, n: int) -> "AdjacencyMatrix":
        return cls(n)

    @classmethod
    def from_dense(cls, array) -> "AdjacencyMatrix":
        """Build from an n x n array-like of 0/1 entries (zero diagonal)."""
        arr = np.asarray(array)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("adjacency array must be square")
        if not ((arr == 0) | (arr == 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        n = arr.shape[0]
        if n < 1:
            raise ValueError("need at least one node")
        loops = np.flatnonzero(np.diagonal(arr))
        if loops.size:
            raise ValueError(f"self-loop at node {loops[0]}")
        bits = arr != 0
        d = cls.__new__(cls)
        d.n = n
        d.rows = _row_masks(bits)
        d.cols = _row_masks(np.ascontiguousarray(bits.T))
        return d

    def copy(self) -> "AdjacencyMatrix":
        dup = AdjacencyMatrix.__new__(AdjacencyMatrix)
        dup.n = self.n
        dup.rows = list(self.rows)
        dup.cols = list(self.cols)
        return dup

    # -- element access ----------------------------------------------------

    def has_arc(self, i: int, j: int) -> bool:
        return (self.rows[i] >> j) & 1 == 1

    def set_arc(self, i: int, j: int, present: bool) -> None:
        if i == j:
            raise ValueError("self-loops are not representable")
        bit_j = 1 << j
        if present:
            self.rows[i] |= bit_j
            self.cols[j] |= 1 << i
        else:
            self.rows[i] &= ~bit_j
            self.cols[j] &= ~(1 << i)

    def add_arc(self, i: int, j: int) -> None:
        self.set_arc(i, j, True)

    def remove_arc(self, i: int, j: int) -> None:
        self.set_arc(i, j, False)

    # -- whole-matrix views --------------------------------------------------

    def arc_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def arcs(self) -> list[tuple[int, int]]:
        """All present arcs as (source, target), row-major order."""
        out = []
        for i, row in enumerate(self.rows):
            rest = row
            while rest:
                j = (rest & -rest).bit_length() - 1
                out.append((i, j))
                rest &= rest - 1
        return out

    def out_degrees(self) -> list[int]:
        return [row.bit_count() for row in self.rows]

    def in_degrees(self) -> list[int]:
        return [col.bit_count() for col in self.cols]

    def to_array(self) -> np.ndarray:
        """Dense uint8 copy (rows indexed by source, columns by target)."""
        n = self.n
        nbytes = (n + 7) // 8
        packed = b"".join(row.to_bytes(nbytes, "little") for row in self.rows)
        bits = np.unpackbits(
            np.frombuffer(packed, dtype=np.uint8).reshape(n, nbytes),
            axis=1,
            bitorder="little",
        )
        return np.ascontiguousarray(bits[:, :n])

    def key(self) -> tuple[int, ...]:
        """Hashable state snapshot (use as a dict key for visited states)."""
        return tuple(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AdjacencyMatrix)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.n, tuple(self.rows)))

    def __repr__(self):
        return f"AdjacencyMatrix(n={self.n}, arcs={self.arc_count()})"


@dataclass(frozen=True)
class GroupAssignment:
    """Partition of the nodes into K non-empty groups, coded 0..K-1.

    ``masks[k]`` is the bitmask of nodes in group ``k`` (bit i set iff node i
    belongs to group k), precomputed because the cross-link bookkeeping in the
    sampler and the MLE both want it.
    """

    codes: tuple[int, ...]
    n_groups: int

    def __post_init__(self):
        if self.n_groups < 1:
            raise ValueError("need at least one group")
        seen = [False] * self.n_groups
        for c in self.codes:
            if not 0 <= c < self.n_groups:
                raise ValueError(f"group code {c} outside 0..{self.n_groups - 1}")
            seen[c] = True
        if not all(seen):
            raise ValueError("every group must be non-empty")
        object.__setattr__(self, "_masks", self._build_masks())

    def _build_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n_groups
        for i, c in enumerate(self.codes):
            masks[c] |= 1 << i
        return tuple(masks)

    @property
    def masks(self) -> tuple[int, ...]:
        return self._masks  # type: ignore[attr-defined]

    @property
    def n_nodes(self) -> int:
        return len(self.codes)

    @classmethod
    def from_labels(cls, labels) -> "GroupAssignment":
        """Map arbitrary hashable labels to sorted 0-based codes."""
        uniq = sorted(set(labels), key=str)
        code_of = {lab: k for k, lab in enumerate(uniq)}
        return cls(tuple(code_of[lab] for lab in labels), len(uniq))

    @classmethod
    def single_group(cls, n: int) -> "GroupAssignment":
        return cls((0,) * n, 1)


@dataclass(frozen=True)
class DegreeSequence:
    out_degrees: tuple[int, ...]
    in_degrees: tuple[int, ...]

    def __post_init__(self):
        if len(self.out_degrees) != len(self.in_degrees):
            raise ValueError("out/in degree lengths differ")
        if sum(self.out_degrees) != sum(self.in_degrees):
            raise ValueError("arc conservation violated: sum(out) != sum(in)")


@dataclass(frozen=True)
class CrossLinkMatrix:
    """Arc counts between group pairs: counts[k][l] = #{i->j : g(i)=k, g(j)=l}."""

    counts: tuple[tuple[int, ...], ...]

    @property
    def n_groups(self) -> int:
        return len(self.counts)

    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def as_array(self) -> np.ndarray:
        return np.array(self.counts, dtype=np.int64)


@dataclass(frozen=True)
class DyadCensus:
    """Unordered-dyad counts: mutual, asymmetric, and null (no arc) dyads."""

    mutual: int
    asymmetric: int
    null: int

    def total(self) -> int:
        return self.mutual + self.asymmetric + self.null


def from_edge_list(edges, n: int) -> AdjacencyMatrix:
    """Build an adjacency matrix from (source, target) pairs on nodes 0..n-1.

    Repeated arcs collapse to a single arc and raise a
    :class:`DuplicateArcWarning` carrying the number collapsed.  Self-loops
    and out-of-range ids raise :class:`DataError`.
    """
    d = AdjacencyMatrix(n)
    duplicates = 0
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise DataError(f"arc ({i}, {j}) outside node range 0..{n - 1}")
        if i == j:
            raise DataError(f"self-loop at node {i} is not allowed")
        if d.has_arc(i, j):
            duplicates += 1
        else:
            d.add_arc(i, j)
    if duplicates:
        warnings.warn(
            f"{duplicates} duplicate arc(s) collapsed", DuplicateArcWarning,
            stacklevel=2,
        )
    return d


def degree_sequence(d: AdjacencyMatrix) -> DegreeSequence:
    """Out- and in-degree vectors, recomputed from the bitmasks."""
    return DegreeSequence(tuple(d.out_degrees()), tuple(d.in_degrees()))


def cross_link_matrix(d: AdjacencyMatrix, g: GroupAssignment) -> CrossLinkMatrix:
    """Count arcs from each group to each group (diagonal blocks included)."""
    if g.n_nodes != d.n:
        raise ValueError("group assignment does not match node count")
    K = g.n_groups
    masks = g.masks
    counts = [[0] * K for _ in range(K)]
    for i, row in enumerate(d.rows):
        crow = counts[g.codes[i]]
        for l in range(K):
            crow[l] += (row & masks[l]).bit_count()
    return CrossLinkMatrix(tuple(tuple(r) for r in counts))


def dyad_census(d: AdjacencyMatrix) -> DyadCensus:
    """Classify each unordered pair {i, j} as mutual, asymmetric, or null."""
    # rows[i] & cols[i] marks the j with both i -> j and j -> i; each mutual
    # dyad is seen from both of its ends.
    mutual = sum((row & col).bit_count() for row, col in zip(d.rows, d.cols)) // 2
    asym = d.arc_count() - 2 * mutual
    n_dyads = d.n * (d.n - 1) // 2
    return DyadCensus(mutual, asym, n_dyads - mutual - asym)


def reciprocity_index(d: AdjacencyMatrix) -> float:
    """Share of arc-carrying dyad ends that are reciprocated.

    Equals 2*m / (2*m + a) where m and a are mutual and asymmetric dyad
    counts; the empty graph has no arc-carrying dyads and returns NaN.
    """
    census = dyad_census(d)
    denom = 2 * census.mutual + census.asymmetric
    if denom == 0:
        return float("nan")
    return 2 * census.mutual / denom


def transitivity_index(d: AdjacencyMatrix) -> float:
    """Closed two-path ratio: P(i->j | i->k->j exists, i, j, k distinct).

    Counts directed two-paths i->k->j with i != j and returns the fraction
    whose closing arc i->j is present.  Returns NaN when the graph has no
    such two-path (the ratio is undefined).
    """
    # float64 runs the product in BLAS and is exact: every count is at most
    # n - 2, and every sum at most n**3, far below 2**53.
    a = d.to_array().astype(np.float64)
    two_paths = a @ a
    n_paths = int(two_paths.sum() - np.trace(two_paths))
    if n_paths == 0:
        return float("nan")
    n_closed = int((two_paths * a).sum())
    return n_closed / n_paths


# -- CSV interface ---------------------------------------------------------


def read_edge_csv(path, index_base: int = 0) -> list[tuple[int, int]]:
    """Read arcs from a CSV with header ``source,target``.

    ``index_base`` is subtracted from the ids (use 1 for 1-based files).
    Malformed rows raise :class:`DataError` with the offending line number.
    """
    edges = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["source", "target"]:
            raise DataError(f"{path}: expected header 'source,target'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise DataError(f"{path}: line {lineno}: expected 2 columns")
            try:
                i = int(row[0]) - index_base
                j = int(row[1]) - index_base
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: non-integer id") from exc
            if i < 0 or j < 0:
                raise DataError(
                    f"{path}: line {lineno}: id below index base {index_base}"
                )
            edges.append((i, j))
    return edges


def read_node_csv(path, index_base: int = 0) -> tuple[int, GroupAssignment]:
    """Read a node roster CSV with header ``node,group``.

    The node column must cover 0..n-1 exactly (after subtracting
    ``index_base``); the group column may hold arbitrary labels, which are
    mapped to sorted 0-based codes.  Returns (n, GroupAssignment).
    """
    labels: dict[int, str] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["node", "group"]:
            raise DataError(f"{path}: expected header 'node,group'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise DataError(f"{path}: line {lineno}: expected 2 columns")
            try:
                node = int(row[0]) - index_base
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: non-integer node id") from exc
            if node in labels:
                raise DataError(f"{path}: line {lineno}: node {row[0]} repeated")
            labels[node] = row[1].strip()
    n = len(labels)
    if n == 0:
        raise DataError(f"{path}: no nodes")
    if set(labels) != set(range(n)):
        raise DataError(
            f"{path}: node ids must cover {index_base}..{index_base + n - 1} exactly"
        )
    return n, GroupAssignment.from_labels([labels[i] for i in range(n)])


def write_edge_csv(path, d: AdjacencyMatrix, index_base: int = 0) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "target"])
        for i, j in d.arcs():
            writer.writerow([i + index_base, j + index_base])
