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
    "DataError",
    "DuplicateArcWarning",
    "from_edge_list",
    "cross_link_matrix",
    "reciprocity_index",
    "transitivity_index",
    "read_edge_csv",
    "read_node_csv",
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

    # -- whole-matrix views --------------------------------------------------

    def arc_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

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

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """``np.asarray(d)``: the dense uint8 array of :meth:`to_array`, so a
        function of a network takes an ``AdjacencyMatrix`` or an array alike.
        The array is always a fresh copy, so ``copy=False`` is refused."""
        if copy is False:
            raise ValueError("an AdjacencyMatrix converts to an array only by copying")
        a = self.to_array()
        return a if dtype is None else a.astype(dtype, copy=False)

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
    sampler and the MLE both want it.  ``members[k]`` lists the same nodes in
    increasing order, precomputed for the sampler's same-group trades.
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
        members: list[list[int]] = [[] for _ in range(self.n_groups)]
        for i, c in enumerate(self.codes):
            members[c].append(i)
        object.__setattr__(self, "_members", tuple(map(tuple, members)))
        object.__setattr__(
            self, "_masks", tuple(sum(1 << i for i in group) for group in members)
        )

    @property
    def masks(self) -> tuple[int, ...]:
        return self._masks  # type: ignore[attr-defined]

    @property
    def members(self) -> tuple[tuple[int, ...], ...]:
        return self._members  # type: ignore[attr-defined]

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
            d.set_arc(i, j, True)
    if duplicates:
        warnings.warn(
            f"{duplicates} duplicate arc(s) collapsed", DuplicateArcWarning,
            stacklevel=2,
        )
    return d


def cross_link_matrix(d: AdjacencyMatrix, g: GroupAssignment) -> tuple[tuple[int, ...], ...]:
    """K x K arc counts between groups: entry [k][l] counts the arcs i->j with
    i in group k and j in group l (diagonal blocks included)."""
    if g.n_nodes != d.n:
        raise ValueError("group assignment does not match node count")
    rows = d.rows
    masks = g.masks
    return tuple(
        tuple(sum([(rows[i] & mask).bit_count() for i in group]) for mask in masks)
        for group in g.members
    )


def reciprocity_index(d) -> float:
    """Share of arc-carrying dyad ends that are reciprocated.

    Equals 2*m / (2*m + a) where m and a are mutual and asymmetric dyad
    counts, that is 2*m over the arc count; the empty graph has no
    arc-carrying dyads and returns NaN.  ``d`` is an ``AdjacencyMatrix`` or a
    dense 0/1 integer array.
    """
    a = np.asarray(d)
    n_arcs = int(a.sum())
    if n_arcs == 0:
        return float("nan")
    # a & a.T marks both ends of each mutual dyad.
    mutual = int((a & a.T).sum()) // 2
    return 2 * mutual / n_arcs


def transitivity_index(d) -> float:
    """Closed two-path ratio: P(i->j | i->k->j exists, i, j, k distinct).

    Counts directed two-paths i->k->j with i != j and returns the fraction
    whose closing arc i->j is present.  Returns NaN when the graph has no
    such two-path (the ratio is undefined).  ``d`` is an ``AdjacencyMatrix``
    or a dense 0/1 array.
    """
    # float64 runs the product in BLAS and is exact: every count is at most
    # n - 2, and every sum at most n**3, far below 2**53.
    a = np.asarray(d).astype(np.float64)
    two_paths = a @ a
    n_paths = int(two_paths.sum() - np.trace(two_paths))
    if n_paths == 0:
        return float("nan")
    n_closed = int((two_paths * a).sum())
    return n_closed / n_paths


# -- CSV interface ---------------------------------------------------------


def _csv_rows(path, header: tuple[str, str]):
    """Yield (line number, row) for each data row of a CSV headed ``header``.

    Blank lines are skipped; a missing header or a row of fewer than two
    columns raises :class:`DataError`.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [h.strip().lower() for h in first[:2]] != list(header):
            raise DataError(f"{path}: expected header '{','.join(header)}'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise DataError(f"{path}: line {lineno}: expected 2 columns")
            yield lineno, row


def read_edge_csv(path, index_base: int = 0) -> list[tuple[int, int]]:
    """Read arcs from a CSV with header ``source,target``.

    ``index_base`` is subtracted from the ids (use 1 for 1-based files).
    Malformed rows raise :class:`DataError` with the offending line number.
    """
    edges = []
    for lineno, row in _csv_rows(path, ("source", "target")):
        try:
            i = int(row[0]) - index_base
            j = int(row[1]) - index_base
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: non-integer id") from exc
        if i < 0 or j < 0:
            raise DataError(f"{path}: line {lineno}: id below index base {index_base}")
        edges.append((i, j))
    return edges


def read_node_csv(path, index_base: int = 0) -> tuple[int, GroupAssignment]:
    """Read a node roster CSV with header ``node,group``.

    The node column must cover 0..n-1 exactly (after subtracting
    ``index_base``); the group column may hold arbitrary labels, which are
    mapped to sorted 0-based codes.  Returns (n, GroupAssignment).
    """
    labels: dict[int, str] = {}
    for lineno, row in _csv_rows(path, ("node", "group")):
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
