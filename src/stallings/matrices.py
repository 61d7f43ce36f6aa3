"""Branch-vertex incidence matrices, block normal forms, and entry-sum bounds.

For a pair of cores in the fully normalized shape (every branch vertex
3-valent, no extremal vertices) the incidence matrix records which pairs of
branch vertices appear together as a branch vertex of the intersection
core.  Grouping rows and columns by the pushout's star classes puts the
matrix into a block-diagonal normal form whose shape parameters (number of
blocks, zero rows, zero columns) drive every rank bound, via a closed-form
ceiling on the matrix's entry sum.

A small bipartite summary graph — one black node per row, one white node
per column, one edge per 1-entry — gives an independent route to the same
shape parameters through its component count.
"""

from __future__ import annotations

from collections import namedtuple

from .core import Subgroup
from .graphs import DisjointSet, LabeledGraph
from .products import LEFT, RIGHT, PushoutResult


class NotNormalizedError(ValueError):
    """The operation requires 3-valent branch vertices and no extremal ones."""


def _require_normalized(graph: LabeledGraph, name: str) -> None:
    for v in graph.vertices:
        valence = graph.valence(v)
        if valence <= 1:
            raise NotNormalizedError(f"{name} core has an extremal vertex")
        if valence > 3:
            raise NotNormalizedError(
                f"{name} core has a vertex of valence {valence} > 3"
            )


def branch_vertices(graph: LabeledGraph) -> tuple:
    """Vertices of valence >= 3, in the graph's canonical vertex order."""
    return tuple(v for v in graph.vertices if graph.valence(v) >= 3)


# -- incidence matrix -----------------------------------------------------------


class IncidenceMatrix(namedtuple("IncidenceMatrix", "row_vertices col_vertices entries")):
    """0/1 matrix pairing branch vertices across the two cores.

    Entry (i, j) is 1 exactly when the product vertex (row i's vertex,
    column j's vertex) is a branch vertex of the intersection core, so the
    entry sum counts the intersection core's branch vertices.  ``entries``
    is a tuple of row tuples.
    """

    __slots__ = ()

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_vertices), len(self.col_vertices))

    @property
    def entry_sum(self) -> int:
        return sum(sum(row) for row in self.entries)

    def zero_rows(self) -> tuple[int, ...]:
        return tuple(i for i, row in enumerate(self.entries) if not any(row))

    def zero_cols(self) -> tuple[int, ...]:
        return tuple(
            j
            for j in range(len(self.col_vertices))
            if not any(row[j] for row in self.entries)
        )

    def render(self) -> str:
        if not self.row_vertices or not self.col_vertices:
            return f"(empty {self.shape[0]}x{self.shape[1]} matrix)"
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)


def incidence_matrix(H: Subgroup, K: Subgroup, meet_core: LabeledGraph) -> IncidenceMatrix:
    """Pair the branch vertices of two normalized cores through their meet.

    ``meet_core`` is the pair's based meet core with its product
    projections, as :func:`~stallings.products.based_meet_core` builds it.
    """
    _require_normalized(H.graph, "left")
    _require_normalized(K.graph, "right")
    if meet_core.projections is None:
        raise ValueError("meet core has no product projections")
    n_K = K.graph.vertex_count
    meet_branch = set()  # left vertex * n_K + right vertex of each meet branch vertex
    for x, y, d in zip(*meet_core.projections, meet_core._degree):
        if d >= 3:
            if not (0 <= x < H.graph.vertex_count and 0 <= y < n_K):
                raise ValueError("meet core does not project into the given pair")
            meet_branch.add(x * n_K + y)
    rows = branch_vertices(H.graph)
    cols = branch_vertices(K.graph)
    entries = tuple(
        tuple(1 if x * n_K + y in meet_branch else 0 for y in cols) for x in rows
    )
    if len(meet_branch) != sum(sum(row) for row in entries):
        raise ValueError("a meet branch vertex projects to a non-branch vertex")
    return IncidenceMatrix(rows, cols, entries)


# -- normal form ----------------------------------------------------------------


class NormalForm(
    namedtuple(
        "NormalForm", "blocks p q row_perm col_perm star_class_count matrix lemma_violations"
    )
):
    """Block form of the matrix under star-class grouping.

    Rows and columns are permuted so that rows/columns sharing a pushout
    star class are adjacent, giving square-free diagonal blocks, with the
    zero rows moved to the bottom and the zero columns to the right.
    ``blocks`` holds the (row count, col count) of each block, ``p`` and
    ``q`` count the zero rows and the zero columns, ``row_perm`` and
    ``col_perm`` list the original indices in normal-form order, and
    ``matrix`` holds the entries permuted into normal form.
    """

    __slots__ = ()

    @property
    def ell(self) -> int:
        return len(self.blocks)

    @property
    def entry_sum(self) -> int:
        return sum(sum(row) for row in self.matrix)

    def render(self) -> str:
        rows, cols = len(self.row_perm), len(self.col_perm)
        if not rows or not cols:
            return f"(empty {rows}x{cols} matrix)"
        row_cuts, col_cuts = set(), set()
        r = c = 0
        for br, bc in self.blocks:
            r += br
            c += bc
            row_cuts.add(r)
            col_cuts.add(c)
        lines = []
        for i, row in enumerate(self.matrix):
            if i in row_cuts:
                lines.append("-" * (2 * cols + len(col_cuts)))
            cells = []
            for j, x in enumerate(row):
                if j in col_cuts:
                    cells.append("|")
                cells.append(str(x))
            lines.append(" ".join(cells))
        return "\n".join(lines)


def normal_form(M: IncidenceMatrix, pushout: PushoutResult) -> NormalForm:
    """Group rows/columns by the star class of their branch vertex.

    Any failure of the expected block structure (an entry outside its
    diagonal block, a block row or column with no entry, a zero row or
    column whose star class is shared) is collected in
    ``lemma_violations`` rather than raised, so harnesses can report it.
    """
    stars = pushout.star_classes()

    def classify(side, vertices, what):
        out = []
        for v in vertices:
            classes = stars.assignment[side]
            c = classes[v] if 0 <= v < len(classes) else None
            if c is None:
                raise ValueError(
                    f"{what} vertex {v!r} is not a 3-valent vertex of the pushout input"
                )
            out.append(c)
        return out

    row_class = classify(LEFT, M.row_vertices, "row")
    col_class = classify(RIGHT, M.col_vertices, "column")
    zero_rows = set(M.zero_rows())
    zero_cols = set(M.zero_cols())
    nonzero_rows = [i for i in range(len(M.row_vertices)) if i not in zero_rows]
    nonzero_cols = [j for j in range(len(M.col_vertices)) if j not in zero_cols]

    block_classes = sorted(
        {row_class[i] for i in nonzero_rows} | {col_class[j] for j in nonzero_cols}
    )
    violations: list[str] = []
    blocks = []
    row_perm: list[int] = []
    col_perm: list[int] = []
    for c in block_classes:
        rows_c = [i for i in nonzero_rows if row_class[i] == c]
        cols_c = [j for j in nonzero_cols if col_class[j] == c]
        blocks.append((len(rows_c), len(cols_c)))
        row_perm.extend(rows_c)
        col_perm.extend(cols_c)
        for i in rows_c:
            if not any(M.entries[i][j] for j in cols_c):
                violations.append(f"block row {i} has no entry in star class {c}")
        for j in cols_c:
            if not any(M.entries[i][j] for i in rows_c):
                violations.append(f"block column {j} has no entry in star class {c}")
    row_perm.extend(sorted(zero_rows))
    col_perm.extend(sorted(zero_cols))

    for i, row in enumerate(M.entries):
        for j, x in enumerate(row):
            if x and row_class[i] != col_class[j]:
                violations.append(
                    f"entry ({i},{j}) lies outside its star-class block"
                )

    class_members: dict[int, int] = {}
    for c in row_class + col_class:
        class_members[c] = class_members.get(c, 0) + 1
    for i in sorted(zero_rows):
        if class_members[row_class[i]] > 1:
            violations.append(f"zero row {i} shares star class {row_class[i]}")
    for j in sorted(zero_cols):
        if class_members[col_class[j]] > 1:
            violations.append(f"zero column {j} shares star class {col_class[j]}")

    matrix = tuple(
        tuple(M.entries[i][j] for j in col_perm) for i in row_perm
    )
    return NormalForm(
        blocks=tuple(blocks),
        p=len(zero_rows),
        q=len(zero_cols),
        row_perm=tuple(row_perm),
        col_perm=tuple(col_perm),
        star_class_count=stars.count,
        matrix=matrix,
        lemma_violations=tuple(violations),
    )


# -- entry-sum bound --------------------------------------------------------------


def entry_sum_bound(h: int, k: int, ell: int, p: int, q: int) -> int:
    """Ceiling for the entry sum of a normal form with shape (ell, p, q).

    The extremal shape keeps ell - 1 singleton blocks and one full block on
    the remaining nonzero rows and columns.
    """
    if ell < 1:
        raise ValueError("the bound requires at least one block (ell >= 1)")
    m = (2 * h - 2) - p - (ell - 1)
    n = (2 * k - 2) - q - (ell - 1)
    if m <= 0:
        raise ValueError("the bound requires 2h-2 > p + ell - 1")
    if n <= 0:
        raise ValueError("the bound requires 2k-2 > q + ell - 1")
    return (ell - 1) + m * n


# -- bipartite summary -------------------------------------------------------------


class BipartiteSummary(namedtuple("BipartiteSummary", "edge_count component_count")):
    """Shape of the row/column pairing graph: one edge per 1-entry."""

    __slots__ = ()


def bipartite_delta(M: IncidenceMatrix, nf: NormalForm | None = None) -> BipartiteSummary:
    """Component and edge counts of the pairing graph of ``M``.

    Isolated nodes count as components, so the expected identity is
    component_count = blocks + zero rows + zero columns; the harness
    compares against ``nf`` rather than this function raising.
    """
    rows, cols = M.shape
    if nf is not None and (len(nf.row_perm), len(nf.col_perm)) != (rows, cols):
        raise ValueError("normal form does not match the matrix shape")
    parts = DisjointSet(rows + cols)  # row i is i, column j is rows + j
    edges = 0
    for i, row in enumerate(M.entries):
        for j, x in enumerate(row):
            if x:
                edges += 1
                parts.union(i, rows + j)
    if edges != M.entry_sum:
        raise ValueError("one pairing edge per 1-entry needs matrix entries of 0 or 1")
    components = max(parts.numbering(), default=-1) + 1
    return BipartiteSummary(
        edge_count=edges,
        component_count=components,
    )
