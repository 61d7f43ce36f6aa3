"""Labeled oriented graphs: folding, cores, traces, canonical forms.

Vertices and edges carry arbitrary hashable identifiers (kept homogeneous
and sortable within any one graph), edges carry a generator label and an
orientation, and a graph may have a distinguished basepoint.  A graph is
*properly labeled* when no vertex has two outgoing (or two incoming) edges
with the same label; properly labeled graphs are deterministic in both
directions, which is what makes traces, membership and canonical forms
well defined.

Each graph keeps its darts in one table: a row of ``2 * rank`` slots per
vertex, the outgoing dart of each label before its incoming one, plus a
clash list of the darts a row has no room for.  Walks, products, folds and
trims read the rows directly, in slot order, which is the one dart order
every numbering follows.

Graphs are values: construct once, never mutate.  The folding and trimming
operations return fresh graphs together with vertex/edge correspondence
maps.

No graph, subgroup or report refers back to what holds it, so these values
are acyclic and reference counting frees every one of them.  Python's cyclic
collector finds nothing to free here; it only rescans the graphs being
built.  The entry points that build and check a pair therefore pause it
(``_collector_paused``).  The pause is process-wide, so it assumes that no
other thread relies on the collector meanwhile.
"""

from __future__ import annotations

import functools
import gc
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, NamedTuple

from .words import Alphabet, Word

_DOT_COLORS = ("black", "red2", "blue2", "forestgreen", "darkorange", "purple")


def _collector_paused(fn):
    """Run ``fn`` with the cyclic garbage collector off.

    Premise: graphs, subgroups and reports are acyclic values, so reference
    counting frees them all, and a collector pass during the call would only
    rescan live graphs.  Re-entrant: when the collector is already off, by
    an enclosing call or by the caller, ``fn`` just runs.  Otherwise the
    collector is turned back on when ``fn`` returns or raises.  The pause is
    process-wide: other threads run without the collector meanwhile.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


class ImproperLabelingError(ValueError):
    """The operation requires a properly labeled graph."""


class Traversal(NamedTuple):
    """Outcome of tracing a word: the final vertex, or the failure index."""

    vertex: Hashable | None
    failed_at: int | None

    @property
    def ok(self) -> bool:
        return self.failed_at is None


@dataclass(frozen=True, slots=True)
class CanonicalForm:
    graph: "LabeledGraph"
    vertex_map: dict
    edge_map: dict


class DisjointSet:
    """Union-find over hashables, with path compression.

    The package's one union-find: folding merges vertices and edges with
    it, and the product, pushout and matrix layers group classes with it.
    ``union(a, b)`` hangs ``b``'s root under ``a``'s, so a caller that
    cares which representative survives passes it first.
    """

    __slots__ = ("parent",)

    def __init__(self, items: Iterable[Hashable] = ()):
        self.parent: dict = {x: x for x in items}

    def add(self, x: Hashable) -> None:
        self.parent.setdefault(x, x)

    def find(self, x: Hashable) -> Hashable:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge the classes of ``a`` and ``b``, adding either that is new;
        False when already one class."""
        self.parent.setdefault(a, a)
        self.parent.setdefault(b, b)
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True

    def classes(self) -> list[list]:
        """Every class as a sorted member list."""
        grouped: dict = defaultdict(list)
        for x in self.parent:
            grouped[self.find(x)].append(x)
        return [sorted(members) for members in grouped.values()]


class LabeledGraph:
    """A finite oriented graph with edges labeled by generator indices.

    Construction also builds one row of ``2 * rank`` dart slots per vertex:
    slot ``2 * label`` holds the first outgoing edge of that label in edge
    order and slot ``2 * label + 1`` the first incoming one, so a loop fills
    both slots of its label.  Every later dart of an occupied kind goes to
    the clash list of its vertex as ``(slot, edge)``.  So properness is
    known at once, reading a letter is a single index, and folding starts
    from the clashes alone.  ``None`` marks an empty slot, so it is no edge
    id.
    """

    __slots__ = ("rank", "basepoint", "_edge", "_rows", "_vertex_order", "_clashes")

    def __init__(
        self,
        rank: int,
        vertices: Iterable[Hashable],
        edges: dict,
        basepoint: Hashable | None = None,
    ):
        """``edges`` maps edge id -> (label, src, dst)."""
        self.rank = rank
        self.basepoint = basepoint
        width = 2 * rank
        rows: dict = {v: [None] * width for v in vertices}
        edge_table: dict = {}
        clashes: dict = {}
        for eid, (label, src, dst) in edges.items():
            if not 0 <= label < rank:
                raise ValueError(f"edge {eid!r} label {label} out of range for rank {rank}")
            out_row, in_row = rows.get(src), rows.get(dst)
            if out_row is None or in_row is None:
                raise ValueError(f"edge {eid!r} endpoint missing from vertex set")
            if eid in edge_table:
                raise ValueError(f"duplicate edge id {eid!r}")
            edge_table[eid] = (label, src, dst)
            # a slot already held by another edge is a clash at that vertex
            slot = 2 * label
            if out_row[slot] is None:
                out_row[slot] = eid
            else:
                clashes.setdefault(src, []).append((slot, eid))
            slot += 1
            if in_row[slot] is None:
                in_row[slot] = eid
            else:
                clashes.setdefault(dst, []).append((slot, eid))
        if basepoint is not None and basepoint not in rows:
            raise ValueError(f"basepoint {basepoint!r} missing from vertex set")
        self._edge = edge_table
        self._rows = rows
        self._vertex_order = tuple(rows)
        self._clashes = clashes  # vertex -> [(slot, edge)] past the first of each kind

    # -- structure access ----------------------------------------------------

    @property
    def vertices(self) -> tuple:
        return self._vertex_order

    @property
    def vertex_count(self) -> int:
        return len(self._vertex_order)

    @property
    def edge_count(self) -> int:
        return len(self._edge)

    def has_vertex(self, v: Hashable) -> bool:
        return v in self._rows

    def edge(self, eid: Hashable) -> tuple[int, Hashable, Hashable]:
        return self._edge[eid]

    def edges(self) -> Iterator[tuple[Hashable, int, Hashable, Hashable]]:
        for eid, (label, src, dst) in self._edge.items():
            yield eid, label, src, dst

    def valence(self, v: Hashable) -> int:
        # a loop fills both slots of its label; clashes are the darts past them
        row = self._rows[v]
        return len(row) - row.count(None) + len(self._clashes.get(v, ()))

    def _valences(self) -> dict:
        """:meth:`valence` of every vertex, in vertex order."""
        width = 2 * self.rank
        valences = {v: width - row.count(None) for v, row in self._rows.items()}
        for v, later in self._clashes.items():
            valences[v] += len(later)
        return valences

    def is_properly_labeled(self) -> bool:
        return not self._clashes

    # -- traversal -------------------------------------------------------------

    def darts(self, v: Hashable) -> tuple[tuple[int, Hashable, Hashable], ...]:
        """The darts at ``v`` as (signed letter, edge id, far end) triples.

        An outgoing dart reads letter ``label + 1`` towards the edge's
        target, an incoming one ``-(label + 1)`` towards its source; a loop
        gives both.  Darts come in slot order, by label with the outgoing
        before the incoming, as ``_walk_from`` reads them.  Every graph
        walk numbers vertices in this order, which is what makes canonical
        forms, bases and DOT output reproducible.  Needs a properly labeled
        graph.
        """
        if self._clashes:
            raise ImproperLabelingError("graph is not properly labeled")
        edge = self._edge
        star = []
        for slot, e in enumerate(self._rows[v]):
            if e is not None:
                if slot & 1:
                    star.append((-(slot >> 1) - 1, e, edge[e][1]))
                else:
                    star.append(((slot >> 1) + 1, e, edge[e][2]))
        return tuple(star)

    def trace(self, start: Hashable, w: Word) -> Traversal:
        """Read ``w`` from ``start`` along the rows, a letter past the rank
        reading no edge; failure records the first unreadable index.  Needs
        a properly labeled graph."""
        if self._clashes:
            raise ImproperLabelingError("graph is not properly labeled")
        rows, edge = self._rows, self._edge
        if start not in rows:
            raise ValueError(f"start vertex {start!r} not in graph")
        width = 2 * self.rank
        here = start
        for i, letter in enumerate(w.letters):
            # l > 0 reads slot 2(l - 1) to the target, l < 0 slot 2(-l) - 1 to the source
            slot, far = (2 * letter - 2, 2) if letter > 0 else (-2 * letter - 1, 1)
            e = rows[here][slot] if slot < width else None
            if e is None:
                return Traversal(None, i)
            here = edge[e][far]
        return Traversal(here, None)

    # -- summaries -------------------------------------------------------------

    @property
    def chi(self) -> int:
        return self.vertex_count - self.edge_count

    def is_core(self) -> bool:
        """No vertex of valence <= 1 apart from the basepoint."""
        return all(d >= 2 for v, d in self._valences().items() if v != self.basepoint)

    # -- rebuilding --------------------------------------------------------------

    def subgraph(self, keep_vertices: set, *, basepoint: Hashable | None = None) -> "LabeledGraph":
        edges = {
            eid: rec
            for eid, rec in self._edge.items()
            if rec[1] in keep_vertices and rec[2] in keep_vertices
        }
        vertices = [v for v in self._vertex_order if v in keep_vertices]
        return LabeledGraph(self.rank, vertices, edges, basepoint=basepoint)

    def with_basepoint(self, v: Hashable | None) -> "LabeledGraph":
        return LabeledGraph(self.rank, self._vertex_order, self._edge, basepoint=v)

    def relabeled(self, vertex_map: dict, edge_map: dict | None = None) -> "LabeledGraph":
        """Rename vertices (and optionally edge ids) through injective maps."""
        if len(set(vertex_map.values())) != len(vertex_map):
            raise ValueError("vertex relabeling is not injective")
        if edge_map is None:
            edge_map = {e: e for e in self._edge}
        elif len(set(edge_map.values())) != len(edge_map):
            raise ValueError("edge relabeling is not injective")
        edges = {
            edge_map[eid]: (label, vertex_map[src], vertex_map[dst])
            for eid, (label, src, dst) in self._edge.items()
        }
        bp = None if self.basepoint is None else vertex_map[self.basepoint]
        return LabeledGraph(
            self.rank, [vertex_map[v] for v in self._vertex_order], edges, basepoint=bp
        )

    # -- canonical form ------------------------------------------------------------

    def _walk_from(self, start: Hashable) -> tuple[dict, dict, dict]:
        """BFS from ``start`` over the dart rows, in slot order: the
        numbering of the vertices reached, their edges renumbered as
        ``{k: (label, i, j)}`` in sorted order (each is emitted at its
        outgoing dart, and a properly labeled graph has one edge per
        (source, label)), and the edge map."""
        rows, edge = self._rows, self._edge
        slots = range(0, 2 * self.rank, 2)
        number = {start: 0}
        order = [start]
        edges, edge_map = {}, {}
        for i, v in enumerate(order):  # order grows while it is walked
            row = rows[v]
            for slot in slots:
                e = row[slot]
                if e is not None:
                    label, _, w = edge[e]
                    j = number.get(w)
                    if j is None:
                        j = number[w] = len(order)
                        order.append(w)
                    edge_map[e] = len(edges)
                    edges[len(edges)] = (label, i, j)
                e = row[slot + 1]
                if e is not None and edge[e][1] not in number:
                    number[edge[e][1]] = len(order)
                    order.append(edge[e][1])
        return number, edges, edge_map

    def canonical(self) -> CanonicalForm:
        """Deterministic relabeling: vertices 0..n-1, edges 0..m-1, numbered
        by the walk from the basepoint (``_walk_from``).

        Two properly labeled, connected, based graphs have equal canonical
        forms exactly when an isomorphism maps one onto the other, basepoint
        to basepoint.  Raises ``ImproperLabelingError`` on an improperly
        labeled graph, and ``ValueError`` when the graph has no basepoint or
        the walk from it does not reach every vertex.
        """
        if self._clashes:
            raise ImproperLabelingError("graph is not properly labeled")
        if self.basepoint is None:
            raise ValueError("a canonical form needs a basepoint")
        walk = self._walk_from(self.basepoint)
        if len(walk[0]) != len(self._vertex_order):
            raise ValueError("the walk from the basepoint does not reach every vertex")
        return self._canonical_form(*walk)

    def _canonical_form(self, number: dict, edges: dict, edge_map: dict) -> CanonicalForm:
        """The canonical form that the walk from the basepoint gives, the
        walk having reached every vertex of this properly labeled graph;
        built by the validating constructor."""
        graph = LabeledGraph(self.rank, range(len(number)), edges, basepoint=number[self.basepoint])
        return CanonicalForm(graph, number, edge_map)

    def __eq__(self, other: object) -> bool:
        """Structural identity: same ids, edges and basepoint."""
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.basepoint == other.basepoint
            and set(self._vertex_order) == set(other._vertex_order)
            and self._edge == other._edge
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.rank,
                self.basepoint,
                frozenset(self._vertex_order),
                frozenset((e, rec) for e, rec in self._edge.items()),
            )
        )

    def __repr__(self) -> str:
        return (
            f"LabeledGraph(rank={self.rank}, vertices={self.vertex_count}, "
            f"edges={self.edge_count}, basepoint={self.basepoint!r})"
        )

    # -- export -----------------------------------------------------------------

    def to_dot(self) -> str:
        """Graphviz source with one color per label and a doubled basepoint.

        Vertices are numbered by :meth:`canonical`, so the output is
        reproducible; where that raises (an improperly labeled or unbased
        graph, or one the basepoint's walk does not cover), they are
        numbered by their sorted identifiers instead.
        """
        alphabet = Alphabet(self.rank)
        try:
            vmap = self.canonical().vertex_map
        except ValueError:
            vmap = {v: i for i, v in enumerate(sorted(self._vertex_order, key=repr))}
        lines = ["digraph core {", "  rankdir=LR;"]
        for v in sorted(self._vertex_order, key=lambda u: vmap[u]):
            shape = "doublecircle" if v == self.basepoint else "circle"
            lines.append(f'  {vmap[v]} [shape={shape}, label="{vmap[v]}"];')
        edge_rows = sorted(
            (vmap[src], label, vmap[dst]) for _, (label, src, dst) in self._edge.items()
        )
        for src, label, dst in edge_rows:
            color = _DOT_COLORS[label % len(_DOT_COLORS)]
            lines.append(
                f'  {src} -> {dst} [label="{alphabet.letter_name(label + 1)}", color={color}];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


# -- builders ---------------------------------------------------------------------


def bouquet_of(gens: Iterable[Word], alphabet: Alphabet | None = None) -> LabeledGraph:
    """A based graph that folds onto the core of the subgroup ``gens`` generate.

    The graph is a fold-quotient of the plain bouquet (one subdivided loop
    per nonidentity generator, wedged at the basepoint 0), so folding either
    gives the same graph.  Generators are laid shortest first, each written
    u c u^-1 with c cyclically reduced.  What of u can be read from the
    basepoint along darts already laid is read, and only the rest is laid.
    From the end of u, c is read forwards and then backwards, short of all
    of it, and only its unread middle is laid, at least one edge.  So the
    clashes left for the fold are the true identifications the reading
    could not make.
    """
    gens = list(gens)
    if alphabet is None:
        if not gens:
            raise ValueError("an alphabet is required for an empty generator list")
        alphabet = gens[0].alphabet
    if any(w.alphabet != alphabet for w in gens):
        raise ValueError("generators use mismatched alphabets")
    edges: dict = {}
    laid: dict = {}  # (vertex, signed letter) -> far end of the first dart laid there
    next_vertex = 1

    def read(v, letters) -> tuple[int, Hashable]:
        """How many of ``letters`` read from ``v``, and the vertex reached."""
        count = 0
        for letter in letters:
            w = laid.get((v, letter))
            if w is None:
                break
            v = w
            count += 1
        return count, v

    def lay(v, letters, end=None) -> Hashable:
        """A path from ``v`` spelling ``letters`` through new vertices, ending
        at ``end`` when one is given; returns its last vertex."""
        nonlocal next_vertex
        for i, letter in enumerate(letters, 1):
            if end is not None and i == len(letters):
                w = end
            else:
                w = next_vertex
                next_vertex += 1
            if letter > 0:
                edges[len(edges)] = (letter - 1, v, w)
            else:
                edges[len(edges)] = (-letter - 1, w, v)
            laid.setdefault((v, letter), w)
            laid.setdefault((w, -letter), v)
            v = w
        return v

    for w in sorted(gens, key=len):
        letters = w.letters
        if not letters:
            continue
        k = 0  # a reduced word is never its own inverse, so c is not empty
        while letters[k] == -letters[-1 - k]:
            k += 1
        u, c = letters[:k], letters[k : len(letters) - k]
        read_u, x = read(0, u)
        x = lay(x, u[read_u:])
        head, y = read(x, c[:-1])
        tail, z = read(x, [-letter for letter in reversed(c[head + 1 :])])
        lay(y, c[head : len(c) - tail], z)
    return LabeledGraph(alphabet.rank, range(next_vertex), edges, basepoint=0)


def based_product(g1: LabeledGraph, g2: LabeledGraph) -> LabeledGraph:
    """The component of the basepoint pair in the product of two graphs.

    Product vertices are pairs (v1, v2) and product edges pairs (e1, e2)
    of equally labeled edges, so the coordinates are the two projections.
    Only this one component is grown, from the basepoint pair outwards.
    Both graphs must be properly labeled.
    """
    if not (g1.is_properly_labeled() and g2.is_properly_labeled()):
        raise ImproperLabelingError("the product needs properly labeled factors")
    start = (g1.basepoint, g2.basepoint)
    seen = {start}
    vertices = [start]
    edges: dict = {}
    rows1, edge1, rows2, edge2 = g1._rows, g1._edge, g2._rows, g2._edge
    for pair in vertices:  # vertices grows while it is walked
        for slot, (e1, e2) in enumerate(zip(rows1[pair[0]], rows2[pair[1]])):
            if e1 is None or e2 is None:
                continue
            label, src1, dst1 = edge1[e1]
            _, src2, dst2 = edge2[e2]
            if slot & 1:
                far = (src1, src2)
                edges[e1, e2] = (label, far, pair)
            else:
                far = (dst1, dst2)
                edges[e1, e2] = (label, pair, far)
            if far not in seen:
                seen.add(far)
                vertices.append(far)
    return LabeledGraph(g1.rank, vertices, edges, basepoint=start)


# -- folding -----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FoldResult:
    """Folded graph plus the original -> surviving id correspondences."""

    graph: LabeledGraph
    vertex_map: dict
    edge_map: dict


def fold_to_immersion(g: LabeledGraph) -> FoldResult:
    """Identify equally labeled edges sharing an endpoint until properly labeled.

    Each vertex root a fold touches keeps a table from dart slot to one
    edge, started from its row and its clash list; a second edge of a slot
    the table holds is queued as a pair to identify.  Identifying a pair
    unions the two edges and their far ends, and merging two vertices pours
    the smaller table into the larger, queuing a pair for each slot both
    hold.  The queue starts at the graph's clashes, so the work grows with
    the identifications made, plus one rebuild when there is any.
    Disjoint-set partitions over vertices and edges record them; a
    surviving edge is an edge root.  Any order of folds gives the same
    quotient.
    """
    edge, rows, clashes = g._edge, g._rows, g._clashes
    vparts = DisjointSet(g._vertex_order)
    eparts = DisjointSet(edge)
    find_v, find_e = vparts.find, eparts.find  # hoisted: the loop is hot
    merged_vertices: list = []
    merged_edges: list = []
    pairs: deque = deque()  # (held edge, edge to identify with it, slot at the shared end)
    darts: dict = {}  # root vertex -> slot -> edge

    def dart_table(v):
        table = darts.get(v)
        if table is None:  # v has absorbed nothing, so g's darts at v are all of them
            table = darts[v] = {slot: e for slot, e in enumerate(rows[v]) if e is not None}
            for slot, e in clashes.get(v, ()):
                pairs.append((table[slot], e, slot))
        return table

    for v in clashes:
        dart_table(v)

    while pairs:
        keep, drop, slot = pairs.popleft()
        keep, drop = find_e(keep), find_e(drop)
        if keep == drop:
            continue
        eparts.union(keep, drop)
        merged_edges.append(drop)
        far = 1 if slot & 1 else 2  # the record index of the far end
        t1, t2 = find_v(edge[keep][far]), find_v(edge[drop][far])
        if t1 == t2:
            continue
        table1, table2 = dart_table(t1), dart_table(t2)
        if len(table1) < len(table2):
            t1, t2, table1, table2 = t2, t1, table2, table1
        vparts.union(t1, t2)
        merged_vertices.append(t2)
        del darts[t2]
        for slot, e in table2.items():
            held = table1.setdefault(slot, e)
            if held != e:
                pairs.append((held, e, slot))

    if not merged_edges:
        folded = g
    else:
        # every non-root was merged once; finding it points it at its root,
        # so the parent tables become the correspondence maps
        for x in merged_vertices:
            find_v(x)
        for e in merged_edges:
            find_e(e)
        vmap = vparts.parent
        gone = set(merged_edges)
        edges = {
            e: (label, vmap[src], vmap[dst])
            for e, (label, src, dst) in edge.items()
            if e not in gone
        }
        bp = None if g.basepoint is None else vmap[g.basepoint]
        folded = LabeledGraph(g.rank, dict.fromkeys(vmap.values()), edges, basepoint=bp)
    if folded._clashes:
        raise ImproperLabelingError("folding left two darts with one label and direction")
    return FoldResult(folded, vparts.parent, eparts.parent)


def trim_to_core(g: LabeledGraph, *, keep_basepoint: bool = True) -> LabeledGraph:
    """Iteratively delete valence <= 1 vertices (never the kept basepoint).

    Returns ``g`` itself when nothing is cut and the basepoint stays, which
    graphs, being values, allow.
    """
    protected = g.basepoint if keep_basepoint else None
    rows, clashes = g._rows, g._clashes
    degree = g._valences()
    dead_vertices: set = set()
    dead_edges: set = set()
    queue = deque(v for v, d in degree.items() if d <= 1 and v != protected)
    while queue:
        v = queue.popleft()
        if v in dead_vertices or degree[v] > 1:
            continue
        dead_vertices.add(v)
        for e in rows[v] + [e for _, e in clashes.get(v, ())]:
            if e is None or e in dead_edges:
                continue
            dead_edges.add(e)
            _, src, dst = g._edge[e]
            for endpoint in (src, dst):
                degree[endpoint] -= 1
                if (
                    endpoint not in dead_vertices
                    and degree[endpoint] <= 1
                    and endpoint != protected
                ):
                    queue.append(endpoint)
    if not dead_vertices and protected == g.basepoint:
        return g
    keep = {v for v in g._vertex_order if v not in dead_vertices}
    return g.subgraph(keep, basepoint=protected)
