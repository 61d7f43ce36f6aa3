"""Labeled oriented graphs: folding, cores, traces, canonical forms.

Vertices and edges carry arbitrary hashable identifiers (kept homogeneous
and sortable within any one graph), edges carry a generator label and an
orientation, and a graph may have a distinguished basepoint.  A graph is
*properly labeled* when no vertex has two outgoing (or two incoming) edges
with the same label; properly labeled graphs are deterministic in both
directions, which is what makes traces, membership and canonical forms
well defined.

Graphs are values: construct once, never mutate.  The folding and trimming
operations return fresh graphs together with vertex/edge correspondence
maps.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, NamedTuple

from .words import Alphabet, Word

OUT = 1
IN = -1

_DOT_COLORS = ("black", "red2", "blue2", "forestgreen", "darkorange", "purple")


class ImproperLabelingError(ValueError):
    """The operation requires a properly labeled graph."""


@dataclass(frozen=True, slots=True)
class GraphStats:
    """Size and shape summary of a labeled graph."""

    vertex_count: int
    edge_count: int
    chi: int
    rank: int
    branch_count: int
    max_valence: int
    extremal_count: int
    component_count: int


@dataclass(frozen=True, slots=True)
class VertexType:
    """The multiset of (label, direction) dart kinds in a vertex star."""

    darts: tuple[tuple[int, int], ...]  # sorted (label, OUT/IN) pairs

    @property
    def valence(self) -> int:
        return len(self.darts)


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

    Construction also builds the dart index, a table from
    ``(vertex, label, direction)`` to edge id, and the clash set, the
    vertices carrying two darts of one kind.  So properness is known at
    once, :meth:`dart_edge` is a single lookup, and folding starts from
    the clashes alone.
    """

    __slots__ = (
        "rank", "basepoint", "_edge", "_out", "_in", "_dart", "_vertex_order", "_clashes",
        "_stars",
    )

    def __init__(
        self,
        rank: int,
        vertices: Iterable[Hashable],
        edges,
        basepoint: Hashable | None = None,
    ):
        """``edges`` maps edge id -> (label, src, dst), or iterates
        (eid, label, src, dst) tuples."""
        self.rank = rank
        self.basepoint = basepoint
        if isinstance(edges, dict):
            records = edges.items()
        else:
            records = ((eid, (label, src, dst)) for eid, label, src, dst in edges)
        order = dict.fromkeys(vertices)
        out: dict = {v: [] for v in order}
        inc: dict = {v: [] for v in order}
        edge_table: dict = {}
        dart: dict = {}
        clashes: set = set()
        for eid, (label, src, dst) in records:
            if not 0 <= label < rank:
                raise ValueError(f"edge {eid!r} label {label} out of range for rank {rank}")
            if src not in order or dst not in order:
                raise ValueError(f"edge {eid!r} endpoint missing from vertex set")
            if eid in edge_table:
                raise ValueError(f"duplicate edge id {eid!r}")
            edge_table[eid] = (label, src, dst)
            out[src].append(eid)
            inc[dst].append(eid)
            # a dart key already held by another edge is a clash at that vertex
            if dart.setdefault((src, label, OUT), eid) is not eid:
                clashes.add(src)
            if dart.setdefault((dst, label, IN), eid) is not eid:
                clashes.add(dst)
        if basepoint is not None and basepoint not in order:
            raise ValueError(f"basepoint {basepoint!r} missing from vertex set")
        self._edge = edge_table
        self._out = out
        self._in = inc
        self._dart = dart
        self._vertex_order = tuple(order)
        self._clashes = clashes  # vertices with two darts of one (label, direction)
        self._stars: dict = {}  # vertex -> its darts, filled in by darts()

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
        return v in self._out

    def edge(self, eid: Hashable) -> tuple[int, Hashable, Hashable]:
        return self._edge[eid]

    def edges(self) -> Iterator[tuple[Hashable, int, Hashable, Hashable]]:
        for eid, (label, src, dst) in self._edge.items():
            yield eid, label, src, dst

    def valence(self, v: Hashable) -> int:
        # a loop contributes once as outgoing and once as incoming
        return len(self._out[v]) + len(self._in[v])

    def vertex_type(self, v: Hashable) -> VertexType:
        darts = [(self._edge[e][0], OUT) for e in self._out[v]]
        darts += [(self._edge[e][0], IN) for e in self._in[v]]
        return VertexType(tuple(sorted(darts)))

    def is_properly_labeled(self) -> bool:
        return not self._clashes

    # -- traversal -------------------------------------------------------------

    def darts(self, v: Hashable) -> tuple[tuple[int, Hashable, Hashable], ...]:
        """The darts at ``v`` as (signed letter, edge id, far end) triples.

        An outgoing dart reads letter ``label + 1`` towards the edge's
        target, an incoming one ``-(label + 1)`` towards its source; a loop
        gives both.  Darts come by label, the outgoing before the incoming.
        Every graph walk numbers vertices in this order, which is what
        makes canonical forms, bases and DOT output reproducible.  On an
        improperly labeled graph darts sharing a letter keep the order
        their edges were given in.  Each vertex's darts are sorted once,
        on the first walk that reaches it.
        """
        star = self._stars.get(v)
        if star is None:
            edge = self._edge
            star = []
            for e in self._out[v]:
                label, _, dst = edge[e]
                star.append((label + 1, e, dst))
            for e in self._in[v]:
                label, src, _ = edge[e]
                star.append((-label - 1, e, src))
            # outgoing letter l sorts at 2l - 1, incoming -l at 2l
            star.sort(key=lambda dart: 2 * dart[0] - 1 if dart[0] > 0 else -2 * dart[0])
            star = self._stars[v] = tuple(star)
        return star

    def dart_edge(self, v: Hashable, label: int, direction: int) -> Hashable | None:
        """The unique edge at ``v`` with the given label and direction, if any."""
        if self._clashes:
            raise ImproperLabelingError("graph is not properly labeled")
        e = self._dart.get((v, label, direction))
        if e is None and v not in self._out:
            raise KeyError(v)
        return e

    def step(self, v: Hashable, letter: int) -> Hashable | None:
        """Follow one signed letter from ``v``; None when unreadable."""
        label = abs(letter) - 1
        if letter > 0:
            e = self.dart_edge(v, label, OUT)
            return None if e is None else self._edge[e][2]
        e = self.dart_edge(v, label, IN)
        return None if e is None else self._edge[e][1]

    def trace(self, start: Hashable, w: Word) -> Traversal:
        """Read ``w`` from ``start``; failure records the first unreadable index."""
        if start not in self._out:
            raise ValueError(f"start vertex {start!r} not in graph")
        here = start
        for i, letter in enumerate(w.letters):
            nxt = self.step(here, letter)
            if nxt is None:
                return Traversal(None, i)
            here = nxt
        return Traversal(here, None)

    # -- summaries -------------------------------------------------------------

    def stats(self) -> GraphStats:
        valences = [self.valence(v) for v in self._vertex_order]
        nv, ne = len(valences), len(self._edge)
        comps = self.components()
        return GraphStats(
            vertex_count=nv,
            edge_count=ne,
            chi=nv - ne,
            rank=ne - nv + len(comps),
            branch_count=sum(1 for x in valences if x >= 3),
            max_valence=max(valences, default=0),
            extremal_count=sum(1 for x in valences if x <= 1),
            component_count=len(comps),
        )

    @property
    def chi(self) -> int:
        return self.vertex_count - self.edge_count

    def is_core(self) -> bool:
        """No vertex of valence <= 1 apart from the basepoint."""
        return all(
            self.valence(v) >= 2 for v in self._vertex_order if v != self.basepoint
        )

    def components(self) -> list[list]:
        """Vertex lists of the connected components, each in walk order.

        Needs no proper labeling, so pushout quotients are covered too.
        """
        seen: set = set()
        comps: list[list] = []
        for v0 in self._vertex_order:
            if v0 in seen:
                continue
            seen.add(v0)
            comp = [v0]
            for v in comp:  # comp grows while it is walked
                for _, _, w in self.darts(v):
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
            comps.append(comp)
        return comps

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
        emap = edge_map or {e: e for e in self._edge}
        edges = {
            emap[eid]: (label, vertex_map[src], vertex_map[dst])
            for eid, (label, src, dst) in self._edge.items()
        }
        bp = None if self.basepoint is None else vertex_map[self.basepoint]
        return LabeledGraph(
            self.rank, [vertex_map[v] for v in self._vertex_order], edges, basepoint=bp
        )

    # -- canonical form ------------------------------------------------------------

    def _walk_from(self, start: Hashable) -> tuple[dict, dict, dict]:
        """BFS from ``start`` over the dart index, by label, outgoing first:
        the numbering of the vertices reached, their edges renumbered as
        ``{k: (label, i, j)}`` in sorted order (each is emitted at its
        outgoing dart, and a properly labeled graph has one edge per
        (source, label)), and the edge map."""
        dart, edge = self._dart, self._edge
        labels = range(self.rank)
        number = {start: 0}
        order = [start]
        edges, edge_map = {}, {}
        for i, v in enumerate(order):  # order grows while it is walked
            for label in labels:
                e = dart.get((v, label, OUT))
                if e is not None:
                    w = edge[e][2]
                    j = number.get(w)
                    if j is None:
                        j = number[w] = len(order)
                        order.append(w)
                    edge_map[e] = len(edges)
                    edges[len(edges)] = (label, i, j)
                e = dart.get((v, label, IN))
                if e is not None and edge[e][1] not in number:
                    number[edge[e][1]] = len(order)
                    order.append(edge[e][1])
        return number, edges, edge_map

    def _walk_by_code(self, anchor: Hashable | None) -> tuple[dict, dict, dict]:
        """Walk the components one after another, the anchor's first, then
        the rest by edge code, and concatenate the walks."""
        walks = []
        for comp in self.components():
            based = anchor is not None and anchor in comp
            # the first start with the least (source, label, target) code wins ties
            starts = [anchor] if based else comp
            coded = (((not based, tuple((i, a, j) for a, i, j in w[1].values())), w)
                     for w in map(self._walk_from, starts))
            key, walk = min(coded, key=lambda t: t[0])
            if len(walk[0]) != len(comp):
                raise ValueError("component not connected under traversal")
            walks.append((key, walk))
        walks.sort(key=lambda t: t[0])
        number, edges, edge_map = {}, {}, {}
        for _, (numbering, walked, emap) in walks:
            n, m = len(number), len(edges)
            number.update((v, n + i) for v, i in numbering.items())
            edges.update((m + k, (label, n + i, n + j)) for k, (label, i, j) in walked.items())
            edge_map.update((e, m + k) for e, k in emap.items())
        return number, edges, edge_map

    def canonical(self, *, based: bool = True) -> CanonicalForm:
        """Deterministic relabeling: vertices 0..n-1, edges 0..m-1.

        Two properly labeled graphs are isomorphic (respecting basepoints when
        ``based``) exactly when their canonical forms are equal.  A based
        graph that the walk from its basepoint covers is numbered by that
        walk alone; edge codes are compared only to order several
        components or to pick the start of an unbased one.
        """
        if self._clashes:
            raise ImproperLabelingError("graph is not properly labeled")
        anchor = self.basepoint if based else None
        walk = None if anchor is None else self._walk_from(anchor)
        if walk is None or len(walk[0]) != len(self._vertex_order):
            walk = self._walk_by_code(anchor)
        return self._canonical_form(*walk, based=based)

    def _canonical_form(self, number: dict, edges: dict, edge_map: dict, *, based: bool):
        """The canonical form a walk covering this properly labeled graph
        gives, built by the validating constructor."""
        bp = number[self.basepoint] if based and self.basepoint is not None else None
        graph = LabeledGraph(self.rank, range(len(number)), edges, basepoint=bp)
        return CanonicalForm(graph, number, edge_map)

    def isomorphic(self, other: "LabeledGraph", *, based: bool = True) -> bool:
        return self.canonical(based=based).graph == other.canonical(based=based).graph

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

    def to_dot(
        self,
        *,
        name: str = "core",
        alphabet: Alphabet | None = None,
        vertex_text: dict | None = None,
    ) -> str:
        """Graphviz source with one color per label and a doubled basepoint.

        Properly labeled graphs are numbered from the canonical form so the
        output is reproducible; others fall back to sorted identifiers.
        """
        alphabet = alphabet or Alphabet(self.rank)
        if self.is_properly_labeled():
            vmap = self.canonical().vertex_map
        else:
            vmap = {v: i for i, v in enumerate(sorted(self._vertex_order, key=repr))}
        lines = [f"digraph {name} {{", "  rankdir=LR;"]
        for v in sorted(self._vertex_order, key=lambda u: vmap[u]):
            shape = "doublecircle" if v == self.basepoint else "circle"
            text = vertex_text.get(v, str(vmap[v])) if vertex_text else str(vmap[v])
            lines.append(f'  {vmap[v]} [shape={shape}, label="{text}"];')
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
    step: dict = {}  # (vertex, signed letter) -> far end of the first dart laid there
    next_vertex = 1

    def read(v, letters) -> tuple[int, Hashable]:
        """How many of ``letters`` read from ``v``, and the vertex reached."""
        count = 0
        for letter in letters:
            w = step.get((v, letter))
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
            step.setdefault((v, letter), w)
            step.setdefault((w, -letter), v)
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
    for pair in vertices:  # vertices grows while it is walked
        step = {letter: (e, w) for letter, e, w in g2.darts(pair[1])}
        for letter, e1, w1 in g1.darts(pair[0]):
            if letter not in step:
                continue
            e2, w2 = step[letter]
            far = (w1, w2)
            if letter > 0:
                edges[e1, e2] = (letter - 1, pair, far)
            else:
                edges[e1, e2] = (-letter - 1, far, pair)
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

    Each vertex root a fold touches keeps a table from dart kind (label,
    direction) to one edge; a second edge of a kind the table holds is
    queued as a pair to identify.  Identifying a pair unions the two edges
    and their far ends, and merging two vertices pours the smaller table
    into the larger, queuing a pair for each kind both hold.  The queue
    starts at the graph's clashes, in vertex order, so the work grows with
    the identifications made, plus one rebuild when there is any.
    Disjoint-set partitions over vertices and edges record them; a
    surviving edge is an edge root.  Any order of folds gives the same
    quotient.
    """
    edge, out, inc = g._edge, g._out, g._in
    vparts = DisjointSet(g._vertex_order)
    eparts = DisjointSet(edge)
    find_v, find_e = vparts.find, eparts.find  # hoisted: the loop is hot
    merged_vertices: list = []
    merged_edges: list = []
    pairs: deque = deque()  # (held edge, edge to identify with it, direction at the shared end)
    darts: dict = {}  # root vertex -> (label, direction) -> edge

    def dart_table(v):
        table = darts.get(v)
        if table is None:  # v has absorbed nothing, so g's darts at v are all of them
            table = darts[v] = {}
            for direction, ids in ((OUT, out[v]), (IN, inc[v])):
                for e in ids:
                    held = table.setdefault((edge[e][0], direction), e)
                    if held != e:
                        pairs.append((held, e, direction))
        return table

    clashes = g._clashes
    for v in g._vertex_order:
        if v in clashes:
            dart_table(v)

    while pairs:
        keep, drop, direction = pairs.popleft()
        keep, drop = find_e(keep), find_e(drop)
        if keep == drop:
            continue
        eparts.union(keep, drop)
        merged_edges.append(drop)
        far = 2 if direction == OUT else 1  # the record index of the far end
        t1, t2 = find_v(edge[keep][far]), find_v(edge[drop][far])
        if t1 == t2:
            continue
        table1, table2 = dart_table(t1), dart_table(t2)
        if len(table1) < len(table2):
            t1, t2, table1, table2 = t2, t1, table2, table1
        vparts.union(t1, t2)
        merged_vertices.append(t2)
        del darts[t2]
        for kind, e in table2.items():
            held = table1.setdefault(kind, e)
            if held != e:
                pairs.append((held, e, kind[1]))

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
    out, inc = g._out, g._in
    degree = {v: len(out[v]) + len(inc[v]) for v in g._vertex_order}
    dead_vertices: set = set()
    dead_edges: set = set()
    queue = deque(v for v, d in degree.items() if d <= 1 and v != protected)
    while queue:
        v = queue.popleft()
        if v in dead_vertices or degree[v] > 1:
            continue
        dead_vertices.add(v)
        for e in out[v] + inc[v]:
            if e in dead_edges:
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
