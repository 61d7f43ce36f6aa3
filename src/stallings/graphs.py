"""Labeled oriented graphs: folding, cores, traces, canonical forms.

Every graph is numbered densely: vertices are ``0..n-1`` and edges
``0..m-1``, and an edge carries a generator label and an orientation.  A
graph may have a distinguished basepoint.  A graph is *properly labeled*
when no vertex has two outgoing (or two incoming) edges with the same
label; properly labeled graphs are deterministic in both directions, which
is what makes traces, membership and canonical forms well defined.

A graph keeps its edges as three int lists (label, source, target) and its
darts in one flat table of ``2 * rank`` slots per vertex, the outgoing dart
of each label before its incoming one, ``-1`` marking an empty slot.  A
clash list holds the darts a vertex has no slot for, and a degree list the
valence of each vertex.  Walks, products, folds and trims read these lists
directly, in slot order, which is the one dart order every numbering
follows.  A product graph also keeps its two coordinates, as one
projection list per factor.

Graphs are values: construct once, never mutate.  The folding and trimming
operations return fresh, renumbered graphs, and the maps from the old
numbers to the new ones where their callers read them.

No graph, subgroup or report refers back to what holds it, so these values
are acyclic and reference counting frees every one of them.  Python's cyclic
collector finds nothing to free here; it only rescans the graphs being
built.  The entry points that build and check a pair therefore pause it
(``_collector_paused``).  The pause is process-wide, so it assumes that no
other thread relies on the collector meanwhile.
"""

from __future__ import annotations

import copy
import functools
import gc
from collections import deque, namedtuple
from collections.abc import Iterable, Iterator, Sequence

from .words import Alphabet, Word

_DOT_COLORS = ("black", "red2", "blue2", "forestgreen", "darkorange", "purple")

#: Dart slots (``2 * rank`` per vertex) a graph may hold; a graph past it is
#: refused before its table is allocated.  A slot takes 8 bytes, so the table
#: stays under 134 MB.  The largest any pinned run builds is 320,436 slots,
#: on the self pair of three 10,000-letter generators.
SLOT_BUDGET = 2**24


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


class Traversal(namedtuple("Traversal", "vertex failed_at")):
    """Outcome of tracing a word: the final vertex, or the failure index."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.failed_at is None


class CanonicalForm(namedtuple("CanonicalForm", "graph vertex_map")):
    """A canonical graph, with the new number (a list) of each old vertex."""

    __slots__ = ()


class DisjointSet:
    """Union-find over the ints ``0..size-1``, with path compression.

    The package's one union-find: folding merges vertices and edges with
    it, and the product, pushout and matrix layers group classes with it.
    ``union(a, b)`` hangs ``b``'s root under ``a``'s, so a caller that
    cares which representative survives passes it first.
    """

    __slots__ = ("parent",)

    def __init__(self, size: int):
        self.parent: list = list(range(size))

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the classes of ``a`` and ``b``; False when already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True

    def numbering(self) -> list[int]:
        """Each element's class, the classes numbered by least member.

        Halves every path until each element points at its root (each pass
        is one C-level map), then numbers the roots in order of first
        appearance, in one dict.
        """
        roots = self.parent
        while True:
            up = list(map(roots.__getitem__, roots))
            if up == roots:
                break
            roots = up
        number = dict.fromkeys(roots)
        number.update(zip(number, range(len(number))))  # sets values only, so no key moves
        return list(map(number.__getitem__, roots))


class LabeledGraph:
    """A finite oriented graph on vertices ``0..n-1`` with edges ``0..m-1``
    labeled by generator indices.

    Construction also builds the dart table, ``2 * rank`` slots per vertex:
    slot ``2 * label`` of a vertex holds its first outgoing edge of that
    label in edge order and slot ``2 * label + 1`` its first incoming one,
    so a loop fills both slots of its label.  Every later dart of an
    occupied kind goes to the clash list of its vertex as ``(slot, edge)``.
    So properness is known at once, reading a letter is a single index, and
    folding starts from the clashes alone.  ``projections``, when given, is
    a pair of lists: the left and the right coordinate of each vertex of a
    product graph.
    """

    __slots__ = (
        "rank", "basepoint", "vertex_count", "edge_count", "projections",
        "_labels", "_sources", "_targets", "_slots", "_degree", "_clashes",
    )

    def __init__(
        self,
        rank: int,
        vertex_count: int,
        labels: list,
        sources: list,
        targets: list,
        basepoint: int | None = None,
        projections: tuple[list, list] | None = None,
    ):
        """Edge ``e`` runs from ``sources[e]`` to ``targets[e]`` with label
        ``labels[e]``.  The lists are kept, not copied."""
        m = len(labels)
        if len(sources) != m or len(targets) != m:
            raise ValueError("edge label, source and target lists differ in length")
        if m and (min(labels) < 0 or max(labels) >= rank):
            raise ValueError(f"edge label out of range for rank {rank}")
        if m and (min(min(sources), min(targets)) < 0
                  or max(max(sources), max(targets)) >= vertex_count):
            raise ValueError("edge endpoint missing from vertex set")
        if basepoint is not None and not 0 <= basepoint < vertex_count:
            raise ValueError(f"basepoint {basepoint!r} missing from vertex set")
        if projections is not None and not (
            len(projections[0]) == len(projections[1]) == vertex_count
        ):
            raise ValueError("projection lists do not cover the vertices")
        width = 2 * rank
        if width * vertex_count > SLOT_BUDGET:
            raise ValueError(
                f"a graph of rank {rank} needs {width * vertex_count} dart slots "
                f"(2 * rank per vertex), more than the {SLOT_BUDGET} allowed"
            )
        self.rank = rank
        self.basepoint = basepoint
        self.vertex_count = vertex_count
        self.edge_count = m
        self.projections = projections
        slots = [-1] * (width * vertex_count)
        degree = [0] * vertex_count
        clashes: dict = {}
        for e, label, src, dst in zip(range(m), labels, sources, targets):
            # a slot already held by another edge is a clash at that vertex
            slot = 2 * label
            i = src * width + slot
            if slots[i] < 0:
                slots[i] = e
            else:
                clashes.setdefault(src, []).append((slot, e))
            i = dst * width + slot + 1
            if slots[i] < 0:
                slots[i] = e
            else:
                clashes.setdefault(dst, []).append((slot + 1, e))
            degree[src] += 1
            degree[dst] += 1
        self._labels = labels
        self._sources = sources
        self._targets = targets
        self._slots = slots
        self._degree = degree
        self._clashes = clashes  # vertex -> [(slot, edge)] past the first of each kind

    # -- structure access ----------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(self.vertex_count)

    def edges(self) -> Iterator[tuple[int, int, int, int]]:
        """``(edge, label, source, target)`` for every edge, in edge order."""
        return zip(range(self.edge_count), self._labels, self._sources, self._targets)

    def valence(self, v: int) -> int:
        # a loop counts twice
        return self._degree[v]

    def is_properly_labeled(self) -> bool:
        return not self._clashes

    def _vertex(self, v: int) -> int:
        """``v``, checked to be a vertex (a negative index would wrap)."""
        if not (isinstance(v, int) and 0 <= v < self.vertex_count):
            raise ValueError(f"vertex {v!r} not in graph")
        return v

    # -- traversal -------------------------------------------------------------

    def darts(self, v: int) -> tuple[tuple[int, int, int], ...]:
        """The darts at ``v`` as (signed letter, edge, far end) triples.

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
        width = 2 * self.rank
        base = self._vertex(v) * width
        star = []
        for slot, e in enumerate(self._slots[base : base + width]):
            if e >= 0:
                if slot & 1:
                    star.append((-(slot >> 1) - 1, e, self._sources[e]))
                else:
                    star.append(((slot >> 1) + 1, e, self._targets[e]))
        return tuple(star)

    def trace(self, start: int, w: Word) -> Traversal:
        """Read ``w`` from ``start`` along the dart table, a letter past the
        rank reading no edge; failure records the first unreadable index.
        Needs a properly labeled graph."""
        if self._clashes:
            raise ImproperLabelingError("graph is not properly labeled")
        here = self._vertex(start)
        slots, sources, targets = self._slots, self._sources, self._targets
        width = 2 * self.rank
        for i, letter in enumerate(w.letters):
            # l > 0 reads slot 2(l - 1) to the target, l < 0 slot 2(-l) - 1 to the source
            if letter > 0:
                slot, ends = 2 * letter - 2, targets
            else:
                slot, ends = -2 * letter - 1, sources
            e = slots[here * width + slot] if slot < width else -1
            if e < 0:
                return Traversal(None, i)
            here = ends[e]
        return Traversal(here, None)

    # -- summaries -------------------------------------------------------------

    @property
    def chi(self) -> int:
        return self.vertex_count - self.edge_count

    def is_core(self) -> bool:
        """No vertex of valence <= 1 apart from the basepoint."""
        return not _has_hair(self._degree, self.basepoint)

    # -- rebuilding --------------------------------------------------------------

    def subgraph(self, keep: Iterable[int], *, basepoint: int | None = None) -> "LabeledGraph":
        """The graph on the vertices ``keep`` and the edges between them,
        both renumbered in their old order, the basepoint (given in this
        graph's numbers) and any projections carried over.  Raises
        ``ValueError`` on a vertex this graph lacks or one kept twice."""
        keep = sorted(keep)
        if keep and (keep[0] < 0 or keep[-1] >= self.vertex_count):
            raise ValueError("a kept vertex is not in the graph")
        new = [-1] * self.vertex_count
        for i, v in enumerate(keep):
            new[v] = i
        if new.count(-1) != self.vertex_count - len(keep):  # a repeat is numbered once
            raise ValueError("a vertex is kept twice")
        labels, sources, targets = [], [], []
        for label, src, dst in zip(self._labels, self._sources, self._targets):
            src, dst = new[src], new[dst]
            if src >= 0 and dst >= 0:
                labels.append(label)
                sources.append(src)
                targets.append(dst)
        bp = None if basepoint is None else new[self._vertex(basepoint)]
        if bp == -1:
            raise ValueError(f"basepoint {basepoint!r} is not kept")
        projections = self.projections
        if projections is not None:
            projections = tuple([p[v] for v in keep] for p in projections)
        return LabeledGraph(self.rank, len(keep), labels, sources, targets, bp, projections)

    def with_basepoint(self, v: int | None) -> "LabeledGraph":
        """This graph based at ``v`` (or unbased), sharing every table with
        it, since a basepoint changes no slot, clash or degree."""
        if v is not None and not 0 <= v < self.vertex_count:
            raise ValueError(f"basepoint {v!r} missing from vertex set")
        rebased = copy.copy(self)
        rebased.basepoint = v
        return rebased

    # -- canonical form ------------------------------------------------------------

    def _walk_from(self, start: int) -> tuple[list, list, tuple]:
        """BFS from ``start`` over the dart table, in slot order.  Returns
        each vertex's number (-1 where unreached), the vertices reached in
        walk order, and their edges renumbered as (labels, sources, targets)
        lists in sorted order (each is emitted at its outgoing dart, and a
        properly labeled graph has one edge per (source, label))."""
        slots, sources, targets = self._slots, self._sources, self._targets
        width = 2 * self.rank
        number = [-1] * self.vertex_count
        number[start] = 0
        order = [start]
        labels, new_sources, new_targets = [], [], []
        for v in order:  # order grows while it is walked
            i = number[v]  # the int that the targets hold, not a copy of it
            base = v * width
            for slot in range(base, base + width, 2):
                e = slots[slot]
                if e >= 0:
                    w = targets[e]
                    j = number[w]
                    if j < 0:
                        j = number[w] = len(order)
                        order.append(w)
                    labels.append((slot - base) >> 1)
                    new_sources.append(i)
                    new_targets.append(j)
                e = slots[slot + 1]
                if e >= 0:
                    w = sources[e]
                    if number[w] < 0:
                        number[w] = len(order)
                        order.append(w)
        return number, order, (labels, new_sources, new_targets)

    def canonical(self) -> CanonicalForm:
        """Deterministic renumbering of vertices and edges by the walk from
        the basepoint (``_walk_from``); edges come sorted by (source, label).

        Two properly labeled, connected, based graphs have equal canonical
        forms exactly when an isomorphism maps one onto the other, basepoint
        to basepoint.  Raises ``ImproperLabelingError`` on an improperly
        labeled graph, and ``ValueError`` when the graph has no basepoint or
        the walk from it does not reach every vertex.
        """
        if self._clashes:
            raise ImproperLabelingError("a canonical form's graph must be properly labeled")
        if self.basepoint is None:
            raise ValueError("a canonical form needs a basepoint")
        number, order, edges = self._walk_from(self.basepoint)
        if len(order) != self.vertex_count:
            raise ValueError(
                "a canonical form's graph must be connected: the walk from the "
                "basepoint does not reach every vertex"
            )
        return CanonicalForm(LabeledGraph(self.rank, len(order), *edges, basepoint=0), number)

    def __eq__(self, other: object) -> bool:
        """Structural identity: same numbering, edges, basepoint and
        projections."""
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.basepoint == other.basepoint
            and self.vertex_count == other.vertex_count
            and self._labels == other._labels
            and self._sources == other._sources
            and self._targets == other._targets
            and self.projections == other.projections
        )

    def __hash__(self) -> int:
        return hash(
            (self.rank, self.basepoint, self.vertex_count,
             tuple(self._labels), tuple(self._sources), tuple(self._targets))
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
        numbered by their numbers sorted as text instead.
        """
        alphabet = Alphabet(self.rank)
        try:
            vmap = self.canonical().vertex_map
        except ValueError:
            vmap = [0] * self.vertex_count
            for i, v in enumerate(sorted(self.vertices, key=repr)):
                vmap[v] = i
        lines = ["digraph core {", "  rankdir=LR;"]
        for v in sorted(self.vertices, key=vmap.__getitem__):
            shape = "doublecircle" if v == self.basepoint else "circle"
            lines.append(f'  {vmap[v]} [shape={shape}, label="{vmap[v]}"];')
        edge_rows = sorted((vmap[src], label, vmap[dst]) for _, label, src, dst in self.edges())
        for src, label, dst in edge_rows:
            color = _DOT_COLORS[label % len(_DOT_COLORS)]
            lines.append(
                f'  {src} -> {dst} [label="{alphabet.letter_name(label + 1)}", color={color}];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


# -- builders ---------------------------------------------------------------------


def bouquet_of(gens: Iterable[Word], alphabet: Alphabet) -> LabeledGraph:
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
    gens = sorted(gens, key=len)
    if any(w.alphabet != alphabet for w in gens):
        raise ValueError("generators use mismatched alphabets")
    labels: list = []
    sources: list = []
    targets: list = []
    stride = 2 * alphabet.rank + 1  # a dart is keyed vertex * stride + signed letter
    laid: dict = {}  # dart -> far end of the first dart laid there
    next_vertex = 1

    def read(v, letters) -> tuple[int, int]:
        """How many of ``letters`` read from ``v``, and the vertex reached."""
        count = 0
        for letter in letters:
            w = laid.get(v * stride + letter)
            if w is None:
                break
            v = w
            count += 1
        return count, v

    def lay(v, letters, end=None) -> int:
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
                labels.append(letter - 1)
                sources.append(v)
                targets.append(w)
            else:
                labels.append(-letter - 1)
                sources.append(w)
                targets.append(v)
            laid.setdefault(v * stride + letter, w)
            laid.setdefault(w * stride - letter, v)
            v = w
        return v

    for w in gens:
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
    return LabeledGraph(alphabet.rank, next_vertex, labels, sources, targets, basepoint=0)


def based_product(g1: LabeledGraph, g2: LabeledGraph) -> LabeledGraph:
    """The component of the basepoint pair in the product of two graphs.

    A product vertex is a pair of factor vertices and a product edge a pair
    of equally labeled factor edges.  Only this one component is grown,
    from the basepoint pair outwards, numbering the pairs as the walk
    reaches them; the graph's ``projections`` are the pairs' two
    coordinates.  Both graphs must be properly labeled.
    """
    if not (g1.is_properly_labeled() and g2.is_properly_labeled()):
        raise ImproperLabelingError("the product needs properly labeled factors")
    slots1, sources1, targets1 = g1._slots, g1._sources, g1._targets
    slots2, sources2, targets2 = g2._slots, g2._sources, g2._targets
    width, n2 = 2 * g1.rank, g2.vertex_count
    left, right = [g1.basepoint], [g2.basepoint]
    number = {g1.basepoint * n2 + g2.basepoint: 0}  # v1 * n2 + v2 -> product vertex
    labels, sources, targets = [], [], []
    for v1, v2 in zip(left, right):  # the lists grow while walked
        i = number[v1 * n2 + v2]  # the int that the targets hold, not a copy of it
        base1, base2 = v1 * width, v2 * width
        for slot in range(width):
            e1 = slots1[base1 + slot]
            if e1 < 0:
                continue
            e2 = slots2[base2 + slot]
            if e2 < 0:
                continue
            if slot & 1:
                w1, w2 = sources1[e1], sources2[e2]
            else:
                w1, w2 = targets1[e1], targets2[e2]
            j = number.setdefault(w1 * n2 + w2, len(left))
            if j == len(left):
                left.append(w1)
                right.append(w2)
            if not slot & 1:  # each product edge is laid at its outgoing dart
                labels.append(slot >> 1)
                sources.append(i)
                targets.append(j)
    return LabeledGraph(g1.rank, len(left), labels, sources, targets, 0, (left, right))


# -- folding -----------------------------------------------------------------------


class FoldResult(namedtuple("FoldResult", "graph vertex_map edge_map")):
    """Folded graph plus the new number of each original vertex and edge,
    each map a sequence of ints."""

    __slots__ = ()


def fold_to_immersion(g: LabeledGraph) -> FoldResult:
    """Identify equally labeled edges sharing an endpoint until properly labeled.

    Each vertex root a fold touches keeps a table from dart slot to one
    edge, started from its dart slots and its clash list; a second edge of
    a slot the table holds is queued as a pair to identify.  Identifying a
    pair unions the two edges and their far ends, and merging two vertices
    pours the smaller table into the larger, queuing a pair for each slot
    both hold.  The queue starts at the graph's clashes, so the work grows
    with the identifications made, plus one rebuild when there is any.
    Disjoint-set partitions over vertices and edges record them, and
    number the classes by least member.  Any order of folds gives the same
    quotient.
    """
    slots, sources, targets, clashes = g._slots, g._sources, g._targets, g._clashes
    n, m, width = g.vertex_count, g.edge_count, 2 * g.rank
    if not clashes:
        return FoldResult(g, range(n), range(m))
    vparts, eparts = DisjointSet(n), DisjointSet(m)
    find_v, find_e = vparts.find, eparts.find  # hoisted: the loop is hot
    pairs: deque = deque()  # (held edge, edge to identify with it, slot at the shared end)
    darts: dict = {}  # root vertex -> slot -> edge

    def dart_table(v):
        table = darts.get(v)
        if table is None:  # v has absorbed nothing, so g's darts at v are all of them
            base = v * width
            table = darts[v] = {s: e for s, e in enumerate(slots[base : base + width]) if e >= 0}
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
        ends = sources if slot & 1 else targets  # the far ends of this kind of dart
        t1, t2 = find_v(ends[keep]), find_v(ends[drop])
        if t1 == t2:
            continue
        table1, table2 = dart_table(t1), dart_table(t2)
        if len(table1) < len(table2):
            t1, t2, table1, table2 = t2, t1, table2, table1
        vparts.union(t1, t2)
        del darts[t2]
        for slot, e in table2.items():
            held = table1.setdefault(slot, e)
            if held != e:
                pairs.append((held, e, slot))

    vertex_map, edge_map = vparts.numbering(), eparts.numbering()
    # one member of each edge class, in class order; all share one record
    kept = list(dict(zip(edge_map, range(m))).values())
    folded = LabeledGraph(
        g.rank,
        max(vertex_map) + 1,
        [g._labels[e] for e in kept],
        [vertex_map[sources[e]] for e in kept],
        [vertex_map[targets[e]] for e in kept],
        basepoint=None if g.basepoint is None else vertex_map[g.basepoint],
    )
    if folded._clashes:
        raise ImproperLabelingError("folding left two darts with one label and direction")
    return FoldResult(folded, vertex_map, edge_map)


def trim_to_core(g: LabeledGraph, *, keep_basepoint: bool = True) -> LabeledGraph:
    """Iteratively delete valence <= 1 vertices (never the kept basepoint).

    Returns ``g`` itself when nothing is cut and the basepoint stays, which
    graphs, being values, allow.
    """
    return _trimmed(g, g.basepoint if keep_basepoint else None)[0]


def _has_hair(degree: list, protected: int | None) -> bool:
    """Whether a vertex other than ``protected`` has valence <= 1."""
    return degree.count(0) + degree.count(1) > (protected is not None and degree[protected] <= 1)


def _trimmed(g: LabeledGraph, protected: int | None) -> tuple[LabeledGraph, Sequence[int]]:
    """:func:`trim_to_core` protecting ``protected`` (or no vertex), with
    the surviving vertices of ``g`` in order, core vertex ``i`` being the
    ``i``-th of them."""
    degree = g._degree
    if not _has_hair(degree, protected):
        return (g if protected == g.basepoint else g.with_basepoint(protected)), g.vertices
    queue = deque(v for v, d in enumerate(degree) if d <= 1 and v != protected)
    slots, clashes, sources, targets = g._slots, g._clashes, g._sources, g._targets
    width = 2 * g.rank
    degree = degree[:]
    dead = [False] * g.vertex_count
    dead_edge = [False] * g.edge_count
    while queue:
        v = queue.popleft()
        if dead[v] or degree[v] > 1:
            continue
        dead[v] = True
        for e in slots[v * width : (v + 1) * width] + [e for _, e in clashes.get(v, ())]:
            if e < 0 or dead_edge[e]:
                continue
            dead_edge[e] = True
            for endpoint in (sources[e], targets[e]):
                degree[endpoint] -= 1
                if not dead[endpoint] and degree[endpoint] <= 1 and endpoint != protected:
                    queue.append(endpoint)
    kept = [v for v in g.vertices if not dead[v]]
    return g.subgraph(kept, basepoint=protected), kept
