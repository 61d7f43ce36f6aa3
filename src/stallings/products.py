"""Pairwise constructions on subgroup cores.

The vertex-pair product of two cores synchronizes every joint move: its
based component computes the intersection, its other positive-rank
components enumerate the conjugacy classes of intersections with
conjugates, and pushing the two cores out along any family of common
immersed subgraphs produces the quotient whose Euler characteristic
controls the join.  No construction here builds the whole product: the
meet grows the basepoint's component alone, and the double cosets read
the segments of one core between its branch vertices in the other.  The
join itself is folded from the bouquet of both generator lists, like any
subgroup; the fiber-class probe of :mod:`stallings.verify`, not the join,
reads each factor core's image in the join's core off their based product.

Throughout, a product graph is numbered densely like any other graph and
keeps its coordinates as two projection lists (``projections``): the left
and the right factor vertex of each product vertex.  A product edge is the
pair of factor edges that its label reads from its source's coordinates.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from collections.abc import Iterable

from .core import Subgroup, subgroup_graph
from .graphs import (
    DisjointSet,
    LabeledGraph,
    _trimmed,
    based_product,
    fold_to_immersion,
    trim_to_core,
)

LEFT = 0
RIGHT = 1


# -- meet -----------------------------------------------------------------------


def based_meet_core(H: Subgroup, K: Subgroup) -> LabeledGraph:
    """The intersection's core, basepoint kept, with the two factor
    vertices of each of its vertices as its ``projections``."""
    if H.alphabet != K.alphabet:
        raise ValueError("alphabet mismatch")
    return trim_to_core(based_product(H.graph, K.graph))


def intersection(H: Subgroup, K: Subgroup) -> Subgroup:
    """The meet, generated by a spanning-tree basis of its core."""
    return Subgroup.from_core(based_meet_core(H, K), H.alphabet)


# -- join -----------------------------------------------------------------------


def join(H: Subgroup, K: Subgroup) -> Subgroup:
    """The subgroup generated by both factors together: the fold of the
    bouquet of both generator lists."""
    if H.alphabet != K.alphabet:
        raise ValueError("alphabet mismatch")
    return subgroup_graph(H.generators + K.generators, H.alphabet)


# -- topological pushout ----------------------------------------------------------


class StarClassSummary(namedtuple("StarClassSummary", "count assignment by_quotient_vertex")):
    """Equivalence classes of 3-valent vertex stars under star identification.

    ``assignment`` holds a list per side, each vertex's class index (None
    unless 3-valent); ``by_quotient_vertex`` maps a quotient vertex to the
    class indices of the stars mapping onto it.
    """

    __slots__ = ()


class PushoutResult:
    """Quotient of the disjoint union of two cores along common subgraphs.

    Vertices and edges of the two sides are identified whenever some
    supplied core maps onto both at once; the quotient generally fails to
    be properly labeled, and folding it recovers the join's core.
    ``vertex_class[side][v]`` is the quotient vertex of vertex ``v`` of
    side ``side`` (:data:`LEFT` or :data:`RIGHT`).
    """

    __slots__ = ("left", "right", "graph", "vertex_class", "star_seeds", "_star_classes")

    def __init__(
        self,
        left: LabeledGraph,
        right: LabeledGraph,
        graph: LabeledGraph,
        vertex_class: tuple[list, list],
        star_seeds: tuple,
    ):
        self.left = left
        self.right = right
        self.graph = graph
        self.vertex_class = vertex_class
        # (left vertex, right vertex) pairs whose full stars a core identifies
        self.star_seeds = star_seeds
        self._star_classes: StarClassSummary | None = None

    @property
    def chi(self) -> int:
        return self.graph.chi

    def star_classes(self) -> StarClassSummary:
        """Partition the 3-valent stars by the identifications the cores force.

        A 3-valent core vertex maps its star bijectively onto a 3-valent
        star on each side, identifying the two in full; the classes are
        the transitive closure of those identifications.  A star no such
        vertex reaches stays a singleton, even when its darts happen to
        land on the same quotient edges as another star's.  Classes are
        numbered by their first member, left vertices before right ones.
        Computed once per pushout.
        """
        if self._star_classes is not None:
            return self._star_classes
        # a left vertex is coded by its number and a right one by its number
        # past the left's
        n_left = self.left.vertex_count
        stars = [v for v, d in enumerate(self.left._degree) if d == 3]
        stars += [n_left + v for v, d in enumerate(self.right._degree) if d == 3]
        element = {c: i for i, c in enumerate(stars)}  # 3-valent code -> union-find element
        parts = DisjointSet(len(stars))
        for u, v in self.star_seeds:
            a, b = element.get(u), element.get(n_left + v)
            if a is not None and b is not None:
                parts.union(a, b)
        assignment = ([None] * n_left, [None] * self.right.vertex_count)
        by_vertex: dict = defaultdict(set)
        classes = parts.numbering()
        for c, k in zip(stars, classes):
            side, v = (LEFT, c) if c < n_left else (RIGHT, c - n_left)
            assignment[side][v] = k
            by_vertex[self.vertex_class[side][v]].add(k)
        self._star_classes = StarClassSummary(
            count=max(classes, default=-1) + 1,
            assignment=assignment,
            by_quotient_vertex={z: tuple(sorted(s)) for z, s in by_vertex.items()},
        )
        return self._star_classes

    def special_vertices(self) -> list:
        """Quotient branch vertices with no branch vertex above them."""
        branched_under: set = set()
        for side, graph in ((LEFT, self.left), (RIGHT, self.right)):
            classes = self.vertex_class[side]
            branched_under.update(classes[v] for v, d in enumerate(graph._degree) if d >= 3)
        return [z for z, d in enumerate(self.graph._degree) if d >= 3 and z not in branched_under]

    def valence_bound_violations(self) -> list:
        """Branch vertices whose valence exceeds 2 + (star classes above)."""
        stars = self.star_classes()
        out = []
        for z, valence in enumerate(self.graph._degree):
            if valence >= 3:
                allowed = 2 + len(stars.by_quotient_vertex.get(z, ()))
                if valence > allowed:
                    out.append((z, valence, allowed))
        return out

    def loop_quotient_edges(self) -> list:
        """Quotient edges with equal endpoints (an edge failing to embed)."""
        return [e for e, _, src, dst in self.graph.edges() if src == dst]

    def folded_core(self) -> LabeledGraph:
        """Fold and trim the quotient; lands on the join's core.  A pushout
        along no cores is disconnected, and ``canonical()`` refuses it."""
        return trim_to_core(fold_to_immersion(self.graph).graph).canonical().graph

    def refolds_to(self, core: LabeledGraph) -> bool:
        """Whether :meth:`folded_core` equals the canonical subgroup core
        ``core``, checked on one walk of the folded quotient."""
        g = trim_to_core(fold_to_immersion(self.graph).graph)
        _, order, edges = g._walk_from(g.basepoint)
        return (len(order) == g.vertex_count == core.vertex_count and g.rank == core.rank
                and core.basepoint == 0
                and edges == (core._labels, core._sources, core._targets))


def topological_pushout(
    H: Subgroup, K: Subgroup, cores: Iterable[LabeledGraph]
) -> PushoutResult:
    """Quotient the two cores along core graphs with product projections.

    Each supplied core's ``projections`` give its two immersions, into H's
    core and into K's; each of its edges must read, from the coordinates
    of its source, a factor edge to the coordinates of its target.
    Supplying the based meet core yields the join-controlling quotient;
    supplying every positive-rank product component tightens it further.
    """
    if H.alphabet != K.alphabet:
        raise ValueError("alphabet mismatch")
    gH, gK = H.graph, K.graph
    # a left vertex or edge is coded by its number and a right one by its
    # number past the left's
    n_H, m_H, width = gH.vertex_count, gH.edge_count, 2 * gH.rank
    slots_H, targets_H, slots_K, targets_K = gH._slots, gH._targets, gK._slots, gK._targets
    vparts = DisjointSet(n_H + gK.vertex_count)
    eparts = DisjointSet(m_H + gK.edge_count)
    star_seeds = []
    for core in cores:
        if core.projections is None:
            raise ValueError("a pushout core needs product projections")
        left, right = core.projections
        if left and not (0 <= min(left) <= max(left) < n_H
                         and 0 <= min(right) <= max(right) < gK.vertex_count):
            raise ValueError("a core vertex does not project into both factors")
        for vH, vK, d in zip(left, right, core._degree):
            vparts.union(vH, n_H + vK)
            if d == 3:
                star_seeds.append((vH, vK))
        for eid, label, src, dst in core.edges():
            eH = slots_H[left[src] * width + 2 * label]
            eK = slots_K[right[src] * width + 2 * label]
            if eH < 0 or eK < 0 or targets_H[eH] != left[dst] or targets_K[eK] != right[dst]:
                raise ValueError(f"core edge {eid!r} does not commute with the projections")
            eparts.union(eH, m_H + eK)

    # each code's class, numbered by least code
    vertex_index, edge_index = vparts.numbering(), eparts.numbering()
    left, right = vertex_index[:n_H], vertex_index[n_H:]
    # each edge's record in quotient vertices, by code: label, source, target
    records = (
        gH._labels + gK._labels,
        list(map(left.__getitem__, gH._sources)) + list(map(right.__getitem__, gK._sources)),
        list(map(left.__getitem__, gH._targets)) + list(map(right.__getitem__, gK._targets)),
    )
    member = list(dict(zip(edge_index, range(len(edge_index)))).values())  # one per class, in order
    labels, sources, targets = ([column[e] for e in member] for column in records)
    for column, quotient in zip(records, (labels, sources, targets)):
        if list(map(quotient.__getitem__, edge_index)) != column:
            raise ValueError("identified edges disagree on label or endpoints")
    graph = LabeledGraph(
        gH.rank, max(vertex_index) + 1, labels, sources, targets, basepoint=left[gH.basepoint]
    )
    return PushoutResult(gH, gK, graph, (left, right), tuple(star_seeds))


# -- double cosets -----------------------------------------------------------------


class DoubleCosetEntry(namedtuple("DoubleCosetEntry", "core rank based")):
    """One conjugacy class of nontrivial intersection with a conjugate: its
    core (unbased, with product projections), its rank, and whether this
    component holds the pair of basepoints."""

    __slots__ = ()


class DoubleCosetDecomposition(namedtuple("DoubleCosetDecomposition", "entries")):
    """The tuple of :class:`DoubleCosetEntry` of a pair."""

    __slots__ = ()

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(entry.rank for entry in self.entries)


class ReadBudgetError(ValueError):
    """:func:`double_cosets` read more than :data:`READ_BUDGET` letters."""


#: Letters :func:`double_cosets` may read before it refuses a pair, each
#: lift held and each product edge laid counting as :data:`HELD_WEIGHT`
#: letters.  A held lift takes about 150 bytes and a laid edge, with the
#: graphs built on it, about 750, so the budget bounds memory as well as
#: time: of the kernels of F2 -> Z/n, the pair nearest the limit (n = 470)
#: peaks at about 400 MB.  The most counted for one pair of ``fuzz --count
#: 2000 --seed 0`` (either mode), ``corpus`` or either benchmark workload is
#: about 7,000, and 1.43M for the self pair of three 3,000-letter
#: generators.  A refused pair is an error, never a verdict.
READ_BUDGET = 30_000_000
HELD_WEIGHT = 32


def _over_budget() -> ReadBudgetError:
    return ReadBudgetError(
        f"double cosets read more than {READ_BUDGET} letters (a held lift or a "
        f"laid edge counting as {HELD_WEIGHT}); the pair is too large to decompose"
    )


def _segments(g: LabeledGraph) -> list:
    """The maximal segments of ``g``'s unbased core between branch vertices.

    The stem of an extremal basepoint is dropped first, though segments
    are given in ``g``'s own numbering.  A segment is
    ``(start, end, slots)``, read from ``start`` by taking, for each slot
    in turn, the dart in that slot to its far end.  Each segment is listed
    once, from one end, the segments at an end in slot order.  A core that
    is a circle is one segment, from and to its first vertex.
    """
    kept = g.vertices  # the core's vertex i is g's kept[i]
    if g.basepoint is not None and g.valence(g.basepoint) <= 1:
        g, kept = _trimmed(g, None)
    slots, far, width = g._slots, (g._targets, g._sources), 2 * g.rank
    is_end = [d >= 3 for d in g._degree]
    ends = [v for v in g.vertices if is_end[v]]
    if not ends and g.vertex_count:  # a circle
        ends = [0]
        is_end[0] = True
    taken = [False] * g.edge_count
    segments = []
    for x in ends:
        for first in range(width):
            e = slots[x * width + first]
            if e < 0 or taken[e]:
                continue
            keys = []
            slot = first
            while True:
                taken[e] = True
                here = far[slot & 1][e]
                keys.append(slot)
                if is_end[here]:
                    break
                # a vertex inside a segment has two darts and no loop: leave
                # by the one that is not the dart e arrived by
                back = slot ^ 1
                for slot in range(width):
                    e = slots[here * width + slot]
                    if e >= 0 and slot != back:
                        break
            segments.append((kept[x], kept[here], tuple(keys)))
    return segments


def double_cosets(
    H: Subgroup, K: Subgroup, meet_core: LabeledGraph | None = None
) -> DoubleCosetDecomposition:
    """Positive-rank components of the product, trimmed to unbased cores.

    Each entry realizes one double coset whose conjugate meets the left
    factor nontrivially; its core keeps the two coordinates of each vertex
    as ``projections``.  The based entry (when present) is listed first,
    then the rest in decreasing rank; entries of equal rank come in a
    deterministic but unspecified order.  ``meet_core``, when given, must be
    :func:`based_meet_core` of the pair; it marks the based entry, and is
    computed here otherwise.

    An immersed closed loop in a core with a branch vertex passes through
    one (Stallings, *Topology of finite graphs*, 1983), and where a product
    core passes a vertex inside a segment of one factor's core it carries
    the whole segment.  So the product cores are the cores of the graph of
    full segment lifts.  One factor's unbased core is cut into segments,
    and each segment is read once in the other factor, starting at every
    edge that carries its first letter.  Each segment read in full joins
    the (branch vertex, vertex reached) pairs at its two ends in a
    union-find; the components that close a cycle are laid out edge by
    edge and trimmed.  The side read is the one with the smaller rank ×
    (other side's vertex count).  Raises :class:`ReadBudgetError` once the
    letters read, lifts held and edges to lay pass :data:`READ_BUDGET`; the
    layout is counted before it is laid.
    """
    if H.alphabet != K.alphabet:
        raise ValueError("alphabet mismatch")
    if meet_core is None:
        meet_core = based_meet_core(H, K)
    gH, gK = H.graph, K.graph
    swap = K.rank * gH.vertex_count < H.rank * gK.vertex_count
    reader, target = (gK, gH) if swap else (gH, gK)
    width, n_target = 2 * gH.rank, target.vertex_count
    slots, ends = target._slots, (target._targets, target._sources)
    by_label: dict = defaultdict(list)  # label -> target edges as (src, dst)
    for _, label, src, dst in target.edges():
        by_label[label].append((src, dst))

    element: dict = {}  # x * n_target + y -> union-find element of the pair (x, y)
    lifts = []  # (segment, first target vertex, the elements of its ends) per full read
    read = 0
    for segment in _segments(reader):
        x0, x1, keys = segment
        first, rest = keys[0], keys[1:]
        for src, dst in by_label[first >> 1]:
            y0, y = (dst, src) if first & 1 else (src, dst)
            for i, slot in enumerate(rest):
                e = slots[y * width + slot]
                if e < 0:
                    read += i + 2
                    break
                y = ends[slot & 1][e]
            else:
                read += len(keys) + HELD_WEIGHT
                a = element.setdefault(x0 * n_target + y0, len(element))
                b = element.setdefault(x1 * n_target + y, len(element))
                lifts.append((segment, y0, a, b))
            if read > READ_BUDGET:
                raise _over_budget()
    parts = DisjointSet(len(element))
    closing = [a for _, _, a, b in lifts if not parts.union(a, b)]  # each closes a cycle
    if not closing:
        return DoubleCosetDecomposition(())

    find = parts.find
    cyclic = {find(a) for a in closing}
    # the layout is counted before it is laid
    laid = sum(len(keys) for (_, _, keys), _, a, _ in lifts if find(a) in cyclic)
    if read + HELD_WEIGHT * laid > READ_BUDGET:
        raise _over_budget()
    slots_r, ends_r = reader._slots, (reader._targets, reader._sources)
    n_K = gK.vertex_count
    pieces: dict = defaultdict(list)  # component root -> product edges as (label, src, dst) codes
    for (x, _, keys), y, a, _ in lifts:
        root = find(a)
        if root not in cyclic:
            continue
        edges = pieces[root]
        for slot in keys:
            x_next = ends_r[slot & 1][slots_r[x * width + slot]]
            y_next = ends[slot & 1][slots[y * width + slot]]
            # a product vertex is coded as left vertex * n_K + right vertex
            if swap:
                near, far = y * n_K + x, y_next * n_K + x_next
            else:
                near, far = x * n_K + y, x_next * n_K + y_next
            edges.append((slot >> 1, far, near) if slot & 1 else (slot >> 1, near, far))
            x, y = x_next, y_next

    anchor = None  # a vertex of the based entry's core, as its coordinates
    if meet_core.edge_count >= meet_core.vertex_count:
        v = next((v for v in meet_core.vertices if meet_core.valence(v) >= 3), meet_core.basepoint)
        anchor = (meet_core.projections[0][v], meet_core.projections[1][v])
    entries = []
    for edges in pieces.values():
        codes = sorted({c for _, src, dst in edges for c in (src, dst)})
        number = {c: i for i, c in enumerate(codes)}
        piece = LabeledGraph(
            gH.rank,
            len(codes),
            [label for label, _, _ in edges],
            [number[src] for _, src, _ in edges],
            [number[dst] for _, _, dst in edges],
            projections=([c // n_K for c in codes], [c % n_K for c in codes]),
        )
        core = trim_to_core(piece, keep_basepoint=False)
        rank = piece.edge_count - piece.vertex_count + 1
        entries.append(DoubleCosetEntry(core, rank, based=anchor in zip(*core.projections)))
    entries.sort(key=lambda entry: (
        not entry.based, -entry.rank, entry.core.projections[0][0], entry.core.projections[1][0]
    ))
    return DoubleCosetDecomposition(tuple(entries))
