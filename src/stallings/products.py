"""Pairwise constructions on subgroup cores.

The vertex-pair product of two cores synchronizes every joint move: its
based component computes the intersection, its other positive-rank
components enumerate the conjugacy classes of intersections with
conjugates, and pushing the two cores out along any family of common
immersed subgraphs produces the quotient whose Euler characteristic
controls the join.  No construction here builds the whole product: the
meet grows the basepoint's component alone, and the double cosets read
the segments of one core between its branch vertices in the other.

Throughout, product vertices are coordinate pairs (left vertex, right
vertex) and product edges are pairs (left edge, right edge); the
projection maps are literally the coordinate projections.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from .core import Subgroup, _from_core_form
from .graphs import (
    IN,
    OUT,
    DisjointSet,
    LabeledGraph,
    based_product,
    fold_to_immersion,
    trim_to_core,
)

LEFT = 0
RIGHT = 1


# -- meet -----------------------------------------------------------------------


def based_meet_core(H: Subgroup, K: Subgroup) -> LabeledGraph:
    """The intersection's core in product coordinates (basepoint kept)."""
    if H.alphabet != K.alphabet:
        raise ValueError("alphabet mismatch")
    return trim_to_core(based_product(H.graph, K.graph))


def intersection(H: Subgroup, K: Subgroup) -> Subgroup:
    """The meet, generated by a spanning-tree basis of its core."""
    return Subgroup.from_core(based_meet_core(H, K), H.alphabet)


# -- join -----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class JoinResult:
    subgroup: Subgroup
    # factor core vertex -> canonical join core vertex (None when trimmed away)
    left_vertex_map: dict
    right_vertex_map: dict


def join_with_maps(H: Subgroup, K: Subgroup) -> JoinResult:
    """Read K's core into H's, fold, trim, canonicalize.

    K's core is walked from its basepoint, placing each of its vertices on a
    vertex of the growing graph, which starts as H's core.
    Each K edge is read, once, from the image of its near end: along H's
    darts, then along the darts laid so far.  An edge is laid only where
    that reading fails or reaches a vertex other than the far end's image,
    and a vertex only where the far end is not placed yet.  Every reading
    identifies two equally labeled darts at one vertex, so the graph read is
    a fold-quotient of the two cores wedged at their basepoints and folds to
    the same core, with only the clashes reading could not resolve.
    """
    if H.alphabet != K.alphabet:
        raise ValueError("alphabet mismatch")
    gH, gK = H.graph, K.graph
    dart, edge = gH._dart, gH._edge
    out_K, in_K, edge_K = gK._out, gK._in, gK._edge
    # subgroup cores are canonically numbered 0..n-1, so laid ids follow H's
    edges = dict(edge)
    next_vertex = gH.vertex_count
    laid: dict = {}  # (vertex, signed letter) -> far end of the first dart laid there
    place = {gK.basepoint: gH.basepoint}  # K vertex -> vertex of the graph read
    order = [gK.basepoint]
    done: set = set()  # K edges read
    for v in order:  # order grows while it is walked
        x = place[v]
        # K's stars come off its edge lists: walking darts() would keep every
        # star of K cached for the life of the subgroup
        for e, direction in [(e, OUT) for e in out_K[v]] + [(e, IN) for e in in_K[v]]:
            if e in done:
                continue
            done.add(e)
            label, src, dst = edge_K[e]
            w, letter = (dst, label + 1) if direction == OUT else (src, -label - 1)
            held = dart.get((x, label, direction))
            y = laid.get((x, letter)) if held is None else edge[held][2 if letter > 0 else 1]
            z = place.get(w)
            if z is None:
                order.append(w)
                if y is not None:
                    place[w] = y
                    continue
                z = place[w] = next_vertex
                next_vertex += 1
            elif z == y:
                continue
            edges[len(edges)] = (label, x, z) if letter > 0 else (label, z, x)
            laid.setdefault((x, letter), z)
            laid.setdefault((z, -letter), x)
    read = LabeledGraph(gH.rank, range(next_vertex), edges, basepoint=gH.basepoint)
    folded = fold_to_immersion(read)
    core = trim_to_core(folded.graph)
    sub, canon = _from_core_form(core, H.alphabet, H.generators + K.generators)
    image, fold = canon.vertex_map.get, folded.vertex_map
    return JoinResult(
        sub,
        {v: image(fold[v]) for v in gH.vertices},
        {v: image(fold[place[v]]) for v in gK.vertices},
    )


def join(H: Subgroup, K: Subgroup) -> Subgroup:
    """The subgroup generated by both factors together."""
    return join_with_maps(H, K).subgroup


# -- topological pushout ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class StarClassSummary:
    """Equivalence classes of 3-valent vertex stars under star identification."""

    count: int
    # tagged (side, vertex) -> class index
    assignment: dict
    # class index -> tagged members
    members: tuple[tuple, ...]
    # quotient vertex -> class indices of the stars mapping onto it
    by_quotient_vertex: dict


class PushoutResult:
    """Quotient of the disjoint union of two cores along common subgraphs.

    Vertices and edges of the two sides are identified whenever some
    supplied core maps onto both at once; the quotient generally fails to
    be properly labeled, and folding it recovers the join's core.
    """

    def __init__(
        self,
        left: LabeledGraph,
        right: LabeledGraph,
        graph: LabeledGraph,
        vertex_class: dict,
        edge_class: dict,
        star_seeds: tuple = (),
    ):
        self.left = left
        self.right = right
        self.graph = graph
        self.vertex_class = vertex_class  # (side, vertex) -> quotient vertex
        self.edge_class = edge_class  # (side, edge) -> quotient edge
        # ((LEFT, u), (RIGHT, v)) pairs whose full stars a core identifies
        self.star_seeds = star_seeds
        self._star_classes: StarClassSummary | None = None

    @property
    def chi(self) -> int:
        return self.graph.chi

    def _sides(self):
        yield LEFT, self.left
        yield RIGHT, self.right

    def star_classes(self) -> StarClassSummary:
        """Partition the 3-valent stars by the identifications the cores force.

        A 3-valent core vertex maps its star bijectively onto a 3-valent
        star on each side, identifying the two in full; the classes are
        the transitive closure of those identifications.  A star no such
        vertex reaches stays a singleton, even when its darts happen to
        land on the same quotient edges as another star's.  Computed once
        per pushout.
        """
        if self._star_classes is not None:
            return self._star_classes
        parts = DisjointSet()
        for side, graph in self._sides():
            for v in graph.vertices:
                if graph.valence(v) == 3:
                    parts.add((side, v))
        for a, b in self.star_seeds:
            if a in parts.parent and b in parts.parent:
                parts.union(a, b)
        assignment = {}
        members = []
        for index, tagged_list in enumerate(sorted(parts.classes())):
            members.append(tuple(tagged_list))
            for tagged in tagged_list:
                assignment[tagged] = index
        by_vertex: dict = defaultdict(set)
        for tagged, index in assignment.items():
            by_vertex[self.vertex_class[tagged]].add(index)
        self._star_classes = StarClassSummary(
            count=len(members),
            assignment=assignment,
            members=tuple(members),
            by_quotient_vertex={z: tuple(sorted(s)) for z, s in by_vertex.items()},
        )
        return self._star_classes

    def special_vertices(self) -> list:
        """Quotient branch vertices with no branch vertex above them."""
        out = []
        branched_under: set = set()
        for side, graph in self._sides():
            for v in graph.vertices:
                if graph.valence(v) >= 3:
                    branched_under.add(self.vertex_class[(side, v)])
        for z in self.graph.vertices:
            if self.graph.valence(z) >= 3 and z not in branched_under:
                out.append(z)
        return out

    def valence_bound_violations(self) -> list:
        """Branch vertices whose valence exceeds 2 + (star classes above)."""
        stars = self.star_classes()
        out = []
        for z in self.graph.vertices:
            valence = self.graph.valence(z)
            if valence >= 3:
                allowed = 2 + len(stars.by_quotient_vertex.get(z, ()))
                if valence > allowed:
                    out.append((z, valence, allowed))
        return out

    def loop_quotient_edges(self) -> list:
        """Quotient edges with equal endpoints (an edge failing to embed)."""
        return [e for e, _, src, dst in self.graph.edges() if src == dst]

    def folded_core(self) -> LabeledGraph:
        """Fold and trim the quotient; lands on the join's core."""
        return trim_to_core(fold_to_immersion(self.graph).graph).canonical().graph

    def refolds_to(self, core: LabeledGraph) -> bool:
        """Whether :meth:`folded_core` equals the canonical subgroup core
        ``core``, checked on one walk of the folded quotient."""
        g = trim_to_core(fold_to_immersion(self.graph).graph)
        number, edges, _ = g._walk_from(g.basepoint)
        return (len(number) == g.vertex_count == core.vertex_count and g.rank == core.rank
                and core.basepoint == 0 and edges == core._edge)


def topological_pushout(
    H: Subgroup, K: Subgroup, cores: Iterable[LabeledGraph]
) -> PushoutResult:
    """Quotient the two cores along product-coordinate core graphs.

    Each supplied core must have vertex pairs / edge pairs for identifiers,
    its coordinates giving the two immersions.  Supplying the based meet
    core yields the join-controlling quotient; supplying every
    positive-rank product component tightens it further.
    """
    if H.alphabet != K.alphabet:
        raise ValueError("alphabet mismatch")
    gH, gK = H.graph, K.graph
    # subgroup cores are canonically numbered, so a left vertex or edge is
    # coded by its id and a right one by its id past the left's
    n_H, m_H = gH.vertex_count, gH.edge_count
    vparts, eparts = DisjointSet(), DisjointSet()
    star_seeds = []
    for core in cores:
        for v in core.vertices:
            vH, vK = v
            if not (gH.has_vertex(vH) and gK.has_vertex(vK)):
                raise ValueError(f"core vertex {v!r} does not project into both factors")
            vparts.union(vH, n_H + vK)
            if core.valence(v) == 3:
                star_seeds.append(((LEFT, vH), (RIGHT, vK)))
        for eid, label, src, dst in core.edges():
            eH, eK = eid
            if (
                gH._edge.get(eH) != (label, src[0], dst[0])
                or gK._edge.get(eK) != (label, src[1], dst[1])
            ):
                raise ValueError(f"core edge {eid!r} does not commute with the projections")
            eparts.union(eH, m_H + eK)

    def classes(parts, count):
        """Each code's class, numbered in code order (so by least code)."""
        parent, find, index = parts.parent, parts.find, {}
        return [index.setdefault(find(c) if c in parent else c, len(index)) for c in range(count)]

    vertex_index = classes(vparts, n_H + gK.vertex_count)
    edge_index = classes(eparts, m_H + gK.edge_count)
    vertex_class, edge_class = {}, {}
    quotient_edges: dict = {}  # quotient edge -> the record of its first member
    for side, graph, n, m in ((LEFT, gH, 0, 0), (RIGHT, gK, n_H, m_H)):
        for v in range(graph.vertex_count):
            vertex_class[side, v] = vertex_index[n + v]
        for e in range(graph.edge_count):
            label, src, dst = graph._edge[e]
            index = edge_class[side, e] = edge_index[m + e]
            record = (label, vertex_index[n + src], vertex_index[n + dst])
            if quotient_edges.setdefault(index, record) != record:
                raise ValueError("identified edges disagree on label or endpoints")

    basepoint = vertex_class[LEFT, gH.basepoint]
    graph = LabeledGraph(gH.rank, range(max(vertex_index) + 1), quotient_edges, basepoint=basepoint)
    return PushoutResult(gH, gK, graph, vertex_class, edge_class, star_seeds=tuple(star_seeds))


# -- double cosets -----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DoubleCosetEntry:
    """One conjugacy class of nontrivial intersection with a conjugate."""

    core: LabeledGraph  # unbased, product coordinates
    rank: int
    based: bool  # whether this component holds the pair of basepoints


@dataclass(frozen=True, slots=True)
class DoubleCosetDecomposition:
    entries: tuple[DoubleCosetEntry, ...]

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

    The stem of an extremal basepoint is dropped first.  A segment is
    ``(start, end, keys)``, read from ``start`` by taking the dart
    ``(label, direction)`` of each key in turn to the far end, whose index
    in an edge record the key's third item gives.  Each segment is listed
    once, from one end.  A core that is a circle is one segment, from and
    to its first vertex.
    """
    if g.basepoint is not None and g.valence(g.basepoint) <= 1:
        g = trim_to_core(g, keep_basepoint=False)
    edge, out, inc = g._edge, g._out, g._in
    ends = [v for v in g.vertices if len(out[v]) + len(inc[v]) >= 3] or list(g.vertices[:1])
    is_end = set(ends)
    taken: set = set()
    segments = []
    for x in ends:
        for first in [(e, OUT) for e in out[x]] + [(e, IN) for e in inc[x]]:
            if first[0] in taken:
                continue
            keys = []
            e, direction = first
            while True:
                taken.add(e)
                label, src, dst = edge[e]
                if direction == OUT:
                    here = dst
                    keys.append((label, OUT, 2))
                else:
                    here = src
                    keys.append((label, IN, 1))
                if here in is_end:
                    break
                # a vertex inside a segment has two darts and no loop: leave by
                # the one that is not e's, keeping direction if it can
                onward, back = (out[here], inc[here]) if direction == OUT else (inc[here], out[here])
                if onward:
                    e = onward[0]
                else:
                    e = back[1] if back[0] == e else back[0]
                    direction = -direction
            segments.append((x, here, tuple(keys)))
    return segments


def double_cosets(
    H: Subgroup, K: Subgroup, meet_core: LabeledGraph | None = None
) -> DoubleCosetDecomposition:
    """Positive-rank components of the product, trimmed to unbased cores.

    Each entry realizes one double coset whose conjugate meets the left
    factor nontrivially.  The based entry (when present) is listed first,
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
    dart, edge = target._dart, target._edge
    by_label: dict = defaultdict(list)  # label -> target edges as (id, src, dst)
    for e, (label, src, dst) in edge.items():
        by_label[label].append((e, src, dst))

    parts = DisjointSet()
    closing = []  # an end of each lift that closes a cycle
    lifts = []  # (segment, first target vertex) of every segment read in full
    read = 0
    for segment in _segments(reader):
        x0, x1, keys = segment
        (first, forwards, _), rest = keys[0], keys[1:]
        for _, src, dst in by_label[first]:
            y0, y = (src, dst) if forwards == OUT else (dst, src)
            for i, (label, direction, far) in enumerate(rest):
                e = dart.get((y, label, direction))
                if e is None:
                    read += i + 2
                    break
                y = edge[e][far]
            else:
                read += len(keys) + HELD_WEIGHT
                a = (x0, y0)
                if not parts.union(a, (x1, y)):
                    closing.append(a)
                lifts.append((segment, y0))
            if read > READ_BUDGET:
                raise _over_budget()
    if not closing:
        return DoubleCosetDecomposition(())

    find = parts.find
    cyclic = {find(a) for a in closing}
    # the layout is counted before it is laid
    laid = sum(len(keys) for (x, _, keys), y in lifts if find((x, y)) in cyclic)
    if read + HELD_WEIGHT * laid > READ_BUDGET:
        raise _over_budget()
    pieces: dict = defaultdict(dict)  # component root -> product edge -> record
    for (x, _, keys), y in lifts:
        root = find((x, y))
        if root not in cyclic:
            continue
        edges = pieces[root]
        for label, direction, far in keys:
            ex, ey = reader._dart[x, label, direction], dart[y, label, direction]
            x_next, y_next = reader._edge[ex][far], edge[ey][far]
            near, far_end = (x, y), (x_next, y_next)
            if swap:
                near, far_end, ex, ey = near[::-1], far_end[::-1], ey, ex
            edges[ex, ey] = (label, near, far_end) if direction == OUT else (label, far_end, near)
            x, y = x_next, y_next

    anchor = None  # a vertex of the based entry's core
    if meet_core.edge_count >= meet_core.vertex_count:
        anchor = next(
            (v for v in meet_core.vertices if meet_core.valence(v) >= 3), meet_core.basepoint
        )
    entries = []
    for edges in pieces.values():
        vertices = sorted({v for _, src, dst in edges.values() for v in (src, dst)})
        piece = LabeledGraph(gH.rank, vertices, edges)
        core = trim_to_core(piece, keep_basepoint=False)
        rank = piece.edge_count - piece.vertex_count + 1
        entries.append(DoubleCosetEntry(core, rank, based=core.has_vertex(anchor)))
    entries.sort(key=lambda entry: (not entry.based, -entry.rank, entry.core.vertices[0]))
    return DoubleCosetDecomposition(tuple(entries))
