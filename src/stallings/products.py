"""Pairwise constructions on subgroup cores.

The vertex-pair product of two cores synchronizes every joint move: its
based component computes the intersection, its other positive-rank
components enumerate the conjugacy classes of intersections with
conjugates, and pushing the two cores out along any family of common
immersed subgraphs produces the quotient whose Euler characteristic
controls the join.

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

    K's core is walked from its basepoint in dart order, placing each of its
    vertices on a vertex of the growing graph, which starts as H's core.
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
    # subgroup cores are canonically numbered 0..n-1, so laid ids follow H's
    edges = dict(edge)
    next_vertex = gH.vertex_count
    laid: dict = {}  # (vertex, signed letter) -> far end of the first dart laid there
    place = {gK.basepoint: gH.basepoint}  # K vertex -> vertex of the graph read
    order = [gK.basepoint]
    done: set = set()  # K edges read
    for v in order:  # order grows while it is walked
        x = place[v]
        for letter, e, w in gK.darts(v):
            if e in done:
                continue
            done.add(e)
            label = abs(letter) - 1
            held = dart.get((x, label, OUT if letter > 0 else IN))
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
        folded = fold_to_immersion(self.graph).graph
        return trim_to_core(folded).canonical().graph


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
    sides = ((LEFT, gH), (RIGHT, gK))
    # tagged vertices and edges are coded by their rank in sorted order, so
    # numbering the classes by least member numbers them by least code
    vertices = [(side, v) for side, graph in sides for v in sorted(graph.vertices)]
    edges = [(side, *rest) for side, graph in sides for rest in sorted(graph.edges())]
    vertex_code = {tagged: code for code, tagged in enumerate(vertices)}
    edge_code = {(side, e): code for code, (side, e, _, _, _) in enumerate(edges)}
    vparts = DisjointSet(range(len(vertices)))
    eparts = DisjointSet(range(len(edges)))

    star_seeds = []
    for core in cores:
        for v in core.vertices:
            vH, vK = v
            left, right = (LEFT, vH), (RIGHT, vK)
            if left not in vertex_code or right not in vertex_code:
                raise ValueError(f"core vertex {v!r} does not project into both factors")
            vparts.union(vertex_code[left], vertex_code[right])
            if core.valence(v) == 3:
                star_seeds.append((left, right))
        for eid, label, src, dst in core.edges():
            eH, eK = eid
            for side_graph, e, s, d in (
                (gH, eH, src[0], dst[0]),
                (gK, eK, src[1], dst[1]),
            ):
                try:
                    got = side_graph.edge(e)
                except KeyError:
                    got = None
                if got != (label, s, d):
                    raise ValueError(
                        f"core edge {eid!r} does not commute with the projections"
                    )
            eparts.union(edge_code[LEFT, eH], edge_code[RIGHT, eK])

    find_v, find_e = vparts.find, eparts.find
    vertex_index: dict = {}  # vertex class root -> quotient vertex
    vertex_class = {
        tagged: vertex_index.setdefault(find_v(code), len(vertex_index))
        for code, tagged in enumerate(vertices)
    }
    edge_index: dict = {}  # edge class root -> quotient edge
    edge_class = {}
    quotient_edges: dict = {}  # quotient edge -> the record of its first member
    for code, (side, e, label, src, dst) in enumerate(edges):
        index = edge_class[side, e] = edge_index.setdefault(find_e(code), len(edge_index))
        record = (label, vertex_class[side, src], vertex_class[side, dst])
        if quotient_edges.setdefault(index, record) != record:
            raise ValueError("identified edges disagree on label or endpoints")

    basepoint = vertex_class[(LEFT, gH.basepoint)]
    graph = LabeledGraph(
        gH.rank, range(len(vertex_index)), quotient_edges, basepoint=basepoint
    )
    return PushoutResult(
        gH, gK, graph, vertex_class, edge_class, star_seeds=tuple(star_seeds)
    )


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


def _edge_groups(g: LabeledGraph, code: dict) -> dict:
    """label -> (source kinds, target kinds) -> [(edge, source code, target code)].

    A vertex's dart kinds form a bitmask over (label, direction); a
    basepoint counts as carrying every kind.
    """
    kinds = dict.fromkeys(g.vertices, 0)
    for _, label, src, dst in g.edges():
        kinds[src] |= 1 << (2 * label)
        kinds[dst] |= 2 << (2 * label)
    kinds[g.basepoint] = (1 << (2 * g.rank)) - 1
    groups: dict = defaultdict(lambda: defaultdict(list))
    for eid, label, src, dst in g.edges():
        groups[label][kinds[src], kinds[dst]].append((eid, code[src], code[dst]))
    return groups


def double_cosets(H: Subgroup, K: Subgroup) -> DoubleCosetDecomposition:
    """Positive-rank components of the product, trimmed to unbased cores.

    Each entry realizes one double coset whose conjugate meets the left
    factor nontrivially.  The based entry (when present) is listed first,
    then the rest in decreasing rank; entries of equal rank come in a
    deterministic but unspecified order.

    The components are found by union-find over label-matched edge pairs,
    so the full vertex-pair product is never built.  A product vertex's
    valence is the number of dart kinds its coordinates share; an edge
    pair with an endpoint of valence one lies on no cycle, and dropping
    it drops that endpoint too, so it is skipped without changing any
    component's rank.  The basepoint pair is never dropped this way.
    """
    if H.alphabet != K.alphabet:
        raise ValueError("alphabet mismatch")
    gH, gK = H.graph, K.graph
    # product vertex (vH, vK) is coded as index(vH) * width + index(vK)
    width = gK.vertex_count
    code_H = {v: i * width for i, v in enumerate(gH.vertices)}
    code_K = {v: i for i, v in enumerate(gK.vertices)}
    groups_H = _edge_groups(gH, code_H)
    groups_K = _edge_groups(gK, code_K)

    def matched_pairs():
        for label, by_kinds_H in groups_H.items():
            by_kinds_K = groups_K.get(label, {})
            for (a, b), edges_H in by_kinds_H.items():
                for (c, d), edges_K in by_kinds_K.items():
                    if (a & c).bit_count() < 2 or (b & d).bit_count() < 2:
                        continue
                    for eH, src, dst in edges_H:
                        for eK, src_K, dst_K in edges_K:
                            yield eH, eK, label, src + src_K, dst + dst_K

    parts = DisjointSet()
    closing = []  # an endpoint of each edge pair that closes a cycle
    for _, _, _, u, w in matched_pairs():
        parts.add(u)
        parts.add(w)
        if not parts.union(u, w):
            closing.append(u)
    if not closing:
        return DoubleCosetDecomposition(())

    cyclic = {parts.find(u) for u in closing}
    vertices_H, vertices_K = gH.vertices, gK.vertices

    def vertex(code: int) -> tuple:
        iH, iK = divmod(code, width)
        return (vertices_H[iH], vertices_K[iK])

    edges: dict = defaultdict(dict)
    for eH, eK, label, u, w in matched_pairs():
        root = parts.find(u)
        if root in cyclic:
            edges[root][eH, eK] = (label, vertex(u), vertex(w))
    base = code_H[gH.basepoint] + code_K[gK.basepoint]
    entries = []
    for members in parts.classes():
        root = parts.find(members[0])
        if root not in cyclic:
            continue
        piece = LabeledGraph(gH.rank, map(vertex, members), edges[root])
        core = trim_to_core(piece, keep_basepoint=False)
        rank = piece.edge_count - piece.vertex_count + 1
        entries.append(DoubleCosetEntry(core, rank, based=base in members))
    entries.sort(key=lambda entry: (not entry.based, -entry.rank))
    return DoubleCosetDecomposition(tuple(entries))
