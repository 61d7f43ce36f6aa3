"""Shared fixtures: the worked figure pair and some frequently used subgroups."""

import random
from collections import defaultdict

import pytest

from stallings import (
    RANK2,
    DoubleCosetDecomposition,
    DoubleCosetEntry,
    LabeledGraph,
    TrivialIntersectionError,
    based_meet_core,
    subgroup_graph,
    three_regularize,
    trim_to_core,
)
from stallings.graphs import CanonicalForm, DisjointSet, based_product
from stallings.verify import _stem_word


# The hand-checked pair whose meet core wraps once around a long loop while
# the join fills the whole rank-2 group.
FIGURE_LEFT = ("aBBa", "abbAABA", "ABaba")
FIGURE_RIGHT = ("aaba", "abbbbaaBBA")
FIGURE_MEET_WORD = "abbAABBBBaba"


def make(*texts):
    """Rank-2 subgroup from word texts."""
    return subgroup_graph([RANK2.word(t) for t in texts], RANK2)


def wedge(g1, g2):
    """Glue two based graphs at their basepoints, with vertex maps from each
    factor into the wedge: the textbook first step of a join, kept as an
    oracle for the join, which reads one core into the other instead."""
    if g1.basepoint is None or g2.basepoint is None:
        raise ValueError("wedge requires basepoints on both factors")
    if g1.rank != g2.rank:
        raise ValueError("rank mismatch in wedge")
    map1 = {v: (0, v) for v in g1.vertices}
    map2 = {v: ((0, g1.basepoint) if v == g2.basepoint else (1, v)) for v in g2.vertices}
    vertices = list(map1.values()) + [map2[v] for v in g2.vertices if v != g2.basepoint]
    edges = {}
    for eid, label, src, dst in g1.edges():
        edges[(0, eid)] = (label, map1[src], map1[dst])
    for eid, label, src, dst in g2.edges():
        edges[(1, eid)] = (label, map2[src], map2[dst])
    graph = LabeledGraph(g1.rank, vertices, edges, basepoint=(0, g1.basepoint))
    return graph, map1, map2


def sorted_canonical(graph, *, based=True):
    """The canonical form by sorting: number each component by a BFS over
    its sorted darts (from the anchor, or from the start with the least
    sorted edge code), order the components by anchor and code, then sort
    every edge by its renumbered (source, label, target).  Kept as an oracle
    for ``LabeledGraph.canonical``, which emits the edges in that order from
    one walk over the dart index."""

    def encode(start):
        number = {start: 0}
        order = [start]
        for v in order:
            for _, _, w in graph.darts(v):
                if w not in number:
                    number[w] = len(order)
                    order.append(w)
        code = sorted((number[s], label, number[d]) for _, label, s, d in graph.edges() if s in number)
        return number, tuple(code)

    anchor = graph.basepoint if based else None
    encoded = []
    for comp in graph.components():
        is_based = anchor is not None and anchor in comp
        starts = [anchor] if is_based else comp
        number, code = min(map(encode, starts), key=lambda t: t[1])
        encoded.append(((not is_based, code), number))
    encoded.sort(key=lambda t: t[0])
    vertex_map = {}
    for _, number in encoded:
        offset = len(vertex_map)
        for v, i in number.items():
            vertex_map[v] = offset + i
    ordered = sorted((vertex_map[s], label, vertex_map[d], e) for e, label, s, d in graph.edges())
    edges = {k: (label, s, d) for k, (s, label, d, _) in enumerate(ordered)}
    edge_map = {e: k for k, (_, _, _, e) in enumerate(ordered)}
    bp = vertex_map[graph.basepoint] if based and graph.basepoint is not None else None
    canon = LabeledGraph(graph.rank, range(len(vertex_map)), edges, basepoint=bp)
    return CanonicalForm(canon, vertex_map, edge_map)


def matched_pair_double_cosets(H, K):
    """The double cosets by union-find over every label-matched edge pair of
    the two cores, each pair being a product edge: the components that
    close a cycle, trimmed to unbased cores.  Kept as an oracle for the
    decomposition, which reads segments between branch vertices instead."""
    gH, gK = H.graph, K.graph
    matched = [
        ((eH, eK), label, (sH, sK), (dH, dK))
        for eH, label, sH, dH in gH.edges()
        for eK, label_K, sK, dK in gK.edges()
        if label == label_K
    ]
    parts = DisjointSet()
    closing = []
    for _, _, u, w in matched:
        parts.add(u)
        parts.add(w)
        if not parts.union(u, w):
            closing.append(u)
    cyclic = {parts.find(u) for u in closing}
    pieces = defaultdict(dict)
    for eid, label, u, w in matched:
        if parts.find(u) in cyclic:
            pieces[parts.find(u)][eid] = (label, u, w)
    base = (gH.basepoint, gK.basepoint)
    entries = []
    for root, edges in pieces.items():
        vertices = sorted({v for _, u, w in edges.values() for v in (u, w)})
        piece = LabeledGraph(gH.rank, vertices, edges)
        rank = piece.edge_count - piece.vertex_count + 1
        based = base in parts.parent and parts.find(base) == root
        entries.append(DoubleCosetEntry(trim_to_core(piece, keep_basepoint=False), rank, based))
    entries.sort(key=lambda entry: (not entry.based, -entry.rank))
    return DoubleCosetDecomposition(tuple(entries))


def _has_extremal_vertex(graph):
    return any(graph.valence(v) <= 1 for v in graph.vertices)


def stepwise_nonextremal(H, K):
    """Conjugate a pair of any rank until neither core has an extremal
    vertex: away from H's stem, then from K's.  Returns the pair and the
    total conjugator v, each returned subgroup being v * original * v^-1.
    The first two steps of the stepwise normalization below."""
    if based_product(H.graph, K.graph).chi == 1:
        raise TrivialIntersectionError("basepoint normalization needs a nontrivial intersection")
    total = H.alphabet.identity()
    for side in (0, 1):
        graph = (H, K)[side].graph
        if _has_extremal_vertex(graph):
            step = ~_stem_word(graph)
            H, K = H.conj(step), K.conj(step)
            total = step * total
    if _has_extremal_vertex(H.graph) or _has_extremal_vertex(K.graph):
        raise AssertionError("normalization failed to remove extremal vertices")
    return H, K, total


def stepwise_normalize(H, K):
    """The rank-2 normalization as up to three stem conjugations: H's, K's,
    then the meet core's.  Returns the normalized pair, its based meet core
    and the total conjugator of the 3-regularized pair.  The normalizer
    makes one conjugation instead, and must agree with this oracle."""
    H, K, total = stepwise_nonextremal(three_regularize(H), three_regularize(K))
    meet_core = based_meet_core(H, K)
    if meet_core.valence(meet_core.basepoint) <= 1:
        step = ~_stem_word(meet_core)
        H, K = H.conj(step), K.conj(step)
        total = step * total
        meet_core = based_meet_core(H, K)
    return H, K, meet_core, total


@pytest.fixture
def figure_pair():
    return make(*FIGURE_LEFT), make(*FIGURE_RIGHT)


@pytest.fixture
def small_pair():
    """Meet <a^2>, join the whole group."""
    return make("a", "bab"), make("b", "aa")


@pytest.fixture
def rng():
    return random.Random(1234)


# Acceptance tests append their one-line outcomes here; the summary hook
# re-emits them uncaptured so they show up in any run's terminal output.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
