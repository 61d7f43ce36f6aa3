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
    fuzz,
    subgroup_graph,
    three_regularize,
    trim_to_core,
)
from stallings.graphs import CanonicalForm, DisjointSet, based_product
from stallings.verify import FAIL, NOT_APPLICABLE, PASS, _stem, fuzz_line


# The hand-checked pair whose meet core wraps once around a long loop while
# the join fills the whole rank-2 group.
FIGURE_LEFT = ("aBBa", "abbAABA", "ABaba")
FIGURE_RIGHT = ("aaba", "abbbbaaBBA")
FIGURE_MEET_WORD = "abbAABBBBaba"


def make(*texts):
    """Rank-2 subgroup from word texts."""
    return subgroup_graph([RANK2.word(t) for t in texts], RANK2)


def graph_of(rank, vertex_count, edges=(), basepoint=None, projections=None):
    """A ``LabeledGraph`` from a list of (label, source, target) triples,
    edge ``e`` being the ``e``-th."""
    columns = [list(column) for column in zip(*edges)] or [[], [], []]
    return LabeledGraph(rank, vertex_count, *columns, basepoint=basepoint, projections=projections)


def wedge(g1, g2):
    """Glue two based graphs at their basepoints, with vertex maps from each
    factor into the wedge: the textbook first step of a join, kept as an
    oracle for the join, which reads one core into the other instead.  The
    wedge keeps g1's numbers and numbers g2's other vertices after them."""
    if g1.basepoint is None or g2.basepoint is None:
        raise ValueError("wedge requires basepoints on both factors")
    if g1.rank != g2.rank:
        raise ValueError("rank mismatch in wedge")
    map1 = list(g1.vertices)
    map2 = []
    for v in g2.vertices:
        map2.append(g1.basepoint if v == g2.basepoint else g1.vertex_count + len(map2) - (v > g2.basepoint))
    edges = [(label, map1[src], map1[dst]) for _, label, src, dst in g1.edges()]
    edges += [(label, map2[src], map2[dst]) for _, label, src, dst in g2.edges()]
    wedged = graph_of(g1.rank, g1.vertex_count + g2.vertex_count - 1, edges, basepoint=g1.basepoint)
    return wedged, map1, map2


def sorted_stars(graph):
    """Each vertex's darts as ``LabeledGraph.darts`` gives them, (signed
    letter, edge id, far end) triples, got by sorting the edge records by
    label, the outgoing dart first.  Kept as an oracle for ``darts``, which
    reads the dart table instead."""
    stars = {v: [] for v in graph.vertices}
    for e, label, s, d in graph.edges():
        stars[s].append((label + 1, e, d))
        stars[d].append((-label - 1, e, s))
    return {v: tuple(sorted(star, key=lambda dart: (abs(dart[0]), dart[0] < 0))) for v, star in stars.items()}


def _walk_stars(stars, start):
    """The numbering a BFS over ``stars`` gives the vertices it reaches from
    ``start``."""
    number = {start: 0}
    order = [start]
    for v in order:
        for _, _, w in stars[v]:
            if w not in number:
                number[w] = len(order)
                order.append(w)
    return number


def components(graph):
    """Vertex lists of the connected components, each in the order of a BFS
    over its sorted darts from its first vertex in vertex order.  Kept as an
    oracle read off ``sorted_stars``, not off the graph's own walks."""
    stars = sorted_stars(graph)
    comps, seen = [], set()
    for v in graph.vertices:
        if v not in seen:
            comps.append(list(_walk_stars(stars, v)))
            seen.update(comps[-1])
    return comps


def sorted_canonical(graph, *, based=True):
    """The canonical form by sorting: number each component by a BFS over
    its sorted darts (from the anchor, or from the start with the least
    sorted edge code), order the components by anchor and code, then sort
    every edge by its renumbered (source, label, target).  Kept as an oracle
    for ``LabeledGraph.canonical``, which emits the edges in that order from
    one walk over the dart table and covers only graphs that the walk from
    the basepoint reaches; ``based=False`` and the several-component order
    compare graphs that it refuses.  The stars and components come from
    ``sorted_stars``, not from the graph's own walks."""
    stars = sorted_stars(graph)

    def encode(start):
        number = _walk_stars(stars, start)
        code = sorted((number[s], label, number[d]) for _, label, s, d in graph.edges() if s in number)
        return number, tuple(code)

    anchor = graph.basepoint if based else None
    encoded = []
    for comp in components(graph):
        is_based = anchor is not None and anchor in comp
        starts = [anchor] if is_based else comp
        number, code = min(map(encode, starts), key=lambda t: t[1])
        encoded.append(((not is_based, code), number))
    encoded.sort(key=lambda t: t[0])
    vertex_map = [0] * graph.vertex_count
    offset = 0
    for _, number in encoded:
        for v, i in number.items():
            vertex_map[v] = offset + i
        offset += len(number)
    ordered = sorted((vertex_map[s], label, vertex_map[d]) for _, label, s, d in graph.edges())
    bp = vertex_map[graph.basepoint] if based and graph.basepoint is not None else None
    canon = graph_of(graph.rank, graph.vertex_count, [(label, s, d) for s, label, d in ordered], bp)
    return CanonicalForm(canon, vertex_map)


def matched_pair_double_cosets(H, K):
    """The double cosets by union-find over every label-matched edge pair of
    the two cores, each pair being a product edge: the components that
    close a cycle, trimmed to unbased cores.  Kept as an oracle for the
    decomposition, which reads segments between branch vertices instead."""
    gH, gK = H.graph, K.graph
    n_K = gK.vertex_count
    matched = [
        (label, sH * n_K + sK, dH * n_K + dK)  # a product vertex coded as vH * n_K + vK
        for _, label, sH, dH in gH.edges()
        for _, label_K, sK, dK in gK.edges()
        if label == label_K
    ]
    parts = DisjointSet(gH.vertex_count * n_K)
    closing = []
    for _, u, w in matched:
        if not parts.union(u, w):
            closing.append(u)
    cyclic = {parts.find(u) for u in closing}
    pieces = defaultdict(list)
    for label, u, w in matched:
        if parts.find(u) in cyclic:
            pieces[parts.find(u)].append((label, u, w))
    base = gH.basepoint * n_K + gK.basepoint
    entries = []
    for root, edges in pieces.items():
        codes = sorted({c for _, u, w in edges for c in (u, w)})
        number = {c: i for i, c in enumerate(codes)}
        piece = graph_of(
            gH.rank,
            len(codes),
            [(label, number[u], number[w]) for label, u, w in edges],
            projections=([c // n_K for c in codes], [c % n_K for c in codes]),
        )
        rank = piece.edge_count - piece.vertex_count + 1
        based = parts.find(base) == root
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
            step = ~_stem(graph)[1]
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
        step = ~_stem(meet_core)[1]
        H, K = H.conj(step), K.conj(step)
        total = step * total
        meet_core = based_meet_core(H, K)
    return H, K, meet_core, total


def status_counts(reports):
    """Per verdict name, how many of ``reports`` gave it each status."""
    counts = {}
    for report in reports:
        for name, verdict in report.verdicts.items():
            per = counts.setdefault(name, {PASS: 0, FAIL: 0, NOT_APPLICABLE: 0})
            per[verdict.status] += 1
    return counts


def fuzz_text(config):
    """The bytes ``stallings fuzz`` writes to stdout for ``config``."""
    return "".join(
        fuzz_line(i, left, right, report) + "\n"
        for i, (left, right, report) in enumerate(fuzz(config))
    )


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
