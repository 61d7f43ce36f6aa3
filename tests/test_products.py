"""Fiber products, intersections, joins, pushouts, and double cosets."""

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from stallings import (
    Alphabet,
    LEFT,
    RIGHT,
    LabeledGraph,
    RANK2,
    ReadBudgetError,
    Subgroup,
    Word,
    based_meet_core,
    check_instance,
    check_squares_construction,
    double_cosets,
    embed_into_rank2,
    fold_to_immersion,
    intersection,
    join,
    membership,
    normalize_pair,
    subgroup_graph,
    topological_pushout,
    trim_to_core,
)
from stallings.verify import SQUARES_LEFT, SQUARES_RIGHT, _random_reduced_word, random_subgroup
from stallings.words import generator_squares

import stallings.products
from stallings.graphs import DisjointSet, _trimmed, based_product
from stallings.products import _segments
from conftest import (
    FIGURE_LEFT,
    FIGURE_MEET_WORD,
    FIGURE_RIGHT,
    components,
    graph_of,
    make,
    matched_pair_double_cosets,
    sorted_canonical,
    stepwise_nonextremal,
    wedge,
)


def embedded(*texts, rank=3):
    A = Alphabet(rank)
    return subgroup_graph([embed_into_rank2(A.word(t)) for t in texts], RANK2)


def vertex_pairs(core):
    """Each vertex of a product graph as its (left, right) coordinates."""
    return list(zip(*core.projections))


def edge_pairs(core, gH, gK):
    """Each edge of a product graph as its (left edge, right edge), found by
    a scan of the factors' edge records."""

    def find(g, record):
        (e,) = [e for e, *rest in g.edges() if tuple(rest) == record]
        return e

    left, right = core.projections
    return [
        (find(gH, (label, left[s], left[d])), find(gK, (label, right[s], right[d])))
        for _, label, s, d in core.edges()
    ]


# -- fiber product: its based component ---------------------------------------------


def test_fiber_product_of_disjoint_loops():
    H, K = make("a"), make("b")
    core = based_meet_core(H, K)
    assert (core.vertex_count, core.edge_count) == (1, 0)
    assert vertex_pairs(core)[core.basepoint] == (H.graph.basepoint, K.graph.basepoint)


def test_fiber_product_of_roses():
    F = make("a", "b")
    core = based_meet_core(F, F)
    assert (core.vertex_count, core.edge_count) == (1, 2)


def test_fiber_product_rejects_alphabet_mismatch():
    with pytest.raises(ValueError, match="alphabet mismatch"):
        based_meet_core(make("a"), subgroup_graph(["a"], Alphabet(3)))


def test_fiber_product_projections_preserve_labels():
    H, K = make("a", "bab"), make("b", "aa")
    cores = [based_meet_core(H, K)] + [e.core for e in double_cosets(H, K).entries]
    for core in cores:
        left, right = core.projections
        for (eH, eK), (_, label, src, dst) in zip(edge_pairs(core, H.graph, K.graph), core.edges()):
            lh = list(H.graph.edges())[eH][1:]
            lk = list(K.graph.edges())[eK][1:]
            assert lh[0] == lk[0] == label
            assert (lh[1], lk[1]) == (left[src], right[src])
            assert (lh[2], lk[2]) == (left[dst], right[dst])


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8),
)
def test_fiber_product_lifts_common_loops(seed, letters):
    """A word closing up in both cores closes up at the product basepoint."""
    rng = random.Random(seed)
    H = random_subgroup(rng, rng.randint(1, 3), 6)
    K = random_subgroup(rng, rng.randint(1, 3), 6)
    w = Word(RANK2, letters)
    core = based_meet_core(H, K)
    lifted = core.trace(core.basepoint, w)
    in_both = membership(H, w) and membership(K, w)
    assert in_both == (lifted.ok and lifted.vertex == core.basepoint)


def test_based_meet_core_of_figure_pair_is_a_cycle():
    H, K = make(*FIGURE_LEFT), make(*FIGURE_RIGHT)
    core = based_meet_core(H, K)
    assert core.chi == 0
    assert core.edge_count == core.vertex_count
    assert all(core.valence(v) == 2 for v in core.vertices)


# -- intersection -------------------------------------------------------------------


def test_intersection_example():
    got = intersection(make("a", "bab"), make("b", "aa"))
    assert got == make("aa")


def test_intersection_can_be_trivial():
    got = intersection(make("a", "bab"), make("b", "aBabA"))
    assert got.is_trivial


def test_intersection_of_embedded_free_factors():
    got = intersection(embedded("a", "b"), embedded("b", "c"))
    assert got.rank == 1
    assert got == make("abA")


def test_intersection_with_whole_group():
    H = make("a", "bab")
    assert intersection(H, make("a", "b")) == H


def test_intersection_is_symmetric_and_contained():
    H, K = make(*FIGURE_LEFT), make(*FIGURE_RIGHT)
    M = intersection(H, K)
    assert M == intersection(K, H)
    for w in M.basis():
        assert membership(H, w) and membership(K, w)


def test_figure_intersection_is_the_known_loop():
    H, K = make(*FIGURE_LEFT), make(*FIGURE_RIGHT)
    M = intersection(H, K)
    assert M.rank == 1
    assert M == make(FIGURE_MEET_WORD)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_intersection_membership_agrees_with_factors(seed):
    """Dual route: meet membership == simultaneous membership, on its basis."""
    rng = random.Random(seed)
    H = random_subgroup(rng, rng.randint(1, 3), 6)
    K = random_subgroup(rng, rng.randint(1, 3), 6)
    M = intersection(H, K)
    for w in M.basis():
        assert membership(H, w) and membership(K, w)
    for w in H.basis():
        assert membership(M, w) == membership(K, w)


def _reduced_words(max_len):
    """Every reduced rank-2 word of length at most ``max_len``."""
    layer = [()]
    out = [()]
    for _ in range(max_len):
        layer = [w + (x,) for w in layer for x in (1, -1, 2, -2) if not w or x != -w[-1]]
        out += layer
    return [Word(RANK2, w) for w in out]


WORDS_UP_TO_6 = _reduced_words(6)


def _oracle_pairs():
    """Corpus pairs plus random small pairs (short words make meets common)."""
    pairs = [(FIGURE_LEFT, FIGURE_RIGHT), (("a", "bab"), ("b", "aa")), (("a", "bab"), ("a", "bab"))]
    pairs = [(make(*left), make(*right)) for left, right in pairs]
    rng = random.Random(20240611)
    for _ in range(12):
        pairs.append(
            (random_subgroup(rng, rng.randint(1, 3), 3), random_subgroup(rng, rng.randint(1, 3), 3))
        )
    return pairs


@pytest.mark.parametrize("H, K", _oracle_pairs())
def test_meet_and_join_membership_match_brute_force(H, K):
    """Every reduced word of length <= 6 (1,457 of them) is checked by
    tracing it in the factor cores alone; the product walker is not used."""
    M, J = intersection(H, K), join(H, K)
    for w in WORDS_UP_TO_6:
        in_H, in_K = membership(H, w), membership(K, w)
        assert membership(M, w) == (in_H and in_K), str(w)
        if in_H or in_K:
            assert membership(J, w), str(w)
    for g in H.generators + K.generators:
        assert membership(J, g)


def test_brute_force_oracle_sees_nontrivial_meets():
    """The oracle pairs are not all vacuous: several meets hold short words."""
    counts = [
        sum(membership(H, w) and membership(K, w) for w in WORDS_UP_TO_6[1:])
        for H, K in _oracle_pairs()
    ]
    assert sum(1 for c in counts if c) >= 5


# -- join ---------------------------------------------------------------------------


def test_join_fills_the_group():
    J = join(make("a", "bab"), make("b", "aa"))
    assert J == make("a", "b")
    assert (J.graph.vertex_count, J.graph.edge_count) == (1, 2)


def test_join_of_embedded_factors_has_rank_three():
    J = join(embedded("a", "b"), embedded("b", "c"))
    assert J.rank == 3
    assert J == embedded("a", "b", "c")


def test_join_with_itself_is_identity():
    H = make("a", "bab")
    assert join(H, H) == H


def test_join_contains_both_factors():
    H, K = make(*FIGURE_LEFT), make(*FIGURE_RIGHT)
    J = join(H, K)
    assert J.rank == 2
    for w in H.basis() + K.basis():
        assert membership(J, w)


def test_join_canonicalizes_its_core_once(monkeypatch):
    H, K = make(*FIGURE_LEFT), make(*FIGURE_RIGHT)
    calls = []
    real = LabeledGraph.canonical

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(LabeledGraph, "canonical", counting)
    J = join(H, K)
    assert len(calls) == 1
    assert calls[0].vertex_count == J.graph.vertex_count


def _factor_maps(H, K, J):
    """Each factor core vertex's image in the join core ``J``, read off the
    based product of the two; every factor vertex must be paired exactly
    once, and the basepoint pair must be product vertex 0."""
    maps = []
    for factor in (H.graph, K.graph):
        left, right = based_product(factor, J.graph).projections
        assert sorted(left) == list(factor.vertices)
        assert (left[0], right[0]) == (factor.basepoint, J.graph.basepoint)
        image = [None] * factor.vertex_count
        for v, z in zip(left, right):
            image[v] = z
        maps.append(image)
    return maps


def test_factor_cores_map_basepoints_together():
    H, K = make(*FIGURE_LEFT), make(*FIGURE_RIGHT)
    J = join(H, K)
    left_map, right_map = _factor_maps(H, K, J)
    bp = J.graph.basepoint
    assert left_map[H.graph.basepoint] == bp
    assert right_map[K.graph.basepoint] == bp
    assert len(left_map) == H.graph.vertex_count
    assert len(right_map) == K.graph.vertex_count
    for img in left_map + right_map:
        assert 0 <= img < J.graph.vertex_count


def test_join_rank_can_exceed_ambient_when_factors_are_small():
    H, K = make("b", "abA"), make("aabAA", "aaabAAA")
    assert join(H, K).rank == 4
    assert intersection(H, K).is_trivial


def _wedge_join(H, K):
    """The join as the wedge of the two cores, folded, trimmed and
    canonicalized, with each factor's vertex map into it."""
    wedged, mapH, mapK = wedge(H.graph, K.graph)
    folded = fold_to_immersion(wedged)
    core, kept = _trimmed(folded.graph, folded.graph.basepoint)
    canon = core.canonical()
    image = {x: canon.vertex_map[i] for i, x in enumerate(kept)}

    def compose(pre):
        return [image.get(folded.vertex_map[x]) for x in pre]

    return canon.graph, compose(mapH), compose(mapK)


def _join_pair(seed, kind, rank):
    """A pair of the given kind: random factors, a trivial factor, equal
    factors, K <= H, factors hung from a common stem, factors given by
    generators longer than their cores, or the normalized pair of a
    nontrivial meet."""
    rng = random.Random(seed)
    A = Alphabet(rank)
    H = random_subgroup(rng, rng.randint(1, 3), 6, A)
    if kind == "trivial":
        pair = [H, subgroup_graph([], A)]
        rng.shuffle(pair)
        return tuple(pair)
    if kind == "equal":
        return H, H
    if kind == "sub":
        gens = list(H.generators) + [~w for w in H.generators]
        words = []
        for _ in range(rng.randint(1, 3)):
            w = rng.choice(gens)
            for _ in range(rng.randint(0, 2)):
                w = w * rng.choice(gens)
            words.append(w)
        return H, subgroup_graph(words, A)
    K = random_subgroup(rng, rng.randint(1, 3), 6, A)
    if kind == "stem":
        stem = random_subgroup(rng, 1, 5, A).generators[0]
        return H.conj(stem), K.conj(stem)
    if kind == "basis":
        # spanning-tree basis words of cores hung from a common stem, each
        # of which runs the stem twice, and K's also with redundant products
        stem = random_subgroup(rng, 1, 12, A).generators[0]
        H, K = (Subgroup.from_core(X.conj(stem).graph, A) for X in (H, K))
        words = K.generators
        products = tuple(u * v for u, v in zip(words, words[1:] + words[:1]))
        return H, Subgroup.from_core(K.graph, A, words + products)
    if kind == "normalized":
        K = subgroup_graph([H.generators[0], *K.generators], A)
        if rank == 2:
            return normalize_pair(H, K)
        return stepwise_nonextremal(H, K)[:2]
    return H, K


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random", "trivial", "equal", "sub", "stem", "basis", "normalized"]),
    st.integers(2, 3),
)
def test_join_matches_the_folded_wedge(seed, kind, rank):
    """Folding the bouquet of both generator lists gives the core,
    generators and vertex maps that folding the two cores' wedge gives,
    and every factor vertex has an image."""
    H, K = _join_pair(seed, kind, rank)
    J = join(H, K)
    graph, left, right = _wedge_join(H, K)
    assert J.graph == graph
    assert J.generators == H.generators + K.generators
    assert _factor_maps(H, K, J) == [left, right]
    assert None not in left + right


# -- topological pushout ------------------------------------------------------------


def test_pushout_of_equal_factors_collapses_to_the_core():
    H = make("a", "bab")
    po = topological_pushout(H, H, [based_meet_core(H, H)])
    assert sorted_canonical(po.graph, based=False).graph == sorted_canonical(H.graph, based=False).graph
    assert po.chi == H.graph.chi


def test_pushout_with_no_cores_is_the_disjoint_union():
    H, K = make("a"), make("b")
    po = topological_pushout(H, K, [])
    assert po.graph.vertex_count == 2
    assert po.graph.edge_count == 2
    assert po.chi == H.graph.chi + K.graph.chi


def test_pushout_along_a_single_point_is_the_wedge():
    H, K = make("a", "bab"), make("b", "aBabA")
    point = graph_of(2, 1, basepoint=0, projections=([H.graph.basepoint], [K.graph.basepoint]))
    po = topological_pushout(H, K, [point])
    assert po.chi == H.graph.chi + K.graph.chi - 1
    assert po.graph.vertex_count == (
        H.graph.vertex_count + K.graph.vertex_count - 1
    )


def test_pushout_folds_to_the_join():
    for left, right in (
        (make("a", "bab"), make("b", "aa")),
        (make(*FIGURE_LEFT), make(*FIGURE_RIGHT)),
        (embedded("a", "b"), embedded("b", "c")),
    ):
        po = topological_pushout(left, right, [based_meet_core(left, right)])
        assert po.folded_core() == join(left, right).graph


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_refolds_to_agrees_with_the_folded_core(seed):
    """The one-walk refold check says what comparing canonical graphs says,
    on the join's core and on cores that are not it."""
    rng = random.Random(seed)
    H = random_subgroup(rng, rng.randint(1, 3), 6)
    K = random_subgroup(rng, rng.randint(1, 3), 6)
    J = join(H, K).graph
    rebased = J.with_basepoint(rng.choice(J.vertices))
    extra_edge = (rng.randrange(J.rank), rng.choice(J.vertices), rng.choice(J.vertices))
    negatives = (
        random_subgroup(rng, rng.randint(1, 3), 6).graph,  # another subgroup's core
        H.graph,
        rebased,
        rebased.canonical().graph,
        graph_of(J.rank, J.vertex_count, [(l, s, d) for _, l, s, d in J.edges()] + [extra_edge], basepoint=0),
        LabeledGraph(J.rank, J.vertex_count + 1, J._labels, J._sources, J._targets, basepoint=0),
    )
    meet = [based_meet_core(H, K)]
    cosets = [entry.core for entry in double_cosets(H, K).entries]
    for cores in (meet, cosets, []):
        po = topological_pushout(H, K, cores)
        # with no cores the quotient is disconnected, which canonical() refuses
        folded = sorted_canonical(trim_to_core(fold_to_immersion(po.graph).graph)).graph
        for core in (J,) + negatives:
            assert po.refolds_to(core) == (folded == core)
    assert topological_pushout(H, K, meet).refolds_to(J)


def test_figure_pushout_chi_gap():
    H, K = make(*FIGURE_LEFT), make(*FIGURE_RIGHT)
    po = topological_pushout(H, K, [based_meet_core(H, K)])
    assert po.chi == -3
    assert join(H, K).graph.chi == -1


def test_pushout_vertex_classes_partition_the_factors():
    H, K = make(*FIGURE_LEFT), make(*FIGURE_RIGHT)
    po = topological_pushout(H, K, [based_meet_core(H, K)])
    assert len(po.vertex_class[LEFT]) == H.graph.vertex_count
    assert len(po.vertex_class[RIGHT]) == K.graph.vertex_count
    assert set(po.vertex_class[LEFT] + po.vertex_class[RIGHT]) == set(po.graph.vertices)


def test_pushout_edge_classes_preserve_labels_and_ends():
    H, K = make(*FIGURE_LEFT), make(*FIGURE_RIGHT)
    po = topological_pushout(H, K, [based_meet_core(H, K)])
    records = {(label, src, dst) for _, label, src, dst in po.graph.edges()}
    for side, graph in ((LEFT, H.graph), (RIGHT, K.graph)):
        classes = po.vertex_class[side]
        for _, label, src, dst in graph.edges():
            assert (label, classes[src], classes[dst]) in records


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pushout_chi_never_exceeds_join_chi(seed):
    rng = random.Random(seed)
    H = random_subgroup(rng, rng.randint(1, 3), 6)
    K = random_subgroup(rng, rng.randint(1, 3), 6)
    po = topological_pushout(H, K, [based_meet_core(H, K)])
    assert po.chi <= join(H, K).graph.chi


def _sorted_class_numbering(H, K, cores):
    """Pushout numbering by rank in the sorted list of sorted classes of
    tagged (side, vertex) and (side, edge) pairs: (vertex_class, quotient
    edges), the vertex classes as one list per side."""
    gH, gK = H.graph, K.graph
    nH, mH = gH.vertex_count, gH.edge_count
    vparts = DisjointSet(nH + gK.vertex_count)
    eparts = DisjointSet(mH + gK.edge_count)
    for core in cores:
        for vH, vK in vertex_pairs(core):
            vparts.union(vH, nH + vK)
        for eH, eK in edge_pairs(core, gH, gK):
            eparts.union(eH, mH + eK)

    def tagged(code, n):
        return (LEFT, code) if code < n else (RIGHT, code - n)

    def classes(parts):
        grouped = {}
        for c in range(len(parts.parent)):
            grouped.setdefault(parts.find(c), []).append(c)
        return grouped.values()

    vertex_class = ([None] * nH, [None] * gK.vertex_count)
    for index, members in enumerate(sorted(sorted(tagged(c, nH) for c in m) for m in classes(vparts))):
        for side, v in members:
            vertex_class[side][v] = index
    quotient_edges = {}
    records_of = {LEFT: list(gH.edges()), RIGHT: list(gK.edges())}
    for index, members in enumerate(sorted(sorted(tagged(c, mH) for c in m) for m in classes(eparts))):
        records = set()
        for side, e in members:
            _, label, src, dst = records_of[side][e]
            records.add((label, vertex_class[side][src], vertex_class[side][dst]))
        (quotient_edges[index],) = records
    return vertex_class, quotient_edges


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3))
def test_pushout_numbering_matches_sorted_classes(seed, rank):
    rng = random.Random(seed)
    H = random_subgroup(rng, rng.randint(1, 3), 6, Alphabet(rank))
    K = random_subgroup(rng, rng.randint(1, 3), 6, Alphabet(rank))
    for cores in ([based_meet_core(H, K)], [entry.core for entry in double_cosets(H, K).entries]):
        po = topological_pushout(H, K, cores)
        vertex_class, quotient_edges = _sorted_class_numbering(H, K, cores)
        assert po.vertex_class == vertex_class
        assert {e: (label, src, dst) for e, label, src, dst in po.graph.edges()} == quotient_edges
        assert po.graph.vertex_count == len(set(vertex_class[LEFT] + vertex_class[RIGHT]))


# -- double cosets ------------------------------------------------------------------


def test_double_cosets_of_equal_cyclic_groups():
    d = double_cosets(make("a"), make("a"))
    assert d.ranks == (1,)
    assert d.entries[0].based
    assert sum(r - 1 for r in d.ranks) == 0


def test_double_cosets_can_be_empty():
    d = double_cosets(make("a"), make("b"))
    assert d.ranks == ()
    assert sum(r - 1 for r in d.ranks) == 0


def test_double_cosets_of_the_whole_group():
    F = make("a", "b")
    d = double_cosets(F, F)
    assert d.ranks == (2,)
    assert d.entries[0].based
    assert sum(r - 1 for r in d.ranks) == 1


def test_double_cosets_split_by_parity():
    # <a^2> meets g<a^2>g^-1 nontrivially iff g has even a-exponent along
    # the coset; the two a-residues give two entries.
    d = double_cosets(make("aa"), make("aa"))
    assert d.ranks == (1, 1)
    assert d.entries[0].based and not d.entries[1].based


def test_double_coset_entries_are_unbased_cores():
    H, K = make(*FIGURE_LEFT), make(*FIGURE_RIGHT)
    d = double_cosets(H, K)
    assert any(e.based for e in d.entries)
    for entry in d.entries:
        assert entry.core.basepoint is None
        assert entry.rank == entry.core.edge_count - entry.core.vertex_count + 1
        assert entry.rank >= 1
        assert all(entry.core.valence(v) >= 2 for v in entry.core.vertices)


def test_based_double_coset_matches_intersection_rank():
    H, K = make(*FIGURE_LEFT), make(*FIGURE_RIGHT)
    d = double_cosets(H, K)
    based = [e for e in d.entries if e.based]
    assert len(based) == 1
    assert based[0].rank == intersection(H, K).rank


def test_double_cosets_rejects_alphabet_mismatch():
    with pytest.raises(ValueError):
        double_cosets(make("a"), subgroup_graph(["a"], Alphabet(3)))


def _dense_product(H, K):
    """Every vertex pair and every label-matched edge pair of the two cores,
    the pair (x, y) numbered x * |V_K| + y."""
    gH, gK = H.graph, K.graph
    n = gK.vertex_count
    edges = [
        (label, sH * n + sK, dH * n + dK)
        for _, label, sH, dH in gH.edges()
        for _, label_K, sK, dK in gK.edges()
        if label == label_K
    ]
    pairs = [(x, y) for x in gH.vertices for y in gK.vertices]
    return graph_of(
        gH.rank, len(pairs), edges, basepoint=gH.basepoint * n + gK.basepoint,
        projections=([x for x, _ in pairs], [y for _, y in pairs]),
    )


def _dense_decomposition(H, K):
    """(rank, based, vertices, edges) per positive-rank component of the full product."""
    product = _dense_product(H, K)
    out = []
    for comp in components(product):
        piece = product.subgraph(comp)
        rank = piece.edge_count - piece.vertex_count + 1
        if rank >= 1:
            core = trim_to_core(piece, keep_basepoint=False)
            edges = frozenset(edge_pairs(core, H.graph, K.graph))
            out.append((rank, product.basepoint in comp, frozenset(vertex_pairs(core)), edges))
    out.sort(key=lambda item: (not item[1], -item[0]))
    return out


def _pair_of_kind(rng, kind):
    H = random_subgroup(rng, rng.randint(1, 3), 6)
    if kind == "equal":
        return H, H
    if kind == "disjoint_labels":
        a_power = RANK2.word("a" * rng.randint(1, 4))
        b_power = RANK2.word("B" * rng.randint(1, 4))
        return subgroup_graph([a_power], RANK2), subgroup_graph([b_power], RANK2)
    if kind == "single_loop":
        return random_subgroup(rng, 1, 8), H
    return H, random_subgroup(rng, rng.randint(1, 3), 6)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random", "equal", "disjoint_labels", "single_loop"]),
)
def test_double_cosets_match_the_dense_product(seed, kind):
    """The sparse decomposition equals the one read off the full product."""
    H, K = _pair_of_kind(random.Random(seed), kind)
    dense = _dense_decomposition(H, K)
    d = double_cosets(H, K)
    assert d.ranks == tuple(rank for rank, *_ in dense)
    assert tuple(e.based for e in d.entries) == tuple(based for _, based, *_ in dense)
    sparse_pieces = Counter(
        (frozenset(vertex_pairs(e.core)), frozenset(edge_pairs(e.core, H.graph, K.graph)))
        for e in d.entries
    )
    assert sparse_pieces == Counter((vs, es) for _, _, vs, es in dense)


def _coset_pair(seed, kind, rank):
    """A pair of one of the join's kinds, or: a circle against a random
    factor, a factor with a one-edge loop at a branch vertex (hung from a
    stem half the time), or the whole group against a random factor."""
    rng = random.Random(seed)
    A = Alphabet(rank)
    if kind not in ("circle", "loop_at_branch", "whole"):
        return _join_pair(seed, kind, rank)
    K = random_subgroup(rng, rng.randint(1, 3), 6, A)
    if kind == "circle":
        return random_subgroup(rng, 1, 8, A), K
    if kind == "whole":
        return subgroup_graph([Word(A, [i]) for i in range(1, rank + 1)], A), K
    gens = [Word(A, [rng.choice([1, 2])])]
    gens += random_subgroup(rng, rng.randint(1, 2), 6, A).generators
    if rng.random() < 0.5:
        stem = random_subgroup(rng, 1, 4, A).generators[0]
        gens = [w.conj(stem) for w in gens]
    return subgroup_graph(gens, A), K


def _coset_pieces(d, H, K):
    """Each entry as (rank, based, sorted vertex pairs, sorted edge pairs,
    unbased)."""
    return sorted(
        (
            e.rank,
            e.based,
            sorted(vertex_pairs(e.core)),
            sorted(edge_pairs(e.core, H.graph, K.graph)),
            e.core.basepoint is None,
        )
        for e in d.entries
    )


# draws whose read core is a circle, and one with a segment that starts on
# an incoming dart; each is checked below to keep that shape
READS_A_CIRCLE = (0, "circle", 2, False)
STARTS_INCOMING = (2, "random", 2, False)


def _read_segments(seed, kind, rank, swap):
    """The segments of the core ``double_cosets`` reads for this draw."""
    H, K = _coset_pair(seed, kind, rank)
    if swap:
        H, K = K, H
    swapped = K.rank * H.graph.vertex_count < H.rank * K.graph.vertex_count
    return _segments(K.graph if swapped else H.graph)


def test_the_pinned_draws_read_a_circle_and_an_incoming_first_dart():
    (start, end, keys), = _read_segments(*READS_A_CIRCLE)
    assert start == end and len(keys) > 1
    segments = _read_segments(*STARTS_INCOMING)
    assert len(segments) > 1 and any(keys[0] & 1 for _, _, keys in segments)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(
        ["random", "trivial", "equal", "sub", "stem", "normalized", "circle", "loop_at_branch", "whole"]
    ),
    st.integers(2, 3),
    st.booleans(),
)
@example(*READS_A_CIRCLE)
@example(*STARTS_INCOMING)
def test_double_cosets_match_the_matched_pair_oracle(seed, kind, rank, swap):
    """Reading segments finds the entries that union-find over every
    label-matched edge pair finds, whichever factor is read."""
    H, K = _coset_pair(seed, kind, rank)
    if swap:
        H, K = K, H
    d, oracle = double_cosets(H, K), matched_pair_double_cosets(H, K)
    assert d.ranks == oracle.ranks
    assert [e.based for e in d.entries] == [e.based for e in oracle.entries]
    assert _coset_pieces(d, H, K) == _coset_pieces(oracle, H, K)
    assert double_cosets(H, K, based_meet_core(H, K)) == d


def test_double_cosets_refuse_a_pair_past_the_read_budget(monkeypatch):
    """Past the budget the pair is an error, never a verdict."""
    H, K = make(*FIGURE_LEFT), make(*FIGURE_RIGHT)
    monkeypatch.setattr(stallings.products, "READ_BUDGET", 5)
    with pytest.raises(ReadBudgetError, match="more than 5 letters"):
        double_cosets(H, K)
    with pytest.raises(ReadBudgetError):
        check_instance(H, K)


def _kernel_onto_cyclic(n):
    """The kernel of F2 -> Z/n (a -> 1, b -> 0): a circle of n a-edges with
    a b-loop at every vertex, of rank n + 1."""
    edges = []
    for v in range(n):
        edges += [(0, v, (v + 1) % n), (1, v, v)]
    return Subgroup.from_core(graph_of(2, n, edges, basepoint=0), RANK2)


def test_double_cosets_count_held_lifts_and_laid_edges(monkeypatch):
    """Each of the 2n² one-letter reads of H = K = the kernel of F2 -> Z/n
    reads one letter, holds a lift and lays one edge; the lifts count while
    they are read, and the layout is counted before it is laid."""
    import tracemalloc

    n = 30
    H = _kernel_onto_cyclic(n)
    reads, weight = 2 * n * n, stallings.products.HELD_WEIGHT
    built = []
    real_graph = stallings.products.LabeledGraph

    def spying(*args, **kwargs):
        built.append(args)
        return real_graph(*args, **kwargs)

    def peak_of_call(budget):
        monkeypatch.setattr(stallings.products, "READ_BUDGET", budget)
        built.clear()
        tracemalloc.start()
        try:
            return double_cosets(H, H)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(stallings.products, "LabeledGraph", spying)
    peaks = []
    assert peak_of_call(reads * (1 + 2 * weight)).ranks == (n + 1,) * n
    assert len(built) == n
    with pytest.raises(ReadBudgetError, match="counting as"):
        peak_of_call(reads * (1 + 2 * weight) - 1)
    assert not built  # refused before its layout is built
    assert peaks[1] < peaks[0] / 2
    with pytest.raises(ReadBudgetError):
        peak_of_call(reads * (1 + weight) - 1)  # refused while reading


def test_check_instance_walks_no_product_for_the_double_cosets(monkeypatch):
    """check_instance hands double_cosets the meet core it already holds."""
    import stallings.graphs
    import stallings.verify

    walked = []
    real_product, real_cosets = stallings.graphs.based_product, stallings.verify.double_cosets

    def counting(g1, g2):
        walked.append((g1, g2))
        return real_product(g1, g2)

    def cosets(*args):
        before = len(walked)
        result = real_cosets(*args)
        assert len(walked) == before
        return result

    for module in (stallings.products, stallings.verify):
        monkeypatch.setattr(module, "based_product", counting)
    monkeypatch.setattr(stallings.verify, "double_cosets", cosets)
    report = check_instance(make(*FIGURE_LEFT), make(*FIGURE_RIGHT))
    assert report.normalized and walked


def test_double_cosets_of_a_long_self_pair():
    """H = K on three random 400-letter generators: one double coset, the
    based one, of rank 3."""
    rng = random.Random(400)
    H = subgroup_graph([_random_reduced_word(rng, 400, RANK2) for _ in range(3)], RANK2)
    d = double_cosets(H, H)
    assert d.ranks == (3,) and d.entries[0].based
    assert check_instance(H, H).double_coset_ranks == (3,)


# -- isolated vertices --------------------------------------------------------------


def test_squares_candidates_are_isolated_in_the_dense_product():
    """The letter-squaring fixture reads its candidates off the two vertex
    lists; each is an isolated vertex of the full product."""
    H = subgroup_graph([generator_squares(RANK2.word(t)) for t in SQUARES_LEFT], RANK2)
    K = subgroup_graph([generator_squares(RANK2.word(t)) for t in SQUARES_RIGHT], RANK2)
    product = _dense_product(H, K)

    def kinds(g, v):
        """The (label, direction) kinds of the darts at ``v``, from edge records."""
        return {(label, "out") for _, label, s, _ in g.edges() if s == v} | {
            (label, "in") for _, label, _, d in g.edges() if d == v
        }

    a_center, b_center = {(0, "out"), (0, "in")}, {(1, "out"), (1, "in")}
    isolated = [
        (x, y)
        for v, (x, y) in enumerate(vertex_pairs(product))
        if product.valence(v) == 0
        and kinds(H.graph, x) == a_center
        and kinds(K.graph, y) == b_center
    ]
    assert len(isolated) == check_squares_construction()["isolated_candidates"] == 4


# -- memory -----------------------------------------------------------------------


def test_graphs_hold_at_most_160_bytes_per_vertex():
    """On the self pair of three 3,000-letter generators that CI checks, the
    canonical subgroup core and the meet core each hold at most 160 bytes a
    vertex, and the pushout along the meet core at most 160 bytes an input
    vertex (dicts of per-vertex lists held about 400)."""
    import tracemalloc

    rng = random.Random(3000)
    inverse = {"a": "A", "A": "a", "b": "B", "B": "b"}
    words = []
    for _ in range(3):
        word = [rng.choice("abAB")]
        while len(word) < 3000:
            word.append(rng.choice([c for c in "abAB" if c != inverse[word[-1]]]))
        words.append("".join(word))
    H = subgroup_graph(words, RANK2)

    def held(build):
        """What ``build()`` returns, and the bytes it holds once built."""
        before = tracemalloc.get_traced_memory()[0]
        value = build()
        return value, tracemalloc.get_traced_memory()[0] - before

    tracemalloc.start()
    try:
        core, core_bytes = held(lambda: subgroup_graph(words, RANK2).graph)
        meet, meet_bytes = held(lambda: based_meet_core(H, H))
        po, po_bytes = held(lambda: topological_pushout(H, H, [meet]))
    finally:
        tracemalloc.stop()
    assert core == H.graph and meet.vertex_count == core.vertex_count > 8000
    assert po.graph.vertex_count == core.vertex_count
    assert core_bytes / core.vertex_count <= 160
    assert meet_bytes / meet.vertex_count <= 160
    assert po_bytes / (2 * core.vertex_count) <= 160
