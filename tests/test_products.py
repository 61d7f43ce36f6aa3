"""Fiber products, intersections, joins, pushouts, and double cosets."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from stallings import (
    IN,
    OUT,
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
    join_with_maps,
    membership,
    normalize_pair,
    subgroup_graph,
    topological_pushout,
    trim_to_core,
)
from stallings.verify import SQUARES_LEFT, SQUARES_RIGHT, _random_reduced_word, random_subgroup
from stallings.words import generator_squares

import stallings.products
from conftest import (
    FIGURE_LEFT,
    FIGURE_MEET_WORD,
    FIGURE_RIGHT,
    make,
    matched_pair_double_cosets,
    stepwise_nonextremal,
    wedge,
)


def embedded(*texts, rank=3):
    A = Alphabet(rank)
    return subgroup_graph([embed_into_rank2(A.word(t)) for t in texts], RANK2)


# -- fiber product: its based component ---------------------------------------------


def test_fiber_product_of_disjoint_loops():
    H, K = make("a"), make("b")
    core = based_meet_core(H, K)
    assert (core.vertex_count, core.edge_count) == (1, 0)
    assert core.basepoint == (H.graph.basepoint, K.graph.basepoint)


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
        for eid, label, src, dst in core.edges():
            lh = H.graph.edge(eid[0])
            lk = K.graph.edge(eid[1])
            assert lh[0] == lk[0] == label
            assert (lh[1], lk[1]) == src and (lh[2], lk[2]) == dst


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
    real = LabeledGraph._canonical_form  # every canonical form is built here

    def counting(self, number, edges, edge_map, *, based):
        calls.append(self)
        return real(self, number, edges, edge_map, based=based)

    monkeypatch.setattr(LabeledGraph, "_canonical_form", counting)
    J = join(H, K)
    assert len(calls) == 1
    assert calls[0].vertex_count == J.graph.vertex_count


def test_join_with_maps_sends_basepoints_together():
    H, K = make(*FIGURE_LEFT), make(*FIGURE_RIGHT)
    res = join_with_maps(H, K)
    bp = res.subgroup.graph.basepoint
    assert res.left_vertex_map[H.graph.basepoint] == bp
    assert res.right_vertex_map[K.graph.basepoint] == bp
    for v, img in res.left_vertex_map.items():
        assert img is None or res.subgroup.graph.has_vertex(img)


def test_join_rank_can_exceed_ambient_when_factors_are_small():
    H, K = make("b", "abA"), make("aabAA", "aaabAAA")
    assert join(H, K).rank == 4
    assert intersection(H, K).is_trivial


def _wedge_join(H, K):
    """The join as the wedge of the two cores, folded, trimmed and
    canonicalized, with each factor's vertex map into it."""
    wedged, mapH, mapK = wedge(H.graph, K.graph)
    folded = fold_to_immersion(wedged)
    canon = trim_to_core(folded.graph).canonical()

    def compose(pre):
        return {v: canon.vertex_map.get(folded.vertex_map[tagged]) for v, tagged in pre.items()}

    return canon.graph, compose(mapH), compose(mapK)


def _join_pair(seed, kind, rank):
    """A pair of the given kind: random factors, a trivial factor, equal
    factors, K <= H, factors hung from a common stem, or the normalized
    pair of a nontrivial meet."""
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
    if kind == "normalized":
        K = subgroup_graph([H.generators[0], *K.generators], A)
        if rank == 2:
            return normalize_pair(H, K)
        return stepwise_nonextremal(H, K)[:2]
    return H, K


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random", "trivial", "equal", "sub", "stem", "normalized"]),
    st.integers(2, 3),
)
def test_join_matches_the_folded_wedge(seed, kind, rank):
    """Reading K's core into H's gives the core, generators and vertex maps
    that folding the two cores' wedge gives."""
    H, K = _join_pair(seed, kind, rank)
    res = join_with_maps(H, K)
    graph, left, right = _wedge_join(H, K)
    assert res.subgroup.graph == graph
    assert res.subgroup.generators == H.generators + K.generators
    assert res.left_vertex_map == left
    assert res.right_vertex_map == right


def test_join_leaves_the_right_factors_stars_uncached():
    H, K = make(*FIGURE_LEFT), make(*FIGURE_RIGHT)
    assert join(H, K).rank == 2
    assert K.graph._stars == {}


@pytest.mark.parametrize("seed", range(6))
def test_join_reads_a_subgroup_without_laying_an_edge(monkeypatch, seed):
    """join(H, H), and join(H, K) with K <= H, hand the fold H's core alone:
    every edge of K reads along H's darts to its far end's image."""
    handed = []
    real = stallings.products.fold_to_immersion

    def recording(g):
        handed.append(g)
        return real(g)

    monkeypatch.setattr(stallings.products, "fold_to_immersion", recording)
    H, K = _join_pair(seed, "sub", 2 + seed % 2)
    for other in (H, K):
        handed.clear()
        assert join(H, other) == H
        (g,) = handed
        assert g.edge_count == H.graph.edge_count
        assert g.is_properly_labeled()


# -- topological pushout ------------------------------------------------------------


def test_pushout_of_equal_factors_collapses_to_the_core():
    H = make("a", "bab")
    po = topological_pushout(H, H, [based_meet_core(H, H)])
    assert po.graph.isomorphic(H.graph, based=False)
    assert po.chi == H.graph.chi


def test_pushout_with_no_cores_is_the_disjoint_union():
    H, K = make("a"), make("b")
    po = topological_pushout(H, K, [])
    assert po.graph.vertex_count == 2
    assert po.graph.edge_count == 2
    assert po.chi == H.graph.chi + K.graph.chi


def test_pushout_along_a_single_point_is_the_wedge():
    H, K = make("a", "bab"), make("b", "aBabA")
    point = LabeledGraph(
        2,
        [(H.graph.basepoint, K.graph.basepoint)],
        {},
        basepoint=(H.graph.basepoint, K.graph.basepoint),
    )
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
        LabeledGraph(J.rank, J.vertices, {**J._edge, J.edge_count: extra_edge}, basepoint=0),
        LabeledGraph(J.rank, range(J.vertex_count + 1), J._edge, basepoint=0),
    )
    meet = [based_meet_core(H, K)]
    cosets = [entry.core for entry in double_cosets(H, K).entries]
    for cores in (meet, cosets, []):
        po = topological_pushout(H, K, cores)
        folded = po.folded_core()
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
    tagged = {(LEFT, v) for v in H.graph.vertices}
    tagged |= {(RIGHT, v) for v in K.graph.vertices}
    assert set(po.vertex_class) == tagged
    assert set(po.vertex_class.values()) == set(po.graph.vertices)


def test_pushout_edge_classes_preserve_labels_and_ends():
    H, K = make(*FIGURE_LEFT), make(*FIGURE_RIGHT)
    po = topological_pushout(H, K, [based_meet_core(H, K)])
    for side, graph in ((LEFT, H.graph), (RIGHT, K.graph)):
        for eid, label, src, dst in graph.edges():
            image = po.edge_class[(side, eid)]
            ilabel, isrc, idst = po.graph.edge(image)
            assert ilabel == label
            assert isrc == po.vertex_class[(side, src)]
            assert idst == po.vertex_class[(side, dst)]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pushout_chi_never_exceeds_join_chi(seed):
    rng = random.Random(seed)
    H = random_subgroup(rng, rng.randint(1, 3), 6)
    K = random_subgroup(rng, rng.randint(1, 3), 6)
    po = topological_pushout(H, K, [based_meet_core(H, K)])
    assert po.chi <= join(H, K).graph.chi


def _sorted_class_numbering(H, K, cores):
    """Pushout numbering by rank in the sorted list of sorted classes:
    (vertex_class, edge_class, quotient edges)."""
    from stallings.graphs import DisjointSet

    vparts, eparts = DisjointSet(), DisjointSet()
    graphs = {LEFT: H.graph, RIGHT: K.graph}
    for side, graph in graphs.items():
        for v in graph.vertices:
            vparts.add((side, v))
        for e, *_ in graph.edges():
            eparts.add((side, e))
    for core in cores:
        for vH, vK in core.vertices:
            vparts.union((LEFT, vH), (RIGHT, vK))
        for (eH, eK), *_ in core.edges():
            eparts.union((LEFT, eH), (RIGHT, eK))
    vertex_class = {
        tagged: index
        for index, members in enumerate(sorted(vparts.classes()))
        for tagged in members
    }
    edge_class, quotient_edges = {}, {}
    for index, members in enumerate(sorted(eparts.classes())):
        records = set()
        for side, e in members:
            edge_class[side, e] = index
            label, src, dst = graphs[side].edge(e)
            records.add((label, vertex_class[side, src], vertex_class[side, dst]))
        (quotient_edges[index],) = records
    return vertex_class, edge_class, quotient_edges


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3))
def test_pushout_numbering_matches_sorted_classes(seed, rank):
    rng = random.Random(seed)
    H = random_subgroup(rng, rng.randint(1, 3), 6, Alphabet(rank))
    K = random_subgroup(rng, rng.randint(1, 3), 6, Alphabet(rank))
    for cores in ([based_meet_core(H, K)], [entry.core for entry in double_cosets(H, K).entries]):
        po = topological_pushout(H, K, cores)
        vertex_class, edge_class, quotient_edges = _sorted_class_numbering(H, K, cores)
        assert po.vertex_class == vertex_class
        assert po.edge_class == edge_class
        assert {e: (label, src, dst) for e, label, src, dst in po.graph.edges()} == quotient_edges
        assert po.graph.vertices == tuple(range(len(set(vertex_class.values()))))


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
    """Every vertex pair and every label-matched edge pair of the two cores."""
    gH, gK = H.graph, K.graph
    edges = {
        (eH, eK): (label, (sH, sK), (dH, dK))
        for eH, label, sH, dH in gH.edges()
        for eK, label_K, sK, dK in gK.edges()
        if label == label_K
    }
    vertices = [(x, y) for x in gH.vertices for y in gK.vertices]
    return LabeledGraph(gH.rank, vertices, edges, basepoint=(gH.basepoint, gK.basepoint))


def _dense_decomposition(H, K):
    """(rank, based, vertices, edges) per positive-rank component of the full product."""
    product = _dense_product(H, K)
    out = []
    for comp in product.components():
        piece = product.subgraph(set(comp))
        rank = piece.edge_count - piece.vertex_count + 1
        if rank >= 1:
            core = trim_to_core(piece, keep_basepoint=False)
            edges = frozenset(e for e, *_ in core.edges())
            out.append((rank, product.basepoint in comp, frozenset(core.vertices), edges))
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
        (frozenset(e.core.vertices), frozenset(eid for eid, *_ in e.core.edges()))
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


def _coset_pieces(d):
    """Each entry as (rank, based, sorted vertices, sorted edges, unbased)."""
    return sorted(
        (e.rank, e.based, sorted(e.core.vertices), sorted(e.core.edges()), e.core.basepoint is None)
        for e in d.entries
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(
        ["random", "trivial", "equal", "sub", "stem", "normalized", "circle", "loop_at_branch", "whole"]
    ),
    st.integers(2, 3),
    st.booleans(),
)
def test_double_cosets_match_the_matched_pair_oracle(seed, kind, rank, swap):
    """Reading segments finds the entries that union-find over every
    label-matched edge pair finds, whichever factor is read."""
    H, K = _coset_pair(seed, kind, rank)
    if swap:
        H, K = K, H
    d, oracle = double_cosets(H, K), matched_pair_double_cosets(H, K)
    assert d.ranks == oracle.ranks
    assert [e.based for e in d.entries] == [e.based for e in oracle.entries]
    assert _coset_pieces(d) == _coset_pieces(oracle)
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
    edges = {}
    for v in range(n):
        edges[2 * v] = (0, v, (v + 1) % n)
        edges[2 * v + 1] = (1, v, v)
    return Subgroup.from_core(LabeledGraph(2, range(n), edges, basepoint=0), RANK2)


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
    a_center, b_center = {(0, OUT), (0, IN)}, {(1, OUT), (1, IN)}
    isolated = [
        (x, y)
        for x, y in product.vertices
        if product.valence((x, y)) == 0
        and set(H.graph.vertex_type(x).darts) == a_center
        and set(K.graph.vertex_type(y).darts) == b_center
    ]
    assert len(isolated) == check_squares_construction()["isolated_candidates"] == 4
