"""Labeled graphs: bouquets, folding, trimming, stars, tracing, canonical forms."""

import ast
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import stallings
from stallings import (
    Alphabet,
    LabeledGraph,
    PushoutResult,
    RANK2,
    Word,
    bouquet_of,
    fold_to_immersion,
    subgroup_graph,
    trim_to_core,
)
from stallings.graphs import ImproperLabelingError

from conftest import FIGURE_MEET_WORD, components, graph_of, make, sorted_canonical, sorted_stars, wedge

# direction tags of the edge-record oracles below
OUT, IN = "out", "in"


def folded_core_of(*texts):
    g = fold_to_immersion(bouquet_of([RANK2.word(t) for t in texts], RANK2)).graph
    return trim_to_core(g)


def _plain_bouquet(gens, alphabet=None):
    """The textbook bouquet: one subdivided loop per nonidentity generator,
    wedged at the basepoint 0, with no reading along darts already laid."""
    gens = list(gens)
    alphabet = alphabet or gens[0].alphabet
    edges = []
    next_vertex = 1
    for w in gens:
        prev = 0
        for i, letter in enumerate(w.letters):
            here = 0 if i == len(w.letters) - 1 else next_vertex
            if here != 0:
                next_vertex += 1
            label = abs(letter) - 1
            edges.append((label, prev, here) if letter > 0 else (label, here, prev))
            prev = here
    return graph_of(alphabet.rank, next_vertex, edges, basepoint=0)


# -- construction -------------------------------------------------------------------


def test_graph_rejects_missing_endpoints():
    for edge in ((0, 0, 1), (0, -1, 0), (0, 0, -1)):
        with pytest.raises(ValueError, match="endpoint missing"):
            graph_of(2, 1, [edge])


def test_graph_rejects_bad_labels():
    with pytest.raises(ValueError):
        graph_of(2, 1, [(2, 0, 0)])
    with pytest.raises(ValueError):
        graph_of(2, 1, [(-1, 0, 0)])


def test_graph_rejects_unknown_basepoint():
    for basepoint in (1, -1):
        with pytest.raises(ValueError):
            graph_of(2, 1, basepoint=basepoint)


def test_graph_rejects_ragged_edge_lists_and_projections():
    with pytest.raises(ValueError, match="differ in length"):
        LabeledGraph(2, 2, [0, 1], [0], [1, 0])
    with pytest.raises(ValueError, match="projection lists"):
        graph_of(2, 2, [(0, 0, 1)], projections=([0, 1], [0]))


def test_graph_refuses_a_dart_table_past_the_slot_budget(monkeypatch):
    """A wide alphabet is refused before its ``2 * rank`` slots per vertex
    are allocated: just past the budget, and far past it."""
    assert stallings.graphs.SLOT_BUDGET == 2**24
    for rank in (2**23 + 1, 10**9):
        with pytest.raises(ValueError, match="dart slots"):
            LabeledGraph(rank, 1, [], [], [])
    with pytest.raises(ValueError, match="dart slots"):
        subgroup_graph(["abab"], Alphabet(10**9))
    monkeypatch.setattr(stallings.graphs, "SLOT_BUDGET", 8)
    assert LabeledGraph(2, 2, [], [], [])._slots == [-1] * 8  # at the budget
    with pytest.raises(ValueError, match="12 dart slots"):
        LabeledGraph(2, 3, [], [], [])


# -- bouquets -----------------------------------------------------------------------


def test_bouquet_of_two_letters():
    g = bouquet_of([RANK2.word("a"), RANK2.word("b")], RANK2)
    assert (g.vertex_count, g.edge_count, g.chi) == (1, 2, -1)
    assert g.basepoint is not None


def test_bouquet_of_nothing_is_a_point():
    g = bouquet_of([], RANK2)
    assert (g.vertex_count, g.edge_count, g.chi) == (1, 0, 1)


def test_bouquet_of_length_two_word():
    g = bouquet_of([RANK2.word("ab")], RANK2)
    assert (g.vertex_count, g.edge_count, g.chi) == (2, 2, 0)


def test_bouquet_drops_identity_words():
    g = bouquet_of([RANK2.identity()], RANK2)
    assert (g.vertex_count, g.edge_count) == (1, 0)


def test_bouquet_rejects_mismatched_alphabets():
    with pytest.raises(ValueError, match="mismatched alphabets"):
        bouquet_of([RANK2.word("a"), Alphabet(3).word("c")], RANK2)


def test_bouquet_reads_the_darts_already_laid():
    # "a" is read along the a-loop, so only the b-loop is laid
    g = bouquet_of([RANK2.word("ab"), RANK2.word("a")], RANK2)
    assert (g.vertex_count, g.edge_count) == (1, 2)
    assert g.is_properly_labeled()
    # b c B with c = aB: the stem b and the tail B of c read along the b-loop
    g = bouquet_of([RANK2.word("baBB"), RANK2.word("b")], RANK2)
    assert (g.vertex_count, g.edge_count) == (1, 2)
    assert g.is_properly_labeled()


def test_bouquet_lays_a_conjugate_as_stem_and_loop():
    g = bouquet_of([RANK2.word("abbA")], RANK2)
    assert (g.vertex_count, g.edge_count) == (3, 3)
    assert g.is_properly_labeled()
    assert g.valence(g.basepoint) == 1


def test_bouquet_lays_an_edge_for_a_generator_it_can_read():
    # a generator is never read whole: its last edge clashes, and the fold
    # identifies it
    g = bouquet_of([RANK2.word("a"), RANK2.word("a")], RANK2)
    assert (g.vertex_count, g.edge_count) == (1, 2)
    assert not g.is_properly_labeled()


@st.composite
def _generator_lists(draw):
    """An alphabet of rank 1-3 and generators over it: random words (so
    cyclically unreduced ones and identities), repeats, products and
    conjugates of earlier ones, in any order."""
    alphabet = Alphabet(draw(st.integers(1, 3)))
    letters = st.sampled_from([sign * (i + 1) for i in range(alphabet.rank) for sign in (1, -1)])
    words = [
        Word(alphabet, ls)
        for ls in draw(st.lists(st.lists(letters, max_size=9), min_size=1, max_size=4))
    ]
    for _ in range(draw(st.integers(0, 3))):
        u, v = draw(st.sampled_from(words)), draw(st.sampled_from(words))
        words.append(draw(st.sampled_from([u, u * v, v.conj(u), u * u * ~v])))
    return alphabet, draw(st.permutations(words))


@settings(max_examples=300, deadline=None)
@given(_generator_lists())
def test_bouquet_folds_like_the_plain_bouquet(case):
    alphabet, gens = case
    folded = fold_to_immersion(bouquet_of(gens, alphabet)).graph
    reference = fold_to_immersion(_plain_bouquet(gens, alphabet)).graph
    assert folded.canonical().graph == reference.canonical().graph
    assert trim_to_core(folded).canonical().graph == trim_to_core(reference).canonical().graph


# -- folding ------------------------------------------------------------------------


def test_fold_merges_equal_petals():
    g = fold_to_immersion(bouquet_of([RANK2.word("a"), RANK2.word("a")], RANK2)).graph
    assert (g.vertex_count, g.edge_count) == (1, 1)
    assert g.is_properly_labeled()


def test_fold_is_idempotent():
    g = fold_to_immersion(bouquet_of([RANK2.word("a"), RANK2.word("ab")], RANK2)).graph
    again = fold_to_immersion(g).graph
    assert g.canonical().graph == again.canonical().graph


def test_fold_overlapping_prefix():
    # The petals "a" and "ab" share their first edge; after folding, one
    # a-loop and one b-loop remain at the basepoint.
    g = fold_to_immersion(bouquet_of([RANK2.word("a"), RANK2.word("ab")], RANK2)).graph
    assert (g.vertex_count, g.edge_count, g.chi) == (1, 2, -1)
    assert g.edge_count - g.vertex_count + len(components(g)) == 2


def test_fold_result_maps_cover_the_input():
    bouquet = bouquet_of([RANK2.word("a"), RANK2.word("ab")], RANK2)
    result = fold_to_immersion(bouquet)
    assert len(result.vertex_map) == bouquet.vertex_count
    assert len(result.edge_map) == bouquet.edge_count
    assert sorted(set(result.vertex_map)) == list(result.graph.vertices)
    assert sorted(set(result.edge_map)) == list(range(result.graph.edge_count))


def test_fold_preserves_basepoint_image():
    bouquet = bouquet_of([RANK2.word("ab"), RANK2.word("aB")], RANK2)
    result = fold_to_immersion(bouquet)
    assert result.graph.basepoint == result.vertex_map[bouquet.basepoint]


def test_fold_confluence_under_generator_order():
    texts = ["aBBa", "abbAABA", "ABaba"]
    rng = random.Random(9)
    reference = folded_core_of(*texts)
    for _ in range(6):
        shuffled = texts[:]
        rng.shuffle(shuffled)
        assert folded_core_of(*shuffled).canonical().graph == reference.canonical().graph


def _naive_fold(g):
    """The textbook fold: merge one clash at a time until none is left.

    Returns the folded graph and the original -> surviving vertex and edge
    maps, the survivors keeping their original numbers there.
    """
    vmap = {v: v for v in g.vertices}
    emap = {e: e for e, *_ in g.edges()}
    edges = {e: (label, src, dst) for e, label, src, dst in g.edges()}
    while True:
        holder: dict = {}
        clash = None
        for e, (label, src, dst) in edges.items():
            for key, far in (((src, label, OUT), dst), ((dst, label, IN), src)):
                if key in holder and clash is None:
                    clash = holder[key], e, far
                holder.setdefault(key, (e, far))
        if clash is None:
            break
        (keep, far_keep), drop, far_drop = clash
        del edges[drop]
        emap = {e: keep if image == drop else image for e, image in emap.items()}
        if far_drop != far_keep:
            vmap = {v: far_keep if image == far_drop else image for v, image in vmap.items()}
            edges = {
                e: (label, far_keep if src == far_drop else src, far_keep if dst == far_drop else dst)
                for e, (label, src, dst) in edges.items()
            }
    survivors = sorted(set(vmap.values()))
    new = {v: i for i, v in enumerate(survivors)}
    records = [(label, new[src], new[dst]) for label, src, dst in edges.values()]
    bp = None if g.basepoint is None else new[vmap[g.basepoint]]
    return graph_of(g.rank, len(survivors), records, basepoint=bp), vmap, emap


def _partition(mapping):
    classes: dict = {}
    for x, image in (mapping.items() if isinstance(mapping, dict) else enumerate(mapping)):
        classes.setdefault(image, set()).add(x)
    return sorted(sorted(members, key=repr) for members in classes.values())


def _random_core(rng, rank):
    from stallings.verify import random_subgroup

    return random_subgroup(rng, rng.randint(1, 3), 6, Alphabet(rank))


def _fold_input(kind, seed, rank):
    """A graph with clashes of the kind the package folds: a plain bouquet
    of random words (clash-richer than ``bouquet_of``'s), the same hung from
    a stem edge (so that its clashes sit away from the basepoint), a wedge
    of two cores, or a pushout quotient."""
    from stallings import based_meet_core, double_cosets, topological_pushout
    from stallings.verify import _random_reduced_word

    rng = random.Random(seed)
    if kind in ("bouquet", "stem"):
        words = [
            _random_reduced_word(rng, rng.randint(1, 8), Alphabet(rank))
            for _ in range(rng.randint(1, 4))
        ]
        g = _plain_bouquet(words, Alphabet(rank))
        if kind == "bouquet":
            return g
        # the stem's far end is a new vertex, numbered last
        edges = [(label, src, dst) for _, label, src, dst in g.edges()]
        edges.append((rng.randrange(rank), g.vertex_count, g.basepoint))
        return graph_of(rank, g.vertex_count + 1, edges, basepoint=g.vertex_count)
    H, K = _random_core(rng, rank), _random_core(rng, rank)
    if kind == "wedge":
        return wedge(H.graph, K.graph)[0]
    cores = [based_meet_core(H, K)]
    if rng.random() < 0.5:
        cores += [entry.core for entry in double_cosets(H, K).entries]
    return topological_pushout(H, K, cores).graph


FOLD_INPUTS = st.tuples(
    st.sampled_from(["bouquet", "stem", "wedge", "pushout"]),
    st.integers(0, 2**32 - 1),
    st.integers(2, 3),
)


@settings(max_examples=150, deadline=None)
@given(FOLD_INPUTS)
def test_fold_matches_the_naive_fold(case):
    g = _fold_input(*case)
    result = fold_to_immersion(g)
    reference, vmap, emap = _naive_fold(g)
    assert result.graph.is_properly_labeled()
    assert result.graph.canonical().graph == reference.canonical().graph
    # folding is a quotient map: the identifications themselves are unique
    assert _partition(result.vertex_map) == _partition(vmap)
    assert _partition(result.edge_map) == _partition(emap)
    for e, label, src, dst in g.edges():
        image = list(result.graph.edges())[result.edge_map[e]][1:]
        assert image == (label, result.vertex_map[src], result.vertex_map[dst])


@settings(max_examples=100, deadline=None)
@given(FOLD_INPUTS)
def test_clash_set_matches_a_dart_count(case):
    g = _fold_input(*case)
    darts: dict = {}
    for _, label, src, dst in g.edges():
        for key in ((src, label, OUT), (dst, label, IN)):
            darts[key] = darts.get(key, 0) + 1
    assert set(g._clashes) == {v for (v, _, _), count in darts.items() if count > 1}
    assert g.is_properly_labeled() == (not g._clashes)


@settings(max_examples=100, deadline=None)
@given(FOLD_INPUTS)
def test_rows_and_clashes_match_the_edge_records(case):
    """Each slot holds the first edge of its kind in edge order (-1 where
    none), the clash list every later one, and valence counts both, a loop
    twice; checked on a graph with clashes and on its fold."""
    g = _fold_input(*case)
    for graph in (g, fold_to_immersion(g).graph):
        first, later = {}, {}
        ends = dict.fromkeys(graph.vertices, 0)
        for e, label, src, dst in graph.edges():
            for v, slot in ((src, 2 * label), (dst, 2 * label + 1)):
                ends[v] += 1
                if (v, slot) in first:
                    later.setdefault(v, []).append((slot, e))
                else:
                    first[v, slot] = e
        assert graph._clashes == later
        width = 2 * graph.rank
        assert len(graph._slots) == width * graph.vertex_count
        for v in graph.vertices:
            row = graph._slots[v * width : (v + 1) * width]
            assert row == [first.get((v, slot), -1) for slot in range(width)]
            assert graph.valence(v) == ends[v]
        if graph.is_properly_labeled():
            assert {v: graph.darts(v) for v in graph.vertices} == sorted_stars(graph)


def test_fold_of_a_proper_graph_returns_it():
    g = folded_core_of("ab", "ba")
    result = fold_to_immersion(g)
    assert result.graph is g
    assert list(result.vertex_map) == list(g.vertices)
    assert list(result.edge_map) == list(range(g.edge_count))


# -- trimming -----------------------------------------------------------------------


def test_trim_removes_dangling_tree():
    # A loop at u plus a dangling edge u -> w; the hair goes, the loop stays.
    g = graph_of(2, 2, [(0, 0, 0), (1, 0, 1)], basepoint=0)
    t = trim_to_core(g)
    assert (t.vertex_count, t.edge_count) == (1, 1)
    assert t.basepoint == 0


def test_trim_single_vertex():
    g = graph_of(2, 1, basepoint=0)
    t = trim_to_core(g)
    assert (t.vertex_count, t.edge_count) == (1, 0)


def test_trim_keeps_extremal_basepoint():
    # Folded "abA": an a-edge from the basepoint into a b-loop.  The
    # basepoint is extremal but survives trimming by default.
    g = fold_to_immersion(bouquet_of([RANK2.word("abA")], RANK2)).graph
    t = trim_to_core(g)
    assert (t.vertex_count, t.edge_count) == (2, 2)
    assert t.valence(t.basepoint) == 1
    assert sum(1 for v in t.vertices if t.valence(v) <= 1) == 1


def test_trim_without_basepoint_protection():
    g = fold_to_immersion(bouquet_of([RANK2.word("abA")], RANK2)).graph
    t = trim_to_core(g, keep_basepoint=False)
    assert (t.vertex_count, t.edge_count) == (1, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3))
def test_trim_returns_a_core_itself(seed, rank):
    g = _random_core(random.Random(seed), rank).graph
    assert trim_to_core(g) is g
    trimmed = trim_to_core(g, keep_basepoint=False)
    if g.valence(g.basepoint) >= 2:
        assert trimmed is not g and trimmed == g.with_basepoint(None)
    else:
        assert trimmed.vertex_count < g.vertex_count


def test_trim_that_cuts_builds_a_new_graph():
    g = graph_of(2, 2, [(0, 0, 0), (1, 0, 1)], basepoint=0)
    t = trim_to_core(g)
    assert t is not g and trim_to_core(t) is t


def test_trim_renumbers_the_survivors_and_carries_projections():
    # hair 0 -> 1 -> 2 (a loop at 2) with the basepoint at 2: vertices 0 and
    # 1 go, and the loop's vertex becomes 0 with its coordinates
    g = graph_of(2, 3, [(0, 0, 1), (1, 1, 2), (0, 2, 2)], basepoint=2, projections=([5, 6, 7], [8, 9, 4]))
    t = trim_to_core(g)
    assert (t.vertex_count, list(t.edges()), t.basepoint) == (1, [(0, 0, 0, 0)], 0)
    assert t.projections == ([7], [4])


# -- stats and types ----------------------------------------------------------------


def test_stats_of_two_petal_rose():
    g = folded_core_of("a", "b")
    assert (g.chi, g.valence(g.basepoint)) == (-1, 4)
    assert components(g) == [[g.basepoint]]


def test_stats_of_point():
    g = bouquet_of([], RANK2)
    assert (g.chi, g.vertex_count, g.edge_count) == (1, 1, 0)
    assert components(g) == [[g.basepoint]]


def test_vertex_type_and_same_type():
    # a vertex's type is the letters of its star
    def letters(g):
        return [letter for letter, _, _ in g.darts(g.basepoint)]

    assert letters(folded_core_of("a", "b")) == [1, -1, 2, -2]
    assert letters(folded_core_of("ab")) == [1, -2]
    assert letters(folded_core_of("aa")) == [1, -1]


def test_valence_counts_loops_twice():
    g = folded_core_of("a")
    assert g.valence(g.basepoint) == 2


# -- tracing ------------------------------------------------------------------------


def test_trace_loop_word():
    g = folded_core_of("a")
    res = g.trace(g.basepoint, RANK2.word("aaa"))
    assert res.ok and res.vertex == g.basepoint


def test_trace_failure_reports_position():
    g = folded_core_of("a")
    res = g.trace(g.basepoint, RANK2.word("b"))
    assert not res.ok and res.failed_at == 0
    # a label past the graph's rank has no slot, so it cannot be read either
    res = g.trace(g.basepoint, Alphabet(3).word("aC"))
    assert not res.ok and res.failed_at == 1


def test_trace_failure_mid_word():
    g = folded_core_of("ab")
    res = g.trace(g.basepoint, RANK2.word("aa"))
    assert not res.ok and res.failed_at == 1


def test_trace_figure_meet_word_closes():
    H = make("aBBa", "abbAABA", "ABaba")
    res = H.graph.trace(H.graph.basepoint, RANK2.word(FIGURE_MEET_WORD))
    assert res.ok and res.vertex == H.graph.basepoint


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8))
def test_trace_concatenation_composes(letters):
    from stallings import Word

    g = folded_core_of("a", "bab")
    w = Word(RANK2, letters)
    head, tail = w.letters[: len(w.letters) // 2], w.letters[len(w.letters) // 2 :]
    whole = g.trace(g.basepoint, w)
    first = g.trace(g.basepoint, Word(RANK2, list(head)))
    if first.ok:
        rest = g.trace(first.vertex, Word(RANK2, list(tail)))
        # Reduction may cancel across the split, so only compare end vertices
        # when both traversals survive.
        if rest.ok and whole.ok:
            assert rest.vertex == whole.vertex


# -- proper labeling ----------------------------------------------------------------


def test_bouquet_of_distinct_words_may_be_improper():
    g = _plain_bouquet([RANK2.word("a"), RANK2.word("ab")])
    assert not g.is_properly_labeled()


def test_improper_graph_refuses_traces():
    g = _plain_bouquet([RANK2.word("a"), RANK2.word("ab")])
    # refused before any letter is read, so even the empty word
    for text in ("", "a", "B"):
        with pytest.raises(ImproperLabelingError):
            g.trace(g.basepoint, RANK2.word(text))


def _has_duplicate_darts(g):
    """Brute force: some vertex has two out-edges or two in-edges of one label."""
    kinds = [(src, label, OUT) for _, label, src, _ in g.edges()]
    kinds += [(dst, label, IN) for _, label, _, dst in g.edges()]
    return len(set(kinds)) != len(kinds)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=6), max_size=4))
def test_properness_agrees_with_a_per_vertex_scan(gens):
    words = [Word(RANK2, letters) for letters in gens]
    for g in (_plain_bouquet(words, RANK2), bouquet_of(words, RANK2)):
        assert g.is_properly_labeled() == (not _has_duplicate_darts(g))


def _one_letter_traces_match_a_scan(g):
    """Every one-letter word, of either sign and every label plus one past
    the rank, traced from every vertex: ``l > 0`` follows the first edge of
    label ``l - 1`` out of the vertex to its target, ``l < 0`` the first one
    into it back to its source, and a letter with no such edge fails at 0."""
    wide = Alphabet(g.rank + 1)
    for v in g.vertices:
        for label in range(g.rank + 1):
            for letter, near, far in ((label + 1, 2, 3), (-label - 1, 3, 2)):
                scanned = [e[far] for e in g.edges() if e[1] == label and e[near] == v]
                expected = (scanned[0], None) if scanned else (None, 0)
                assert g.trace(v, Word(wide, [letter])) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3))
def test_one_letter_traces_agree_with_a_linear_scan(seed, count, rank):
    from stallings.verify import random_subgroup

    g = random_subgroup(random.Random(seed), count, 6, Alphabet(rank)).graph
    assert g.is_properly_labeled()
    _one_letter_traces_match_a_scan(g)


def test_one_letter_traces_read_loops_both_ways():
    # a loop fills both slots of its label, and edges come out of label order
    g = graph_of(3, 2, [(2, 1, 1), (1, 0, 1), (0, 1, 0), (0, 0, 1)])
    _one_letter_traces_match_a_scan(g)
    loop = Alphabet(3).word("c")
    assert g.trace(1, loop) == g.trace(1, ~loop) == (1, None)


def test_darts_come_by_label_outgoing_first():
    # edges given out of label order; a loop gives both of its darts
    s, p, q, r = range(4)
    g = graph_of(3, 2, [(2, 1, 1), (1, 0, 1), (0, 1, 0), (0, 0, 1)])
    assert g.darts(0) == ((1, r, 1), (-1, q, 1), (2, p, 1))
    assert g.darts(1) == ((1, q, 0), (-1, r, 0), (-2, p, 0), (3, s, 1), (-3, s, 1))
    assert components(g) == [[0, 1]]


def test_improper_graph_refuses_star_walks():
    # two incoming a-darts at vertex 0
    g = graph_of(2, 2, [(1, 0, 1), (0, 1, 0), (0, 0, 0)])
    with pytest.raises(ImproperLabelingError):
        g.darts(1)


def test_trace_from_a_missing_vertex_is_a_value_error():
    g = folded_core_of("ab")
    with pytest.raises(ValueError, match="not in graph"):
        g.trace("nowhere", RANK2.word("a"))
    # a negative number is no vertex either, though it would index a list
    for v in (-1, g.vertex_count):
        with pytest.raises(ValueError, match="not in graph"):
            g.trace(v, RANK2.word("a"))
        with pytest.raises(ValueError, match="not in graph"):
            g.darts(v)


# -- combination and canonical forms ------------------------------------------------


def test_wedge_glues_basepoints():
    g1, g2 = folded_core_of("a"), folded_core_of("b")
    w, map1, map2 = wedge(g1, g2)
    assert w.vertex_count == 1 and w.edge_count == 2
    assert map1[g1.basepoint] == map2[g2.basepoint] == w.basepoint


def test_canonical_is_stable_under_relabeling():
    g = make("a", "bab").graph
    renamed = _scrambled(g, random.Random(3), g.basepoint)
    assert renamed != g
    assert renamed.canonical().graph == g.canonical().graph


def test_canonical_distinguishes_basepoints():
    g = fold_to_immersion(bouquet_of([RANK2.word("abA")], RANK2)).graph
    core = trim_to_core(g)
    rebased = core.with_basepoint(
        next(v for v in core.vertices if v != core.basepoint)
    )
    assert core.canonical().graph != rebased.canonical().graph
    assert sorted_canonical(core, based=False).graph == sorted_canonical(rebased, based=False).graph


def test_rebasing_shares_the_tables_and_refuses_a_missing_vertex():
    core = make("a", "bab").graph
    last = core.vertex_count - 1
    rebased = core.with_basepoint(last)
    assert (rebased.basepoint, core.basepoint) == (last, 0)
    assert rebased._slots is core._slots
    assert rebased._clashes is core._clashes and rebased._degree is core._degree
    assert list(rebased.edges()) == list(core.edges())
    for v in (-1, core.vertex_count):
        with pytest.raises(ValueError, match="missing from vertex set"):
            core.with_basepoint(v)


def test_subgraph_refuses_vertices_it_does_not_have():
    """A negative id would wrap, a large one would index past the end, and a
    repeated one would number a phantom vertex."""
    path = graph_of(2, 3, [(0, 0, 1), (1, 1, 2)])
    for keep in ([-1, 0], [0, 5], [0, 0, 1]):
        with pytest.raises(ValueError):
            path.subgraph(keep)
    for basepoint in (-1, 3):
        with pytest.raises(ValueError):
            path.subgraph([0, 1, 2], basepoint=basepoint)
    sub = path.subgraph([2, 1], basepoint=2)
    assert (list(sub.edges()), sub.basepoint) == ([(0, 1, 0, 1)], 1)


def test_subgroup_cores_are_already_canonical():
    g = make("a", "bab").graph
    assert g == g.canonical().graph


def _scrambled(g, rng, basepoint):
    """``g`` with its vertices and edges renumbered by random permutations."""
    rename = list(g.vertices)
    rng.shuffle(rename)
    records = list(g.edges())
    rng.shuffle(records)
    edges = [(label, rename[s], rename[d]) for _, label, s, d in records]
    bp = None if basepoint is None else rename[basepoint]
    return graph_of(g.rank, g.vertex_count, edges, basepoint=bp)


@st.composite
def canonical_cases(draw):
    """A properly labeled graph: a random core, a core hung on a stem, a
    double-coset core, or a disjoint union of two cores (so a basepoint
    walk need not cover it), renumbered at random, with a drawn basepoint."""
    from stallings import double_cosets
    from stallings.verify import _random_reduced_word, random_subgroup

    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["random", "stem", "coset", "union"]))
    H = random_subgroup(rng, rng.randint(1, 3), 6)
    if kind == "random":
        g = H.graph
    elif kind == "stem":
        g = H.conj(_random_reduced_word(rng, rng.randint(1, 4), RANK2)).graph
    elif kind == "coset":
        K = H if rng.random() < 0.5 else random_subgroup(rng, rng.randint(1, 3), 4)
        entries = double_cosets(H, K).entries
        g = rng.choice(entries).core if entries else H.graph
    else:
        other = H if rng.random() < 0.3 else random_subgroup(rng, rng.randint(1, 2), 4)
        n = H.graph.vertex_count  # the other core's vertices are numbered after H's
        g = graph_of(
            H.graph.rank,
            n + other.graph.vertex_count,
            [(label, s, d) for _, label, s, d in H.graph.edges()]
            + [(label, n + s, n + d) for _, label, s, d in other.graph.edges()],
            basepoint=H.graph.basepoint,
        )
    where = draw(st.sampled_from(["own", "any", "none"]))
    if where == "any":
        basepoint = rng.choice(g.vertices)
    else:
        basepoint = g.basepoint if where == "own" else None
    return _scrambled(g, rng, basepoint)


@settings(max_examples=200, deadline=None)
@given(canonical_cases())
def test_canonical_matches_the_sorted_renumbering(g):
    """A based, connected graph gets the sorted renumbering; an unbased one,
    or one with a component the basepoint's walk misses, is refused."""
    if g.basepoint is not None and len(components(g)) == 1:
        got, want = g.canonical(), sorted_canonical(g)
        assert got.graph == want.graph
        assert got.vertex_map == want.vertex_map
    else:
        with pytest.raises(ValueError):
            g.canonical()


@settings(max_examples=200, deadline=None)
@given(canonical_cases())
def test_darts_match_the_sorted_edge_records(g):
    stars = sorted_stars(g)
    assert {v: g.darts(v) for v in g.vertices} == stars


def test_canonical_refuses_an_uncovered_basepoint_component():
    # two components, the basepoint in the larger one
    g = graph_of(2, 3, [(0, 2, 2), (0, 0, 1), (1, 1, 0)], basepoint=0)
    with pytest.raises(ValueError, match="does not reach every vertex"):
        g.canonical()
    with pytest.raises(ValueError, match="needs a basepoint"):
        g.with_basepoint(None).canonical()
    # the larger component alone is covered, and numbered as before
    covered = g.subgraph({0, 1}, basepoint=0)
    assert list(covered.edges()) == [(0, 0, 0, 1), (1, 1, 1, 0)]
    form = covered.canonical()
    assert form.vertex_map == [0, 1]
    assert form == sorted_canonical(covered)


def test_to_dot_output_mentions_basepoint():
    g = make("a").graph
    dot = g.to_dot()
    assert dot.startswith("digraph")
    assert "doublecircle" in dot


def test_to_dot_numbers_uncovered_graphs_by_sorted_ids():
    # a properly labeled two-component graph, based and unbased
    g = graph_of(2, 3, [(0, 2, 2), (0, 0, 1), (1, 1, 0)], basepoint=2)
    for graph in (g, g.with_basepoint(None)):
        dot = graph.to_dot()
        assert '  0 -> 1 [label="a", color=black];' in dot
        assert '  1 -> 0 [label="b", color=red2];' in dot
        assert '  2 -> 2 [label="a", color=black];' in dot
    assert '2 [shape=doublecircle' in g.to_dot()
    assert "doublecircle" not in g.with_basepoint(None).to_dot()


# -- Euler characteristic vs valence ------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_branch_excess_accounts_for_chi(seed, count):
    """-chi equals half the total valence excess on extremal-free cores."""
    from stallings.verify import random_subgroup

    rng = random.Random(seed)
    g = random_subgroup(rng, count, 6).graph
    if any(g.valence(v) <= 1 for v in g.vertices):
        return
    excess = sum(g.valence(v) - 2 for v in g.vertices)
    assert excess == -2 * g.chi


def test_components_cover_vertices():
    # a loop labeled a at "x" and a loop labeled b at "y"
    g = graph_of(2, 2, [(0, 0, 0), (1, 1, 1)])
    comps = components(g)
    assert len(comps) == 2
    assert sorted(v for comp in comps for v in comp) == sorted(g.vertices)


# -- API surface ----------------------------------------------------------------------


def _names_read_in_the_package() -> set:
    """Every name loaded and every attribute read by a module of the package,
    outside the definitions enclosing the read (so a recursive call does not
    count); imports and ``__all__`` hold no such read."""
    read = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        else:
            name = None
        if name is not None and name not in enclosing:
            read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in pathlib.Path(stallings.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return read


def test_every_public_name_has_a_reader_in_the_package():
    """Every name in ``stallings.__all__`` and every public ``PushoutResult``
    member is read somewhere in the package.  ``normalize_pair`` and
    ``PushoutResult.folded_core`` are read only by ``bench/tracing.py``, the
    benchmark's traced replica of ``check_instance``; they stay until the
    benchmark traces the real pipeline (ROADMAP item 1(b))."""
    public = list(stallings.__all__)
    public += [name for name in vars(PushoutResult) if not name.startswith("_")]
    read = _names_read_in_the_package()
    assert sorted(name for name in public if name not in read) == ["folded_core", "normalize_pair"]


def test_every_public_graph_member_has_a_caller_in_the_package():
    """A public ``LabeledGraph`` member that no module of the package reads
    is API kept only for tests; it belongs in the tests' oracles instead."""
    read = set()
    for path in pathlib.Path(stallings.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
    public = [name for name in vars(LabeledGraph) if not name.startswith("_")]
    assert public and [name for name in public if name not in read] == []
