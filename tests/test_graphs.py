"""Labeled graphs: bouquets, folding, trimming, stats, tracing, canonical forms."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from stallings import (
    IN,
    OUT,
    Alphabet,
    LabeledGraph,
    RANK2,
    Word,
    bouquet_of,
    fold_to_immersion,
    subgroup_graph,
    trim_to_core,
)
from stallings.graphs import ImproperLabelingError

from conftest import FIGURE_MEET_WORD, make, sorted_canonical, wedge


def folded_core_of(*texts):
    g = fold_to_immersion(bouquet_of([RANK2.word(t) for t in texts])).graph
    return trim_to_core(g)


def _plain_bouquet(gens, alphabet=None):
    """The textbook bouquet: one subdivided loop per nonidentity generator,
    wedged at the basepoint 0, with no reading along darts already laid."""
    gens = list(gens)
    alphabet = alphabet or gens[0].alphabet
    edges: dict = {}
    next_vertex = 1
    for w in gens:
        prev = 0
        for i, letter in enumerate(w.letters):
            here = 0 if i == len(w.letters) - 1 else next_vertex
            if here != 0:
                next_vertex += 1
            label = abs(letter) - 1
            edges[len(edges)] = (label, prev, here) if letter > 0 else (label, here, prev)
            prev = here
    return LabeledGraph(alphabet.rank, range(next_vertex), edges, basepoint=0)


# -- construction -------------------------------------------------------------------


def test_graph_rejects_missing_endpoints():
    with pytest.raises(ValueError):
        LabeledGraph(2, ["v"], {0: (0, "v", "w")})


def test_graph_rejects_bad_labels():
    with pytest.raises(ValueError):
        LabeledGraph(2, ["v"], {0: (2, "v", "v")})
    with pytest.raises(ValueError):
        LabeledGraph(2, ["v"], {0: (-1, "v", "v")})


def test_graph_rejects_unknown_basepoint():
    with pytest.raises(ValueError):
        LabeledGraph(2, ["v"], {}, basepoint="w")


# -- bouquets -----------------------------------------------------------------------


def test_bouquet_of_two_letters():
    g = bouquet_of([RANK2.word("a"), RANK2.word("b")])
    assert (g.vertex_count, g.edge_count, g.chi) == (1, 2, -1)
    assert g.basepoint is not None


def test_bouquet_of_nothing_is_a_point():
    g = bouquet_of([], RANK2)
    assert (g.vertex_count, g.edge_count, g.chi) == (1, 0, 1)


def test_bouquet_of_length_two_word():
    g = bouquet_of([RANK2.word("ab")])
    assert (g.vertex_count, g.edge_count, g.chi) == (2, 2, 0)


def test_bouquet_drops_identity_words():
    g = bouquet_of([RANK2.identity()], RANK2)
    assert (g.vertex_count, g.edge_count) == (1, 0)


def test_bouquet_rejects_mismatched_alphabets():
    with pytest.raises(ValueError, match="mismatched alphabets"):
        bouquet_of([RANK2.word("a"), Alphabet(3).word("c")])


def test_bouquet_reads_the_darts_already_laid():
    # "a" is read along the a-loop, so only the b-loop is laid
    g = bouquet_of([RANK2.word("ab"), RANK2.word("a")])
    assert (g.vertex_count, g.edge_count) == (1, 2)
    assert g.is_properly_labeled()
    # b c B with c = aB: the stem b and the tail B of c read along the b-loop
    g = bouquet_of([RANK2.word("baBB"), RANK2.word("b")])
    assert (g.vertex_count, g.edge_count) == (1, 2)
    assert g.is_properly_labeled()


def test_bouquet_lays_a_conjugate_as_stem_and_loop():
    g = bouquet_of([RANK2.word("abbA")])
    assert (g.vertex_count, g.edge_count) == (3, 3)
    assert g.is_properly_labeled()
    assert g.valence(g.basepoint) == 1


def test_bouquet_lays_an_edge_for_a_generator_it_can_read():
    # a generator is never read whole: its last edge clashes, and the fold
    # identifies it
    g = bouquet_of([RANK2.word("a"), RANK2.word("a")])
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
    assert folded.isomorphic(reference)
    assert trim_to_core(folded).canonical().graph == trim_to_core(reference).canonical().graph


# -- folding ------------------------------------------------------------------------


def test_fold_merges_equal_petals():
    g = fold_to_immersion(bouquet_of([RANK2.word("a"), RANK2.word("a")])).graph
    assert (g.vertex_count, g.edge_count) == (1, 1)
    assert g.is_properly_labeled()


def test_fold_is_idempotent():
    g = fold_to_immersion(bouquet_of([RANK2.word("a"), RANK2.word("ab")])).graph
    again = fold_to_immersion(g).graph
    assert g.isomorphic(again)


def test_fold_overlapping_prefix():
    # The petals "a" and "ab" share their first edge; after folding, one
    # a-loop and one b-loop remain at the basepoint.
    g = fold_to_immersion(bouquet_of([RANK2.word("a"), RANK2.word("ab")])).graph
    assert (g.vertex_count, g.edge_count, g.chi) == (1, 2, -1)
    assert g.stats().rank == 2


def test_fold_result_maps_cover_the_input():
    bouquet = bouquet_of([RANK2.word("a"), RANK2.word("ab")])
    result = fold_to_immersion(bouquet)
    assert set(result.vertex_map) == set(bouquet.vertices)
    assert set(result.edge_map) == {e for e, _, _, _ in bouquet.edges()}
    for v, image in result.vertex_map.items():
        assert result.graph.has_vertex(image)


def test_fold_preserves_basepoint_image():
    bouquet = bouquet_of([RANK2.word("ab"), RANK2.word("aB")])
    result = fold_to_immersion(bouquet)
    assert result.graph.basepoint == result.vertex_map[bouquet.basepoint]


def test_fold_confluence_under_generator_order():
    texts = ["aBBa", "abbAABA", "ABaba"]
    rng = random.Random(9)
    reference = folded_core_of(*texts)
    for _ in range(6):
        shuffled = texts[:]
        rng.shuffle(shuffled)
        assert folded_core_of(*shuffled).isomorphic(reference)


def _naive_fold(g):
    """The textbook fold: merge one clash at a time until none is left.

    Returns the folded graph and the original -> surviving vertex and edge
    maps.
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
    bp = None if g.basepoint is None else vmap[g.basepoint]
    return LabeledGraph(g.rank, dict.fromkeys(vmap.values()), edges, basepoint=bp), vmap, emap


def _partition(mapping):
    classes: dict = {}
    for x, image in mapping.items():
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
        edges = {e: (label, src, dst) for e, label, src, dst in g.edges()}
        edges[-1] = (rng.randrange(rank), -1, g.basepoint)
        return LabeledGraph(rank, [-1, *g.vertices], edges, basepoint=-1)
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
    assert result.graph.isomorphic(reference)
    # folding is a quotient map: the identifications themselves are unique
    assert _partition(result.vertex_map) == _partition(vmap)
    assert _partition(result.edge_map) == _partition(emap)
    for e, label, src, dst in g.edges():
        image = result.graph.edge(result.edge_map[e])
        assert image == (label, result.vertex_map[src], result.vertex_map[dst])


@settings(max_examples=100, deadline=None)
@given(FOLD_INPUTS)
def test_clash_set_matches_a_dart_count(case):
    g = _fold_input(*case)
    darts: dict = {}
    for _, label, src, dst in g.edges():
        for key in ((src, label, OUT), (dst, label, IN)):
            darts[key] = darts.get(key, 0) + 1
    assert g._clashes == {v for (v, _, _), count in darts.items() if count > 1}
    assert g.is_properly_labeled() == (not g._clashes)


def test_fold_of_a_proper_graph_returns_it():
    g = folded_core_of("ab", "ba")
    result = fold_to_immersion(g)
    assert result.graph is g
    assert result.vertex_map == {v: v for v in g.vertices}


# -- trimming -----------------------------------------------------------------------


def test_trim_removes_dangling_tree():
    # A loop at u plus a dangling edge u -> w; the hair goes, the loop stays.
    g = LabeledGraph(2, ["u", "w"], {0: (0, "u", "u"), 1: (1, "u", "w")}, basepoint="u")
    t = trim_to_core(g)
    assert (t.vertex_count, t.edge_count) == (1, 1)
    assert t.basepoint == "u"


def test_trim_single_vertex():
    g = LabeledGraph(2, ["u"], {}, basepoint="u")
    t = trim_to_core(g)
    assert (t.vertex_count, t.edge_count) == (1, 0)


def test_trim_keeps_extremal_basepoint():
    # Folded "abA": an a-edge from the basepoint into a b-loop.  The
    # basepoint is extremal but survives trimming by default.
    g = fold_to_immersion(bouquet_of([RANK2.word("abA")])).graph
    t = trim_to_core(g)
    assert (t.vertex_count, t.edge_count) == (2, 2)
    assert t.valence(t.basepoint) == 1
    assert t.stats().extremal_count == 1


def test_trim_without_basepoint_protection():
    g = fold_to_immersion(bouquet_of([RANK2.word("abA")])).graph
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
    g = LabeledGraph(2, ["u", "w"], {0: (0, "u", "u"), 1: (1, "u", "w")}, basepoint="u")
    t = trim_to_core(g)
    assert t is not g and trim_to_core(t) is t


# -- stats and types ----------------------------------------------------------------


def test_stats_of_two_petal_rose():
    g = folded_core_of("a", "b")
    s = g.stats()
    assert (s.chi, s.rank, s.branch_count, s.max_valence) == (-1, 2, 1, 4)
    assert s.component_count == 1


def test_stats_of_point():
    s = bouquet_of([], RANK2).stats()
    assert (s.chi, s.rank, s.branch_count) == (1, 0, 0)


def test_vertex_type_and_same_type():
    g = folded_core_of("a", "b")
    bp = g.basepoint
    t = g.vertex_type(bp)
    assert t.valence == 4
    assert t.darts == ((0, IN), (0, OUT), (1, IN), (1, OUT))
    h = folded_core_of("ab")
    assert h.vertex_type(h.basepoint).darts == ((0, OUT), (1, IN))
    k = folded_core_of("aa")
    assert k.vertex_type(k.basepoint).darts == ((0, IN), (0, OUT))
    assert k.vertex_type(k.basepoint) != h.vertex_type(h.basepoint)


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


def test_improper_graph_rejects_dart_queries():
    g = _plain_bouquet([RANK2.word("a"), RANK2.word("ab")])
    with pytest.raises(ImproperLabelingError):
        g.dart_edge(g.basepoint, 0, OUT)


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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_dart_edge_agrees_with_a_linear_scan(seed, count):
    from stallings.verify import random_subgroup

    g = random_subgroup(random.Random(seed), count, 6).graph
    assert g.is_properly_labeled()
    for v in g.vertices:
        for direction, end in ((OUT, 2), (IN, 3)):
            for label in range(g.rank):
                scanned = [e[0] for e in g.edges() if e[1] == label and e[end] == v]
                assert g.dart_edge(v, label, direction) == (scanned[0] if scanned else None)


def test_darts_come_by_label_outgoing_first():
    # improperly labeled: two incoming a-darts at vertex 0
    g = LabeledGraph(2, [0, 1], {"p": (1, 0, 1), "q": (0, 1, 0), "r": (0, 0, 0)})
    assert g.darts(0) == ((1, "r", 0), (-1, "q", 1), (-1, "r", 0), (2, "p", 1))
    assert g.darts(1) == ((1, "q", 0), (-2, "p", 0))
    assert g.components() == [[0, 1]]


def test_dart_edge_on_a_missing_vertex_is_a_key_error():
    g = folded_core_of("ab")
    with pytest.raises(KeyError):
        g.dart_edge("nowhere", 0, OUT)


# -- combination and canonical forms ------------------------------------------------


def test_wedge_glues_basepoints():
    g1, g2 = folded_core_of("a"), folded_core_of("b")
    w, map1, map2 = wedge(g1, g2)
    assert w.vertex_count == 1 and w.edge_count == 2
    assert map1[g1.basepoint] == map2[g2.basepoint] == w.basepoint


def test_canonical_is_stable_under_relabeling():
    g = make("a", "bab").graph
    renamed = g.relabeled({v: ("wrapped", v) for v in g.vertices})
    assert renamed.canonical().graph == g.canonical().graph


def test_canonical_distinguishes_basepoints():
    g = fold_to_immersion(bouquet_of([RANK2.word("abA")])).graph
    core = trim_to_core(g)
    rebased = core.with_basepoint(
        next(v for v in core.vertices if v != core.basepoint)
    )
    assert not core.isomorphic(rebased)
    assert core.isomorphic(rebased, based=False)


def test_subgroup_cores_are_already_canonical():
    g = make("a", "bab").graph
    assert g == g.canonical().graph


def _scrambled(g, rng, basepoint):
    """``g`` with fresh vertex and edge ids, listed in a shuffled order."""
    vertices = list(g.vertices)
    rng.shuffle(vertices)
    rename = {v: ("v", i) for i, v in enumerate(vertices)}
    records = list(g.edges())
    rng.shuffle(records)
    edges = {("e", i): (label, rename[s], rename[d]) for i, (_, label, s, d) in enumerate(records)}
    bp = None if basepoint is None else rename[basepoint]
    return LabeledGraph(g.rank, list(rename.values()), edges, basepoint=bp)


@st.composite
def canonical_cases(draw):
    """A properly labeled graph: a random core, a core hung on a stem, a
    double-coset core, or a disjoint union of two cores (so a basepoint
    walk need not cover it), with ids scrambled and a drawn basepoint."""
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
        g = LabeledGraph(
            H.graph.rank,
            [(0, v) for v in H.graph.vertices] + [(1, v) for v in other.graph.vertices],
            {(side, e): (label, (side, s), (side, d))
             for side, part in ((0, H.graph), (1, other.graph))
             for e, label, s, d in part.edges()},
            basepoint=(0, H.graph.basepoint),
        )
    where = draw(st.sampled_from(["own", "any", "none"]))
    if where == "any":
        basepoint = rng.choice(g.vertices)
    else:
        basepoint = g.basepoint if where == "own" else None
    return _scrambled(g, rng, basepoint)


@settings(max_examples=200, deadline=None)
@given(canonical_cases(), st.booleans())
def test_canonical_matches_the_sorted_renumbering(g, based):
    got, want = g.canonical(based=based), sorted_canonical(g, based=based)
    assert got.graph == want.graph
    assert got.vertex_map == want.vertex_map
    assert got.edge_map == want.edge_map


def test_canonical_numbers_an_uncovered_basepoint_component_first():
    # two components, the basepoint in the larger one
    g = LabeledGraph(2, "xyz", {"p": (0, "z", "z"), "q": (0, "x", "y"), "r": (1, "y", "x")}, basepoint="x")
    form = g.canonical()
    assert form.vertex_map == {"x": 0, "y": 1, "z": 2}
    assert form.edge_map == {"q": 0, "r": 1, "p": 2}
    assert form.graph.basepoint == 0
    assert form == sorted_canonical(g)


def test_to_dot_output_mentions_basepoint():
    g = make("a").graph
    dot = g.to_dot()
    assert dot.startswith("digraph")
    assert "doublecircle" in dot


# -- Euler characteristic vs valence ------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_branch_excess_accounts_for_chi(seed, count):
    """-chi equals half the total valence excess on extremal-free cores."""
    from stallings.verify import random_subgroup

    rng = random.Random(seed)
    g = random_subgroup(rng, count, 6).graph
    if g.stats().extremal_count:
        return
    excess = sum(g.valence(v) - 2 for v in g.vertices)
    assert excess == -2 * g.chi


def test_components_cover_vertices():
    # a loop labeled a at "x" and a loop labeled b at "y"
    g = LabeledGraph(2, ["x", "y"], {0: (0, "x", "x"), 1: (1, "y", "y")})
    assert g.stats().component_count == 2
    comps = g.components()
    assert sorted(v for comp in comps for v in comp) == sorted(g.vertices)
