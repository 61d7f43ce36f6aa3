"""Subgroups: cores, membership, bases, 3-regularization, pair normalization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from stallings import (
    Alphabet,
    RANK2,
    Subgroup,
    Word,
    basis,
    based_meet_core,
    membership,
    normalize_pair,
    subgroup_from_spec,
    subgroup_graph,
    three_regularize,
)
from stallings.core import _spanning_tree
from stallings.verify import (
    _normalize_with_meet,
    _path_word,
    _random_reduced_word,
    _rebased,
    _stem,
    random_subgroup,
)

from conftest import FIGURE_LEFT, FIGURE_MEET_WORD, FIGURE_RIGHT, graph_of, make, stepwise_normalize


# -- core construction --------------------------------------------------------------


def test_known_core_shape():
    H = make("a", "bab")
    assert (H.graph.vertex_count, H.graph.edge_count) == (3, 4)
    assert (H.graph.chi, H.rank) == (-1, 2)


def test_trivial_subgroup():
    H = subgroup_graph([], RANK2)
    assert H.is_trivial and H.rank == 0
    assert H.graph.vertex_count == 1 and H.graph.edge_count == 0


def test_identity_generators_are_dropped():
    H = subgroup_graph([RANK2.identity(), RANK2.word("a")], RANK2)
    assert H.generators == (RANK2.word("a"),)
    assert H.rank == 1


def test_figure_cores():
    H, K = make(*FIGURE_LEFT), make(*FIGURE_RIGHT)
    assert H.rank == 3 and K.rank == 2


def test_core_independent_of_generator_order_and_inversion():
    H = make("a", "bab")
    assert make("bab", "a") == H
    assert make("A", "BAB") == H
    assert make("a", "bab", "abab") == H  # redundant generator


def test_string_generators_are_parsed():
    assert subgroup_graph(["a", "bab"], RANK2) == make("a", "bab")


def test_spec_dict_round_trip():
    H = make("a", "bab")
    again = subgroup_from_spec(H.spec_dict())
    assert again == H
    assert again.spec_dict() == H.spec_dict()


def test_subgroup_from_spec_validates():
    with pytest.raises(ValueError):
        subgroup_from_spec({"alphabet_rank": 0, "generators": ["a"]})
    with pytest.raises(ValueError):
        subgroup_from_spec({"alphabet_rank": 2})
    with pytest.raises(ValueError, match="alphabet_rank"):
        subgroup_from_spec({"alphabet_rank": True, "generators": ["a"]})
    with pytest.raises(ValueError, match="generators"):
        subgroup_from_spec({"generators": [1]})
    with pytest.raises(ValueError, match="generators"):
        subgroup_from_spec({"alphabet_rank": 26, "generators": [True]})
    with pytest.raises(ValueError, match="generators"):
        subgroup_from_spec({"generators": ["a", None]})
    with pytest.raises(ValueError, match="'alphabet_rnak'"):
        subgroup_from_spec({"alphabet_rnak": 3, "generators": ["a"]})


# -- wrapping a core ----------------------------------------------------------------


def test_from_core_needs_a_basepoint():
    g = graph_of(2, 1, [(0, 0, 0)])
    with pytest.raises(ValueError, match="needs a basepoint"):
        Subgroup.from_core(g, RANK2)


def test_from_core_needs_a_proper_labeling():
    g = graph_of(2, 1, [(0, 0, 0), (0, 0, 0)], basepoint=0)
    with pytest.raises(ValueError, match="must be properly labeled"):
        Subgroup.from_core(g, RANK2)


def test_from_core_needs_a_connected_core():
    # an a-loop at the basepoint and a b-loop at a vertex it cannot reach
    g = graph_of(2, 2, [(0, 0, 0), (1, 1, 1)], basepoint=0)
    with pytest.raises(ValueError, match="must be connected"):
        Subgroup.from_core(g, RANK2)


def test_from_core_rejects_a_hanging_vertex():
    # an a-loop at the basepoint with a b-edge hanging off it
    g = graph_of(2, 2, [(0, 0, 0), (1, 0, 1)], basepoint=0)
    with pytest.raises(ValueError, match="non-basepoint valence <= 1"):
        Subgroup.from_core(g, RANK2)


def test_from_core_rejects_a_generator_off_the_core():
    core = make("a").graph
    with pytest.raises(ValueError, match="does not trace a based loop"):
        Subgroup.from_core(core, RANK2, generators=[RANK2.word("b")])
    with pytest.raises(ValueError, match="does not trace a based loop"):
        Subgroup.from_core(make("ab").graph, RANK2, generators=[RANK2.word("a")])


# -- membership ---------------------------------------------------------------------


def test_membership_powers():
    H = make("a")
    assert membership(H, RANK2.word("aaaaa"))
    assert not membership(H, RANK2.word("ab"))
    assert membership(H, RANK2.identity())


def test_membership_of_figure_meet_word():
    H, K = make(*FIGURE_LEFT), make(*FIGURE_RIGHT)
    w = RANK2.word(FIGURE_MEET_WORD)
    assert membership(H, w) and membership(K, w)


def test_membership_rejects_foreign_alphabet():
    with pytest.raises(ValueError):
        membership(make("a"), Alphabet(3).word("a"))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from([1, -1, 2, -2]), max_size=6),
    st.lists(st.sampled_from([1, -1, 2, -2]), max_size=6),
)
def test_membership_closed_under_product_and_inverse(seed, ls1, ls2):
    rng = random.Random(seed)
    H = random_subgroup(rng, rng.randint(1, 3), 5)
    u, v = Word(RANK2, ls1), Word(RANK2, ls2)
    if membership(H, u) and membership(H, v):
        assert membership(H, u * v)
        assert membership(H, ~u)


# -- basis --------------------------------------------------------------------------


def test_basis_of_redundant_generators():
    H = make("a", "aa")
    words = basis(H)
    assert words == [RANK2.word("a")]


def test_basis_of_trivial_subgroup_is_empty():
    assert basis(subgroup_graph([], RANK2)) == []


def test_basis_size_is_rank_and_regenerates():
    for texts in (("a", "bab"), FIGURE_LEFT, FIGURE_RIGHT, ("ab", "ba", "aa")):
        H = make(*texts)
        words = basis(H)
        assert len(words) == H.rank
        assert subgroup_graph(words, RANK2) == H
        assert all(membership(H, w) for w in words)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_basis_regenerates_random_subgroups(seed):
    rng = random.Random(seed)
    H = random_subgroup(rng, rng.randint(1, 4), 7)
    assert subgroup_graph(H.basis(), RANK2) == H


def test_spanning_tree_and_basis_of_a_long_stem_take_linear_memory():
    """The spanning tree keeps a parent per vertex, and a path is rebuilt
    only where it is read: on a core hung from a 4,000-letter stem the tree
    holds tens of bytes a vertex (a letter path per vertex held 64 MB), and
    the basis little more than its own words."""
    import tracemalloc

    stem = _random_reduced_word(random.Random(4000), 4000, RANK2)
    H = subgroup_graph([RANK2.word("aa").conj(stem), RANK2.word("bab").conj(stem)], RANK2)
    graph = H.graph
    tracemalloc.start()
    try:
        _spanning_tree(graph, graph.basepoint)
        tree_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        words = basis(H)
        basis_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        end, word = _stem(graph)
        stem_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    letters = sum(len(w) for w in words)
    assert graph.vertex_count > 4000 and letters > 16000
    assert tree_peak < 100 * graph.vertex_count
    assert basis_peak < 100 * graph.vertex_count + 50 * letters
    assert stem_peak < 100 * graph.vertex_count + 50 * len(word)
    assert graph.valence(end) == 3 and len(word) >= 3990


# -- conjugation --------------------------------------------------------------------


def test_conjugate_subgroup_membership():
    H = make("a", "bab")
    g = RANK2.word("bba")
    Hg = H.conj(g)
    assert membership(Hg, RANK2.word("a").conj(g))
    assert Hg.rank == H.rank


def test_conjugate_by_identity_is_equal():
    H = make("a", "bab")
    assert H.conj(RANK2.identity()) == H


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_rebasing_a_core_is_conjugating_its_subgroup(seed, hung):
    """Rebasing H's core at a vertex x and trimming it gives the subgroup
    that conjugating by the inverse of a path word to x gives: the same
    graph and the same generators."""
    rng = random.Random(seed)
    H = random_subgroup(rng, rng.randint(1, 3), 6)
    if hung:  # hang the core on a stem, as the normalization meets it
        H = H.conj(_random_reduced_word(rng, rng.randint(1, 5), RANK2))
    x = rng.choice(H.graph.vertices)
    shift = ~_path_word(H.graph, H.graph.basepoint, x)
    rebased, conjugated = _rebased(H, x, shift), H.conj(shift)
    assert rebased.graph == conjugated.graph
    assert rebased.generators == conjugated.generators


# -- three-regularization -----------------------------------------------------------


def test_three_regularize_whole_group():
    R = three_regularize(make("a", "b"))
    assert R == make("aa", "abAB")
    assert (R.graph.vertex_count, R.graph.edge_count) == (4, 5)
    assert R.rank == 2


def test_three_regularize_trivial_is_trivial():
    T = three_regularize(subgroup_graph([], RANK2))
    assert T.is_trivial


def test_three_regularize_preserves_rank_and_caps_valence():
    for texts in (("a", "bab"), FIGURE_LEFT, FIGURE_RIGHT, ("b", "aa")):
        H = make(*texts)
        R = three_regularize(H)
        assert R.rank == H.rank
        valences = [R.graph.valence(v) for v in R.graph.vertices]
        assert max(valences) <= 3
        branch = [v for v in R.graph.vertices if R.graph.valence(v) == 3]
        assert len(branch) == sum(1 for x in valences if x >= 3)
        # one branch vertex type: every 3-valent star has the same darts
        assert len({tuple(letter for letter, _, _ in R.graph.darts(v)) for v in branch}) <= 1


def test_three_regularize_branch_count():
    # An extremal-free 3-regular core has exactly 2 rank - 2 branch vertices.
    for texts in (("a", "bab"), ("aa", "abAB"), FIGURE_RIGHT):
        R = three_regularize(make(*texts))
        valences = [R.graph.valence(v) for v in R.graph.vertices]
        if min(valences) >= 2 and R.rank >= 2:
            assert sum(1 for x in valences if x >= 3) == 2 * R.rank - 2


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_three_regularize_random(seed):
    rng = random.Random(seed)
    H = random_subgroup(rng, rng.randint(1, 3), 6)
    R = three_regularize(H)
    assert R.rank == H.rank
    assert max(R.graph.valence(v) for v in R.graph.vertices) <= 3


# -- extremal-vertex normalization --------------------------------------------------


def _extremal_free(*graphs):
    return all(g.valence(v) >= 2 for g in graphs for v in g.vertices)


def test_normalize_nonextremal_fixes_clean_pairs():
    """A pair whose meet core has no stem is only 3-regularized."""
    H, K = make("a", "bab"), make("b", "aa")
    H2, K2, meet = _normalize_with_meet(H, K)
    assert (H2, K2) == (three_regularize(H), three_regularize(K))
    assert H2.generators == three_regularize(H).generators
    assert meet == based_meet_core(H2, K2)


def test_normalize_nonextremal_preserves_figure_ranks():
    from stallings import intersection, join

    H, K = make(*FIGURE_LEFT), make(*FIGURE_RIGHT)
    H2, K2, meet = _normalize_with_meet(H, K)
    assert _extremal_free(H2.graph, K2.graph, meet)
    assert (H2.rank, K2.rank) == (H.rank, K.rank)
    assert intersection(H2, K2).rank == intersection(H, K).rank
    assert join(H2, K2).rank == join(H, K).rank


def test_normalize_nonextremal_conjugator_matches():
    """A pair the oracle conjugates: the result is the oracle's, and a
    conjugate of the 3-regularized pair by the oracle's conjugator."""
    H, K = make("abA"), make("abbA")
    H2, K2 = normalize_pair(H, K)
    H3, K3, _, v = stepwise_normalize(H, K)
    assert not v.is_identity
    assert (H2, K2) == (H3, K3)
    assert H2 == three_regularize(H).conj(v) and K2 == three_regularize(K).conj(v)
    assert _extremal_free(H2.graph, K2.graph)


def test_normalize_nonextremal_requires_nontrivial_meet():
    from stallings import TrivialIntersectionError

    with pytest.raises(TrivialIntersectionError):
        normalize_pair(make("a", "bab"), make("b", "aBabA"))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_normalize_nonextremal_random(seed):
    from stallings import intersection

    rng = random.Random(seed)
    H = random_subgroup(rng, rng.randint(1, 3), 6)
    K = random_subgroup(rng, rng.randint(1, 3), 6)
    if intersection(H, K).is_trivial:
        return
    H2, K2, meet = _normalize_with_meet(H, K)
    assert _extremal_free(H2.graph, K2.graph, meet)
    assert (H2.rank, K2.rank) == (H.rank, K.rank)
    assert meet.edge_count - meet.vertex_count + 1 == intersection(H, K).rank
