"""Words: parsing, free reduction, inversion, concatenation, conjugation, embeddings."""

import pytest
from hypothesis import given, strategies as st

from stallings import (
    Alphabet,
    RANK2,
    Word,
    WordSyntaxError,
    embed_into_rank2,
    subgroup_graph,
)
from stallings.words import generator_squares, square_commutator_embed

LETTERS2 = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12)


def words2(draw_letters=LETTERS2):
    return draw_letters.map(lambda ls: Word(RANK2, ls))


# -- construction and reduction -----------------------------------------------------


def test_reduction_cancels_adjacent_inverses():
    assert Word(RANK2, [1, 2, -2, 1]) == RANK2.word("aa")


def test_reduction_of_empty_is_identity():
    w = Word(RANK2, [])
    assert w.is_identity
    assert str(w) == "1"


def test_reduction_cancels_nested_pairs():
    assert Word(RANK2, [1, 2, -2, -1]).is_identity


def test_letters_out_of_range_rejected():
    with pytest.raises(ValueError):
        Word(RANK2, [3])
    with pytest.raises(ValueError):
        Word(RANK2, [0])


def test_parse_mixed_case():
    w = RANK2.word("aBBa")
    assert tuple(w.letters) == (1, -2, -2, 1)
    assert str(w) == "aBBa"


def test_parse_rejects_out_of_range_letter_with_position():
    with pytest.raises(WordSyntaxError) as err:
        RANK2.word("abc")
    assert err.value.position == 2


def test_parse_rejects_non_letter():
    with pytest.raises(WordSyntaxError) as err:
        RANK2.word("a b")
    assert err.value.position == 1


@given(LETTERS2)
def test_reduced_words_have_no_adjacent_inverse_pairs(letters):
    w = Word(RANK2, letters)
    assert all(x != -y for x, y in zip(w.letters, w.letters[1:]))


# -- inversion ----------------------------------------------------------------------


def test_inverse_examples():
    assert ~RANK2.word("ab") == RANK2.word("BA")
    assert (~RANK2.identity()).is_identity
    assert RANK2.word("aa").inverse() == RANK2.word("AA")


@given(LETTERS2)
def test_inverse_is_an_involution(letters):
    w = Word(RANK2, letters)
    assert ~~w == w


@given(LETTERS2, LETTERS2)
def test_inverse_is_an_anti_homomorphism(ls1, ls2):
    u, v = Word(RANK2, ls1), Word(RANK2, ls2)
    assert ~(u * v) == ~v * ~u


@given(LETTERS2)
def test_word_times_inverse_is_identity(letters):
    w = Word(RANK2, letters)
    assert (w * ~w).is_identity


# -- concatenation ------------------------------------------------------------------


def test_concat_examples():
    assert RANK2.word("a") * RANK2.word("Ab") == RANK2.word("b")
    assert RANK2.word("ab") * RANK2.word("Ba") == RANK2.word("aa")
    assert RANK2.word("a") * RANK2.identity() == RANK2.word("a")


def test_concat_rejects_alphabet_mixing():
    with pytest.raises(ValueError):
        RANK2.word("a") * Alphabet(3).word("a")


@given(LETTERS2, LETTERS2, LETTERS2)
def test_concat_is_associative(ls1, ls2, ls3):
    u, v, w = (Word(RANK2, ls) for ls in (ls1, ls2, ls3))
    assert (u * v) * w == u * (v * w)


def test_powers():
    a = RANK2.word("a")
    assert a**3 == RANK2.word("aaa")
    assert a**-2 == RANK2.word("AA")
    assert (a**0).is_identity


# -- conjugation and cyclic reduction -----------------------------------------------


def test_conjugate_example():
    x, g = RANK2.word("bbaa"), RANK2.word("abb")
    assert x.conj(g) == RANK2.word("abbbbaaBBA")
    assert x.conj(g) == g * x * ~g


def test_conjugate_by_identity_is_noop():
    x = RANK2.word("ab")
    assert x.conj(RANK2.identity()) == x


def test_conjugate_can_collapse():
    assert RANK2.word("a").conj(RANK2.word("a")) == RANK2.word("a")


def test_cyclically_reduced_examples():
    assert RANK2.word("abA").cyclically_reduced() == RANK2.word("b")
    assert RANK2.word("ab").cyclically_reduced() == RANK2.word("ab")
    assert RANK2.identity().cyclically_reduced().is_identity


def _rotations(letters):
    return {tuple(letters[i:] + letters[:i]) for i in range(max(1, len(letters)))}


@given(LETTERS2, LETTERS2)
def test_conjugates_share_a_cyclic_reduction_class(ls, gs):
    """Independent oracle: cyclic words agree up to rotation."""
    x, g = Word(RANK2, ls), Word(RANK2, gs)
    a = list(x.cyclically_reduced().letters)
    b = list(x.conj(g).cyclically_reduced().letters)
    assert tuple(b) in _rotations(a)


# -- embeddings ---------------------------------------------------------------------


def test_square_commutator_embed_examples():
    assert square_commutator_embed(RANK2.word("a")) == RANK2.word("aa")
    assert square_commutator_embed(RANK2.word("b")) == RANK2.word("abAB")
    assert square_commutator_embed(RANK2.identity()).is_identity


def test_square_commutator_embed_rejects_other_ranks():
    with pytest.raises(ValueError):
        square_commutator_embed(Alphabet(3).word("c"))


@given(LETTERS2, LETTERS2)
def test_square_commutator_embed_is_a_homomorphism(ls1, ls2):
    u, v = Word(RANK2, ls1), Word(RANK2, ls2)
    assert square_commutator_embed(u * v) == square_commutator_embed(
        u
    ) * square_commutator_embed(v)


def test_embed_into_rank2_generator_images():
    A3 = Alphabet(3)
    assert embed_into_rank2(A3.word("a")) == RANK2.word("b")
    assert embed_into_rank2(A3.word("b")) == RANK2.word("abA")
    assert embed_into_rank2(A3.word("c")) == RANK2.word("aabAA")
    assert embed_into_rank2(A3.identity()).is_identity


def test_embed_into_rank2_preserves_rank():
    A3 = Alphabet(3)
    images = [embed_into_rank2(A3.word(t)) for t in ("a", "b", "c")]
    assert subgroup_graph(images, RANK2).rank == 3


@given(
    st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=10),
    st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=10),
)
def test_embed_into_rank2_is_a_homomorphism(ls1, ls2):
    A3 = Alphabet(3)
    u, v = Word(A3, ls1), Word(A3, ls2)
    assert embed_into_rank2(u * v) == embed_into_rank2(u) * embed_into_rank2(v)


def test_generator_squares_doubles_each_letter():
    assert generator_squares(RANK2.word("ab")) == RANK2.word("aabb")
    assert generator_squares(RANK2.word("aB")) == RANK2.word("aaBB")
    assert generator_squares(RANK2.identity()).is_identity


# -- hashing / equality -------------------------------------------------------------


def test_equal_words_hash_equal():
    assert hash(Word(RANK2, [1, 2, -2])) == hash(RANK2.word("a"))
    assert len({RANK2.word("a"), Word(RANK2, [1, 2, -2])}) == 1


def test_words_over_different_alphabets_differ():
    assert RANK2.word("a") != Alphabet(3).word("a")
