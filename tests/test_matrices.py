"""Incidence matrices, block normal forms, entry-sum bounds, bipartite summaries."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from stallings import (
    LabeledGraph,
    IncidenceMatrix,
    LEFT,
    NotNormalizedError,
    RIGHT,
    based_meet_core,
    bipartite_delta,
    branch_vertices,
    entry_sum_bound,
    incidence_matrix,
    intersection,
    normal_form,
    normalize_pair,
    topological_pushout,
)
from stallings.verify import random_subgroup

from conftest import FIGURE_LEFT, FIGURE_RIGHT, make


def normalized_setup(H, K):
    """Normalize, then return everything the matrix machinery consumes."""
    Hn, Kn = normalize_pair(H, K)
    meet = based_meet_core(Hn, Kn)
    po = topological_pushout(Hn, Kn, [meet])
    M = incidence_matrix(Hn, Kn, meet)
    return Hn, Kn, meet, po, M


# -- incidence matrix ----------------------------------------------------------------


def test_incidence_matrix_rejects_fat_vertices():
    # The rose has a valence-4 basepoint.
    H = make("a", "b")
    with pytest.raises(NotNormalizedError):
        incidence_matrix(H, H, based_meet_core(H, H))


def test_incidence_matrix_rejects_extremal_vertices():
    # The core of <abA> keeps a valence-1 basepoint.
    H = make("abA")
    with pytest.raises(NotNormalizedError):
        incidence_matrix(H, H, based_meet_core(H, H))


def test_branch_vertices_of_a_rose():
    g = make("a", "b").graph
    assert branch_vertices(g) == (g.basepoint,)


def test_figure_pair_matrix_is_zero():
    # The meet is a plain cycle: no branch vertices, so no 1 entries; the
    # regularized factors have 2h-2 = 4 rows and 2k-2 = 2 columns.
    H, K = make(*FIGURE_LEFT), make(*FIGURE_RIGHT)
    Hn, Kn, meet, po, M = normalized_setup(H, K)
    assert (Hn.rank, Kn.rank) == (3, 2)
    assert M.shape == (4, 2)
    assert M.entry_sum == 0
    assert M.zero_rows() == (0, 1, 2, 3)
    assert M.zero_cols() == (0, 1)


def test_cyclic_meet_matrix_is_zero():
    Hn, Kn, meet, po, M = normalized_setup(make("a", "bab"), make("b", "aa"))
    assert M.shape == (2, 2)
    assert M.entry_sum == 0


def test_self_pair_matrix_is_a_permutation():
    # Meet = factors, so meet branch vertices pair each row with one column.
    Hn, Kn, meet, po, M = normalized_setup(make("a", "bab"), make("a", "bab"))
    assert M.shape == (2, 2)
    assert all(sum(row) == 1 for row in M.entries)
    assert all(sum(row[j] for row in M.entries) == 1 for j in range(2))
    assert M.entry_sum == len(branch_vertices(Hn.graph))


def test_entry_sum_counts_meet_branch_vertices():
    for pair in ((("a", "bab"), ("a", "bab")), (FIGURE_LEFT, FIGURE_RIGHT)):
        Hn, Kn, meet, po, M = normalized_setup(make(*pair[0]), make(*pair[1]))
        meet_branch = sum(1 for v in meet.vertices if meet.valence(v) >= 3)
        assert M.entry_sum == meet_branch


def test_incidence_matrix_rejects_junk_third_argument():
    # a meet core whose branch vertices do not project into the pair
    Hn, Kn = normalize_pair(make("a", "bab"), make("a", "bab"))
    meet = based_meet_core(Hn, Kn)
    left, right = meet.projections
    for shifted in ([x + 100 for x in left], [x - 100 for x in left]):
        foreign = LabeledGraph(
            meet.rank, meet.vertex_count, meet._labels, meet._sources, meet._targets,
            projections=(shifted, right),
        )
        with pytest.raises(ValueError, match="does not project"):
            incidence_matrix(Hn, Kn, foreign)
    with pytest.raises(ValueError, match="no product projections"):
        incidence_matrix(Hn, Kn, meet.canonical().graph)


def test_render_shows_rows():
    Hn, Kn, meet, po, M = normalized_setup(make("a", "bab"), make("a", "bab"))
    text = M.render()
    assert text.count("\n") == 1
    assert set(text.split()) <= {"0", "1"}


# -- normal form ----------------------------------------------------------------------


def test_zero_matrix_normal_form_is_all_margins():
    H, K = make(*FIGURE_LEFT), make(*FIGURE_RIGHT)
    Hn, Kn, meet, po, M = normalized_setup(H, K)
    nf = normal_form(M, po)
    assert nf.ell == 0
    assert (nf.p, nf.q) == (2 * 3 - 2, 2 * 2 - 2)
    assert nf.ell + nf.p + nf.q == nf.star_class_count
    assert nf.lemma_violations == ()


def test_self_pair_normal_form_is_all_blocks():
    Hn, Kn, meet, po, M = normalized_setup(make("a", "bab"), make("a", "bab"))
    nf = normal_form(M, po)
    assert (nf.p, nf.q) == (0, 0)
    assert nf.ell == len(branch_vertices(Hn.graph))
    assert all(block == (1, 1) for block in nf.blocks)
    assert nf.entry_sum == M.entry_sum
    assert nf.lemma_violations == ()


def test_normal_form_permutations_are_permutations():
    Hn, Kn, meet, po, M = normalized_setup(make(*FIGURE_LEFT), make(*FIGURE_RIGHT))
    nf = normal_form(M, po)
    assert sorted(nf.row_perm) == list(range(M.shape[0]))
    assert sorted(nf.col_perm) == list(range(M.shape[1]))
    for i, oi in enumerate(nf.row_perm):
        for j, oj in enumerate(nf.col_perm):
            assert nf.matrix[i][j] == M.entries[oi][oj]


def test_normal_form_rejects_unknown_branch_vertices():
    Hn, Kn, meet, po, M = normalized_setup(make("a", "bab"), make("a", "bab"))
    for missing in (-1, Hn.graph.vertex_count):
        bogus = IncidenceMatrix((missing,) + M.row_vertices[1:], M.col_vertices, M.entries)
        with pytest.raises(ValueError, match="not a 3-valent vertex"):
            normal_form(bogus, po)


def test_normal_form_render_marks_blocks():
    Hn, Kn, meet, po, M = normalized_setup(make("a", "bab"), make("a", "bab"))
    text = normal_form(M, po).render()
    assert "|" in text or "-" in text


def _star_partition_oracle(Hn, Kn, meet):
    """Star classes by repeated sweeps over explicit sets (no union-find).

    Seeds are the 3-valent meet-core vertices; each identifies its two
    projections' stars.  Merging runs to a fixpoint.
    """
    sets = [
        {(side, v)}
        for side, sub in ((LEFT, Hn), (RIGHT, Kn))
        for v in sub.graph.vertices
        if sub.graph.valence(v) == 3
    ]
    pairs = [
        ((LEFT, x), (RIGHT, y))
        for v, (x, y) in enumerate(zip(*meet.projections))
        if meet.valence(v) == 3
    ]
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            ia = next(i for i, s in enumerate(sets) if a in s)
            ib = next(i for i, s in enumerate(sets) if b in s)
            if ia != ib:
                sets[ia] |= sets[ib]
                del sets[ib]
                changed = True
    return sorted(tuple(sorted(s)) for s in sets)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_normal_form_matches_star_partition_oracle(seed):
    """Dual route: block/margin counts vs an independent partition sweep."""
    rng = random.Random(seed)
    H = random_subgroup(rng, rng.randint(1, 3), 6)
    K = random_subgroup(rng, rng.randint(1, 3), 6)
    if intersection(H, K).is_trivial:
        return
    Hn, Kn, meet, po, M = normalized_setup(H, K)
    nf = normal_form(M, po)
    oracle = _star_partition_oracle(Hn, Kn, meet)
    assert nf.star_class_count == len(oracle)
    assert nf.ell + nf.p + nf.q == len(oracle)
    assert nf.lemma_violations == ()
    stars = po.star_classes()
    got = sorted(
        tuple((side, v) for side in (LEFT, RIGHT) for v, index in enumerate(stars.assignment[side]) if index == c)
        for c in range(stars.count)
    )
    assert got == oracle


# -- entry-sum bound -------------------------------------------------------------------


def test_entry_sum_bound_examples():
    assert entry_sum_bound(2, 2, 1, 0, 0) == 4
    assert entry_sum_bound(3, 2, 2, 1, 0) == 3


def test_entry_sum_bound_rejects_empty_blocks():
    with pytest.raises(ValueError):
        entry_sum_bound(2, 2, 0, 1, 1)


def test_entry_sum_bound_rejects_tight_margins():
    with pytest.raises(ValueError):
        entry_sum_bound(2, 2, 1, 2, 0)  # p + ell - 1 == 2h - 2
    with pytest.raises(ValueError):
        entry_sum_bound(2, 2, 1, 0, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_entry_sum_respects_bound_when_applicable(seed):
    rng = random.Random(seed)
    H = random_subgroup(rng, rng.randint(1, 3), 6)
    K = random_subgroup(rng, rng.randint(1, 3), 6)
    if intersection(H, K).is_trivial:
        return
    Hn, Kn, meet, po, M = normalized_setup(H, K)
    nf = normal_form(M, po)
    h, k, ell, p, q = Hn.rank, Kn.rank, nf.ell, nf.p, nf.q
    if ell >= 1 and 2 * h - 2 > p + ell - 1 and 2 * k - 2 > q + ell - 1:
        assert nf.entry_sum <= entry_sum_bound(h, k, ell, p, q)


# -- bipartite summary -----------------------------------------------------------------


def test_bipartite_delta_of_zero_matrix():
    Hn, Kn, meet, po, M = normalized_setup(make(*FIGURE_LEFT), make(*FIGURE_RIGHT))
    summary = bipartite_delta(M)
    assert summary.component_count == 6  # every vertex isolated
    assert summary.edge_count == 0


def test_bipartite_delta_of_all_ones():
    M = IncidenceMatrix(("r0", "r1"), ("c0", "c1"), ((1, 1), (1, 1)))
    summary = bipartite_delta(M)
    assert summary.component_count == 1
    assert summary.edge_count == 4


def test_bipartite_delta_accepts_matching_normal_form():
    Hn, Kn, meet, po, M = normalized_setup(make("a", "bab"), make("a", "bab"))
    nf = normal_form(M, po)
    assert bipartite_delta(M, nf) == bipartite_delta(M)


def test_bipartite_delta_rejects_mismatched_normal_form():
    _, _, _, po1, M1 = normalized_setup(make("a", "bab"), make("a", "bab"))
    Hn, Kn, meet, po, M = normalized_setup(make(*FIGURE_LEFT), make(*FIGURE_RIGHT))
    nf_big = normal_form(M, po)
    with pytest.raises(ValueError):
        bipartite_delta(M1, nf_big)


def test_bipartite_delta_rejects_entries_other_than_zero_and_one():
    M = IncidenceMatrix(("r0",), ("c0",), ((2,),))
    with pytest.raises(ValueError, match="0 or 1"):
        bipartite_delta(M)


def _component_count_oracle(M):
    """BFS over the bipartite graph on rows and columns, 1 entries as edges."""
    nodes = [("row", i) for i in range(M.shape[0])]
    nodes += [("col", j) for j in range(M.shape[1])]
    seen = set()
    count = 0
    for start in nodes:
        if start in seen:
            continue
        count += 1
        queue = [start]
        seen.add(start)
        while queue:
            kind, idx = queue.pop()
            if kind == "row":
                nbrs = [("col", j) for j, x in enumerate(M.entries[idx]) if x]
            else:
                nbrs = [
                    ("row", i) for i, row in enumerate(M.entries) if row[idx]
                ]
            for n in nbrs:
                if n not in seen:
                    seen.add(n)
                    queue.append(n)
    return count


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bipartite_delta_against_bfs_oracle(seed):
    rng = random.Random(seed)
    H = random_subgroup(rng, rng.randint(1, 3), 6)
    K = random_subgroup(rng, rng.randint(1, 3), 6)
    if intersection(H, K).is_trivial:
        return
    Hn, Kn, meet, po, M = normalized_setup(H, K)
    nf = normal_form(M, po)
    summary = bipartite_delta(M, nf)
    assert summary.component_count == _component_count_oracle(M)
    assert summary.edge_count == M.entry_sum
    assert summary.component_count == nf.ell + nf.p + nf.q
