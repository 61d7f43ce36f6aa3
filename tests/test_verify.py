"""The verification harness: reports, verdicts, fuzzing, fixtures, probes."""

import gc
import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from stallings import (
    Alphabet,
    FuzzConfig,
    InstanceReport,
    RANK2,
    Verdict,
    check_instance,
    check_sharpness_suite,
    check_squares_construction,
    corpus,
    derive_verdicts,
    fuzz,
    imrich_muller_probe,
    intersection,
    join,
    normalize_pair,
    random_subgroup,
    three_regularize,
    subgroup_from_spec,
    subgroup_graph,
)
from stallings.core import TrivialIntersectionError
from stallings.verify import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    RAW_VERDICTS,
    STRUCTURAL_VERDICTS,
    VERDICT_NAMES,
    fixture_pair,
    CORPUS_PAIRS,
)

from conftest import (
    FIGURE_LEFT,
    FIGURE_RIGHT,
    fuzz_text,
    make,
    status_counts,
    stepwise_normalize,
)


# -- verdict primitives -------------------------------------------------------------


def test_verdict_round_trip():
    for v in (Verdict(PASS, 3), Verdict(FAIL, -1), Verdict(NOT_APPLICABLE)):
        assert Verdict.from_dict(v.to_dict()) == v


def test_verdict_ok_semantics():
    assert Verdict(PASS, 0).ok
    assert Verdict(NOT_APPLICABLE).ok
    assert not Verdict(FAIL, -2).ok


def test_verdict_name_registry_is_complete():
    assert set(VERDICT_NAMES) == set(RAW_VERDICTS) | set(STRUCTURAL_VERDICTS)
    assert len(VERDICT_NAMES) == 19


# -- check_instance on known pairs --------------------------------------------------


def test_figure_pair_report():
    r = check_instance(make(*FIGURE_LEFT), make(*FIGURE_RIGHT))
    assert (r.h, r.k) == (3, 2)
    assert (r.rank_meet, r.rank_join) == (1, 2)
    assert (r.chi_T, r.chi_join) == (-3, -1)
    assert r.pushout_refolds_to_join
    assert r.normalized
    assert (r.ell, r.p, r.q) == (0, 4, 2)
    assert r.star_class_count == 6
    assert r.entry_sum == 0
    assert r.double_coset_ranks == (1,)
    assert (r.delta_component_count, r.delta_edge_count) == (6, 0)
    assert r.ok and r.failed_verdicts == ()
    assert r.verdicts["euler_star_bound"].slack == 0
    assert r.verdicts["hanna_neumann"].slack == 4
    assert r.verdicts["strong_burns"].slack == 3
    assert r.verdicts["rank_two_case"].status == NOT_APPLICABLE


def test_small_pair_report():
    r = check_instance(make("a", "bab"), make("b", "aa"))
    assert (r.h, r.k, r.rank_meet, r.rank_join) == (2, 2, 1, 2)
    assert (r.chi_T, r.chi_join) == (-2, -1)
    assert (r.ell, r.p, r.q, r.star_class_count) == (0, 2, 2, 4)
    assert r.verdicts["rank_two_case"] == Verdict(PASS, 1)
    assert r.verdicts["euler_star_bound"].slack == 0
    assert r.ok


def test_self_pair_attains_equalities():
    H = make("a", "bab")
    r = check_instance(H, H)
    assert (r.h, r.k, r.rank_meet, r.rank_join) == (2, 2, 2, 2)
    assert r.double_coset_ranks == (2, 1)
    assert (r.ell, r.p, r.q, r.star_class_count) == (2, 0, 0, 2)
    assert r.entry_sum == 2
    assert (r.delta_component_count, r.delta_edge_count) == (2, 2)
    for name in ("burns", "coset_sum_burns", "strong_burns", "rank_two_case",
                 "entry_sum_within_bound", "no_p_and_q", "pushout_chi_bound"):
        assert r.verdicts[name] == Verdict(PASS, 0), name
    assert r.ok


def test_trivial_meet_pair_skips_structural():
    r = check_instance(make("a", "bab"), make("b", "aBabA"))
    assert r.rank_meet == 0
    assert not r.normalized
    assert r.ell is None and r.star_class_count is None
    for name in STRUCTURAL_VERDICTS:
        assert r.verdicts[name].status == NOT_APPLICABLE
    assert r.verdicts["strong_burns"].status == NOT_APPLICABLE
    assert r.ok


def test_structural_false_reports_raw_only():
    r = check_instance(make(*FIGURE_LEFT), make(*FIGURE_RIGHT), structural=False)
    assert not r.normalized
    assert (r.rank_meet, r.rank_join, r.chi_T) == (1, 2, -3)
    assert all(r.verdicts[n].status == NOT_APPLICABLE for n in STRUCTURAL_VERDICTS)
    assert r.ok


def test_check_instance_rejects_bad_inputs():
    with pytest.raises(ValueError):
        check_instance(subgroup_graph([], RANK2), make("a"))
    with pytest.raises(ValueError):
        check_instance(make("a"), subgroup_graph([], RANK2))
    A3 = Alphabet(3)
    with pytest.raises(ValueError):
        check_instance(subgroup_graph(["a"], A3), subgroup_graph(["a"], A3))


def test_strong_burns_not_applicable_on_trivial_meet_with_full_join():
    # Meet trivial and join of rank 2k: the strengthened bound's hypothesis
    # (nontrivial intersection) fails, so the verdict must not claim a pass.
    r = check_instance(make("b", "abA"), make("aabAA", "aaabAAA"))
    assert (r.rank_meet, r.rank_join) == (0, 4)
    assert r.verdicts["strong_burns"].status == NOT_APPLICABLE
    # With a rank-4 join the raw strong-Burns arithmetic would read
    # -1 <= 2 - 3: recomputing shows the gate is what saves it.
    assert 2 * (2 - 1) * (2 - 1) - (2 - 1) * (4 - 1) < 0


# -- verdict derivability and invariances --------------------------------------------


def report_pairs():
    return (
        (make(*FIGURE_LEFT), make(*FIGURE_RIGHT)),
        (make("a", "bab"), make("b", "aa")),
        (make("a", "bab"), make("a", "bab")),
        (make("a", "bab"), make("b", "aBabA")),
    )


def test_verdicts_recompute_from_numeric_fields():
    for H, K in report_pairs():
        r = check_instance(H, K)
        assert derive_verdicts(r) == r.verdicts


def test_report_json_round_trip_preserves_verdicts():
    for H, K in report_pairs():
        r = check_instance(H, K)
        again = InstanceReport.from_dict(json.loads(r.to_json()))
        assert again == r
        assert derive_verdicts(again) == r.verdicts


def test_derive_verdicts_accepts_plain_namespaces():
    r = check_instance(make("a", "bab"), make("b", "aa"))
    ns = SimpleNamespace(**{k: v for k, v in r.to_dict().items() if k != "verdicts"})
    ns.double_coset_ranks = tuple(ns.double_coset_ranks)
    assert derive_verdicts(ns) == r.verdicts


def test_swap_invariance():
    for H, K in report_pairs():
        r, s = check_instance(H, K), check_instance(K, H)
        assert (s.h, s.k) == (r.k, r.h)
        assert (s.rank_meet, s.rank_join) == (r.rank_meet, r.rank_join)
        assert (s.chi_T, s.chi_join) == (r.chi_T, r.chi_join)
        assert s.star_class_count == r.star_class_count
        assert (s.ell, s.p, s.q) == (r.ell, r.q, r.p)
        assert s.ok == r.ok


@settings(max_examples=15, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from([1, -1, 2, -2]), max_size=5),
)
def test_conjugation_invariance(seed, letters):
    """Conjugating both subgroups by one word changes no report number."""
    from stallings import Word

    rng = random.Random(seed)
    H = random_subgroup(rng, rng.randint(1, 3), 5)
    K = random_subgroup(rng, rng.randint(1, 3), 5)
    g = Word(RANK2, letters)
    r = check_instance(H, K)
    s = check_instance(H.conj(g), K.conj(g))
    assert r.to_dict() == s.to_dict()


# -- normalize_pair ------------------------------------------------------------------


def test_normalize_pair_output_is_fully_normalized():
    from stallings import based_meet_core

    for H, K in report_pairs():
        if intersection(H, K).is_trivial:
            with pytest.raises(TrivialIntersectionError):
                normalize_pair(H, K)
            continue
        Hn, Kn = normalize_pair(H, K)
        for sub in (Hn, Kn):
            assert min(sub.graph.valence(v) for v in sub.graph.vertices) >= 2
            assert max(sub.graph.valence(v) for v in sub.graph.vertices) <= 3
        assert (Hn.rank, Kn.rank) == (H.rank, K.rank)
        assert intersection(Hn, Kn).rank == intersection(H, K).rank
        assert join(Hn, Kn).rank == join(H, K).rank
        meet = based_meet_core(Hn, Kn)
        assert all(meet.valence(v) >= 2 for v in meet.vertices)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8),
)
def test_normalize_pair_matches_the_stepwise_oracle(seed, share, letters):
    """One rebasing at the meet core gives the pair, generators and meet core
    that conjugating away H's stem, then K's, then the meet core's gives.
    Pairs are random, or share a generator so that their meet is
    nontrivial, and are conjugated by a random word so that the oracle
    takes one, two or three steps."""
    from stallings import Word
    from stallings.verify import _normalize_with_meet

    rng = random.Random(seed)
    H = random_subgroup(rng, rng.randint(1, 3), 6)
    K = random_subgroup(rng, rng.randint(1, 3), 6)
    if share:
        K = subgroup_graph([H.generators[0], *K.generators], RANK2)
    g = Word(RANK2, letters)
    H, K = H.conj(g), K.conj(g)
    if intersection(H, K).is_trivial:
        for normalize in (_normalize_with_meet, stepwise_normalize):
            with pytest.raises(TrivialIntersectionError):
                normalize(H, K)
        return
    Hn, Kn, meet = _normalize_with_meet(H, K)
    Ho, Ko, meet_o, v = stepwise_normalize(H, K)
    assert (Hn.graph, Kn.graph) == (Ho.graph, Ko.graph)
    assert (Hn.generators, Kn.generators) == (Ho.generators, Ko.generators)
    assert meet == meet_o
    assert Hn == three_regularize(H).conj(v) and Kn == three_regularize(K).conj(v)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8),
)
def test_normalized_join_is_the_image_of_the_join(seed, share, letters):
    """``check_instance`` builds no normalized join: it reports
    ``chi_join_norm`` as 1 - rank(H v K).  The join of the normalized pair
    must be the normalized join, v * phi(H v K) * v^-1, whose core is
    connected, so its rank and Euler characteristic are the reported ones."""
    from stallings import Word

    rng = random.Random(seed)
    H = random_subgroup(rng, rng.randint(1, 3), 6)
    K = random_subgroup(rng, rng.randint(1, 3), 6)
    if share:
        K = subgroup_graph([H.generators[0], *K.generators], RANK2)
    g = Word(RANK2, letters)
    H, K = H.conj(g), K.conj(g)
    report = check_instance(H, K)
    if not report.normalized:
        return
    Hn, Kn = normalize_pair(H, K)
    v = stepwise_normalize(H, K)[3]
    joined, joined_n = join(H, K), join(Hn, Kn)
    assert joined_n == three_regularize(joined).conj(v)
    assert joined_n.rank == joined.rank == report.rank_join
    assert joined_n.graph.chi == report.chi_join_norm == report.chi_join


def test_normalize_pair_conjugates_each_factor_at_most_once(monkeypatch):
    """A pair whose oracle conjugates three times (H's stem, K's stem, the
    meet core's stem) is rebased by one conjugation of each factor."""
    from stallings.core import Subgroup

    H = subgroup_graph(["bbabaBB", "bAB"], RANK2)
    K = subgroup_graph(["bbabaBB", "bbAAB"], RANK2)
    real = Subgroup.conj
    calls = []

    def counting(self, g):
        calls.append(g)
        return real(self, g)

    monkeypatch.setattr(Subgroup, "conj", counting)
    normalize_pair(H, K)
    assert len(calls) <= 2


def test_check_instance_walks_the_normalized_meet_once(monkeypatch):
    """self_join needs no conjugation, so the product component walked to
    test the meet for triviality is the normalized pair's meet as well."""
    from stallings import graphs, products, verify

    H, K = fixture_pair(next(f for f in CORPUS_PAIRS if f["name"] == "self_join"))
    Hn, Kn = normalize_pair(H, K)
    walked = []

    def counting(g1, g2):
        walked.append((g1, g2))
        return graphs.based_product(g1, g2)

    for module in (products, verify):
        monkeypatch.setattr(module, "based_product", counting)
    check_instance(H, K)
    assert walked.count((Hn.graph, Kn.graph)) == 1
    assert walked.count((H.graph, K.graph)) == 1  # the raw meet


def test_check_instance_partitions_each_pushouts_stars_once(monkeypatch):
    """self_join builds two pushouts whose stars are partitioned, the
    normalized one and the multicore one; each is partitioned once, though
    the structural fields, the normal form and the valence bound all read it."""
    from stallings import products

    H, K = fixture_pair(next(f for f in CORPUS_PAIRS if f["name"] == "self_join"))
    real = products.StarClassSummary
    made = []

    def counting(**fields):
        made.append(fields["count"])
        return real(**fields)

    monkeypatch.setattr(products, "StarClassSummary", counting)
    check_instance(H, K)
    assert len(made) == 2


def test_structural_invariant_breach_is_an_explicit_error(monkeypatch):
    """A normalized pair of the wrong rank raises, with no ``assert`` that
    ``python -O`` could strip."""
    from stallings import verify

    real = verify.three_regularize
    # "bb" does not lie in <a, bab>, so each side gains a rank
    monkeypatch.setattr(
        verify,
        "three_regularize",
        lambda S: real(subgroup_graph(list(S.generators) + ["bb"], RANK2)),
    )
    with pytest.raises(AssertionError, match="factor ranks are preserved"):
        check_instance(make("a", "bab"), make("a", "bab"))


def test_extremal_vertex_after_normalization_is_an_explicit_error(monkeypatch):
    """A rebasing that leaves the meet core's stem in place raises, with no
    ``assert`` that ``python -O`` could strip."""
    from stallings import Word, verify

    # the stem found is empty, so each factor is rebased at its own basepoint
    monkeypatch.setattr(verify, "_stem", lambda graph: (graph.basepoint, Word(RANK2, ())))
    H = subgroup_graph(["bbabaBB", "bAB"], RANK2)
    K = subgroup_graph(["bbabaBB", "bbAAB"], RANK2)
    with pytest.raises(AssertionError, match="extremal vertex"):
        normalize_pair(H, K)


# -- random subgroups ----------------------------------------------------------------


def test_random_subgroup_is_deterministic():
    a = random_subgroup(random.Random(5), 3, 6)
    b = random_subgroup(random.Random(5), 3, 6)
    assert a == b and a.generators == b.generators


def test_random_subgroup_respects_limits():
    rng = random.Random(0)
    for _ in range(20):
        sub = random_subgroup(rng, 2, 4)
        assert 1 <= sub.rank <= 2
        assert all(1 <= len(w.letters) <= 4 for w in sub.generators)


def test_random_subgroup_single_short_generator():
    sub = random_subgroup(random.Random(3), 1, 1)
    assert sub.rank == 1
    assert len(sub.generators[0].letters) == 1


def test_random_subgroup_validates_arguments():
    with pytest.raises(ValueError):
        random_subgroup(random.Random(0), 0, 5)
    with pytest.raises(ValueError):
        random_subgroup(random.Random(0), 1, 0)


# -- fuzzing -------------------------------------------------------------------------


def test_fuzz_config_validation():
    with pytest.raises(ValueError):
        fuzz(FuzzConfig(instance_count=-1))
    with pytest.raises(ValueError):
        fuzz(FuzzConfig(min_generators=0))
    with pytest.raises(ValueError):
        fuzz(FuzzConfig(min_generators=3, max_generators=2))
    with pytest.raises(ValueError):
        fuzz(FuzzConfig(max_word_length=0))


def test_fuzz_draws_pairs_lazily():
    """A campaign of a billion pairs yields its first pair at once."""
    stream = fuzz(FuzzConfig(seed=1, instance_count=10**9))
    left, right, report = next(stream)
    assert "generators" in left and "generators" in right and report.ok


def test_fuzz_empty_campaign():
    assert list(fuzz(FuzzConfig(instance_count=0))) == []


def test_fuzz_is_deterministic():
    config = FuzzConfig(seed=42, instance_count=25)
    assert fuzz_text(config) == fuzz_text(config)


def test_fuzz_seeds_differ():
    a = fuzz_text(FuzzConfig(seed=1, instance_count=10))
    b = fuzz_text(FuzzConfig(seed=2, instance_count=10))
    assert a != b


def test_fuzz_finds_no_violations():
    reports = [report for _, _, report in fuzz(FuzzConfig(seed=42, instance_count=60))]
    assert len(reports) == 60
    assert all(report.ok for report in reports)
    slacks = [v.slack for r in reports for v in r.verdicts.values() if v.slack is not None]
    assert slacks and min(slacks) >= 0


def test_fuzz_stream_replays_identically():
    """Every streamed fixture rebuilds to a pair giving the same report."""
    text = fuzz_text(FuzzConfig(seed=11, instance_count=12))
    for i, line in enumerate(text.splitlines()):
        data = json.loads(line)
        assert data["index"] == i
        H = subgroup_from_spec(data["left"])
        K = subgroup_from_spec(data["right"])
        again = check_instance(H, K)
        assert again.to_dict() == data["report"]


def test_fuzz_inequalities_mode_skips_structural():
    config = FuzzConfig(seed=3, instance_count=15, structural=False)
    reports = [report for _, _, report in fuzz(config)]
    assert all(r.ok for r in reports)
    assert all(not r.normalized for r in reports)
    counts = status_counts(reports)
    for name in STRUCTURAL_VERDICTS:
        assert counts[name][NOT_APPLICABLE] == 15


def test_fuzz_nontrivial_meet_mode():
    config = FuzzConfig(seed=6, instance_count=12, require_nontrivial_meet=True)
    reports = [report for _, _, report in fuzz(config)]
    assert len(reports) == 12
    assert all(r.rank_meet >= 1 and r.normalized for r in reports)
    assert all(r.ok for r in reports)


def test_fuzz_status_counts_total():
    """Each verdict is counted once per pair."""
    reports = [report for _, _, report in fuzz(FuzzConfig(seed=9, instance_count=10))]
    counts = status_counts(reports)
    assert set(counts) == set(VERDICT_NAMES)
    for name, per in counts.items():
        assert sum(per.values()) == 10


# -- curated fixtures ----------------------------------------------------------------


def test_fixture_pair_embeds_wide_alphabets():
    fix = next(f for f in CORPUS_PAIRS if f["alphabet_rank"] == 3)
    H, K = fixture_pair(fix)
    assert H.alphabet == RANK2 and K.alphabet == RANK2


def test_corpus_is_green():
    result = corpus()
    assert result["ok"]
    names = [e["name"] for e in result["entries"]]
    assert names == [
        "pushout_gap",
        "self_join",
        "cyclic_meet_full_join",
        "trivial_meet_full_join",
        "disjoint_conjugates",
        "overlapping_bases",
        "fiber_class_probe",
        "sharpness_suite",
        "squares_construction",
    ]
    for entry in result["entries"]:
        assert entry["ok"], entry


def test_sharpness_suite_details():
    result = check_sharpness_suite()
    assert result["ok"]
    assert all(w["ok"] for w in result["witnesses"])
    targets = {tuple(w["target"]) for w in result["witnesses"]}
    assert targets == {(2, 2), (1, 2), (0, 2), (1, 3), (0, 3), (0, 4)}
    scan = result["rank_four_scan"]
    assert scan["rank_four_joins"] > 0 and scan["all_meets_trivial"]


def test_squares_construction_details():
    result = check_squares_construction()
    assert result["ok"] and result["problems"] == []
    assert result["base_pushout"] == {"vertices": 1, "edges": 2, "chi": -1}
    assert result["squared_pushout"]["chi"] == -1
    assert result["isolated_candidates"] >= 1
    assert result["wedge_pushout"]["chi"] == result["conjugated_join_rank"] * -1 + 1
    assert result["double_core_pushout"]["edges"] <= 4


# -- fiber-class probe ---------------------------------------------------------------


def test_probe_splits_on_figure_pair():
    # The join is the whole group: its core is the one-vertex rose, so every
    # core vertex of both factors sits in a single fiber, which still breaks
    # into several pushout classes.
    H, K = make(*FIGURE_LEFT), make(*FIGURE_RIGHT)
    probe = imrich_muller_probe(H, K)
    assert probe["split_fiber_count"] == 1
    assert len(probe["fibers"]) == 1
    fiber = probe["fibers"][0]
    assert fiber["fiber_size"] == H.graph.vertex_count + K.graph.vertex_count
    assert fiber["class_count"] >= 2
    assert probe["basepoint_class_is_base_pair"]
    assert probe["basepoint_class_size"] == 2


def test_probe_on_equal_pairs_never_splits():
    H = make("a", "bab")
    probe = imrich_muller_probe(H, H)
    assert probe["split_fiber_count"] == 0
    assert all(f["class_count"] == 1 for f in probe["fibers"])


def test_probe_single_class_when_pushout_is_already_folded():
    """A pushout needing no folds leaves every join fiber a single class.

    Equality of Euler characteristics is NOT a sufficient filter: a fold
    merging two distinct vertices keeps chi constant while gluing fibers,
    so the hypothesis must be that the pushout is already an immersion.
    """
    from stallings import based_meet_core, topological_pushout

    rng = random.Random(77)
    seen_already_folded = 0
    chi_equal_but_split = 0
    for _ in range(40):
        H = random_subgroup(rng, rng.randint(1, 3), 5)
        K = random_subgroup(rng, rng.randint(1, 3), 5)
        po = topological_pushout(H, K, [based_meet_core(H, K)])
        probe = imrich_muller_probe(H, K)
        if po.graph.is_properly_labeled():
            seen_already_folded += 1
            assert probe["split_fiber_count"] == 0
        elif po.chi == join(H, K).graph.chi and probe["split_fiber_count"]:
            chi_equal_but_split += 1
    assert seen_already_folded > 0
    # The insufficiency of the chi filter is realized, not hypothetical.
    assert chi_equal_but_split > 0


# -- the collector pause -------------------------------------------------------------


def _collector_state_after(call):
    """Whether the cyclic collector is on after ``call`` returns or raises."""
    try:
        call()
    except ValueError:
        pass
    return gc.isenabled()


def test_entry_points_restore_the_collector():
    """``subgroup_graph`` and ``check_instance`` pause the collector and turn
    it back on whether they return or raise."""
    A3 = Alphabet(3)
    calls = (
        lambda: subgroup_graph(["a", "bab"], RANK2),
        lambda: check_instance(make("a", "bab"), make("b", "aa")),
        lambda: subgroup_graph(["c"], RANK2),  # a letter past the rank
        lambda: check_instance(subgroup_graph([], RANK2), make("a")),
        lambda: check_instance(subgroup_graph(["a"], A3), subgroup_graph(["a"], A3)),
    )
    assert gc.isenabled()
    for call in calls:
        assert _collector_state_after(call)


def test_nested_entry_points_keep_the_collector_paused(monkeypatch):
    """``subgroup_graph`` folds with the collector off.  Nested in
    ``check_instance`` -> ``three_regularize``, it finds the collector off
    and leaves it off for the outer call."""
    from stallings import core, verify

    seen = []

    def recording(real):
        def call(*args):
            seen.append(gc.isenabled())
            result = real(*args)
            seen.append(gc.isenabled())
            return result

        return call

    monkeypatch.setattr(core, "trim_to_core", recording(core.trim_to_core))
    subgroup_graph(["a", "bab"], RANK2)
    assert seen == [False] * 2 and gc.isenabled()
    seen.clear()
    monkeypatch.setattr(verify, "three_regularize", recording(verify.three_regularize))
    report = check_instance(make("a", "bab"), make("a", "bab"))
    assert report.normalized and seen and not any(seen)
    assert gc.isenabled()


def test_entry_points_leave_a_disabled_collector_disabled():
    gc.disable()
    try:
        assert not _collector_state_after(lambda: subgroup_graph(["a", "bab"], RANK2))
        assert not _collector_state_after(lambda: check_instance(make("a"), make("a")))
        assert not _collector_state_after(lambda: check_instance(make("a"), subgroup_graph([], RANK2)))
    finally:
        gc.enable()


def test_pipeline_leaves_no_reference_cycles():
    """The premise of the pause: with the collector off throughout, full and
    long-word campaigns, their JSON, and the corpus leave nothing that only
    the cyclic collector could free.  A back reference, such as a graph that
    points to its subgroup, would fail this."""
    gc.collect()
    gc.disable()
    try:
        for config in (
            FuzzConfig(seed=0, instance_count=300),
            FuzzConfig(seed=2, instance_count=40, max_word_length=48),
        ):
            for _, _, report in fuzz(config):
                report.to_json()
        corpus()
        assert gc.collect() == 0
    finally:
        gc.enable()
