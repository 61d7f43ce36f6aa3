"""Acceptance suite: the seven headline criteria, one pass/fail line each.

Each test computes its criterion's outcome, prints a single summary line
(`ACCEPTANCE n: PASS/FAIL - detail`), then asserts, so the printed line and
the pytest outcome always agree.
"""

import random
import time

import pytest

from stallings import (
    FuzzConfig,
    RANK2,
    check_instance,
    check_squares_construction,
    fuzz,
    intersection,
    join,
    subgroup_graph,
)
from stallings.verify import FAIL, NOT_APPLICABLE, PASS, random_rank_two_subgroup

from conftest import (
    ACCEPTANCE_LINES,
    FIGURE_LEFT,
    FIGURE_MEET_WORD,
    FIGURE_RIGHT,
    fuzz_text,
    make,
    status_counts,
)


def announce(number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)


def embedded(*texts):
    from stallings import Alphabet, embed_into_rank2

    A = Alphabet(3)
    return subgroup_graph([embed_into_rank2(A.word(t)) for t in texts], RANK2)


def same_cyclic_class(w, target):
    """Rotation/inversion-independent comparison of cyclic words."""
    a = tuple(w.cyclically_reduced().letters)
    for candidate in (target, ~target):
        t = tuple(candidate.cyclically_reduced().letters)
        if len(t) == len(a) and (
            not a or any(a[i:] + a[:i] == t for i in range(len(a)))
        ):
            return True
    return False


def test_acceptance_1_worked_figure():
    """Exact meet/join/pushout numbers of the worked two-subgroup figure."""
    start = time.perf_counter()
    H = make(*FIGURE_LEFT)  # <ab^-2 a, (b a^-2)^(ab), a^(a^-1 b^-1)>
    K = make(*FIGURE_RIGHT)  # <a^2 b a, (b^2 a^2)^(a b^2)>
    report = check_instance(H, K)
    meet = intersection(H, K)
    generator_ok = len(meet.basis()) == 1 and same_cyclic_class(
        meet.basis()[0], RANK2.word(FIGURE_MEET_WORD)
    )
    elapsed = time.perf_counter() - start
    ok = (
        (report.rank_meet, report.rank_join) == (1, 2)
        and (report.chi_T, report.chi_join) == (-3, -1)
        and generator_ok
        and elapsed < 1.0
    )
    announce(
        1,
        ok,
        f"meet {report.rank_meet}, join {report.rank_join}, "
        f"chi_T {report.chi_T}, chi_join {report.chi_join}, "
        f"meet generator matched={generator_ok}, {elapsed:.3f}s",
    )
    assert (report.rank_meet, report.rank_join) == (1, 2)
    assert (report.chi_T, report.chi_join) == (-3, -1)
    assert generator_ok
    assert elapsed < 1.0


def test_acceptance_2_rank_table():
    """The four introductory (meet rank, join rank) examples, exactly."""
    table = (
        (make("a", "bab"), make("b", "aa"), 1, 2),
        (make("a", "bab"), make("b", "aBabA"), 0, 2),
        (embedded("c", "Aba"), embedded("a", "Bcb"), 0, 3),
        (embedded("a", "b"), embedded("b", "c"), 1, 3),
    )
    results = [
        (intersection(H, K).rank, join(H, K).rank, m, j) for H, K, m, j in table
    ]
    ok = all((a, b) == (m, j) for a, b, m, j in results)
    announce(2, ok, "got " + ", ".join(f"({a},{b})" for a, b, _, _ in results))
    for a, b, m, j in results:
        assert (a, b) == (m, j)


def test_acceptance_3_rank_two_theorem():
    """2000 seeded rank-2 pairs obey meet <= 4 - join; equality is attained."""
    start = time.perf_counter()
    rng = random.Random(20260814)
    failures = 0
    applicable = 0
    for _ in range(2000):
        H = random_rank_two_subgroup(rng, 6)
        K = random_rank_two_subgroup(rng, 6)
        report = check_instance(H, K, structural=False)
        verdict = report.verdicts["rank_two_case"]
        assert verdict.status != NOT_APPLICABLE  # h = k = 2 by construction
        applicable += 1
        if verdict.status == FAIL:
            failures += 1

    eq_22 = check_instance(make("a", "bab"), make("a", "bab"), structural=False)
    eq_13 = check_instance(embedded("a", "b"), embedded("b", "c"), structural=False)
    attains_22 = (
        (eq_22.rank_meet, eq_22.rank_join) == (2, 2)
        and eq_22.verdicts["rank_two_case"].slack == 0
    )
    attains_13 = (
        (eq_13.rank_meet, eq_13.rank_join) == (1, 3)
        and eq_13.verdicts["rank_two_case"].slack == 0
    )
    elapsed = time.perf_counter() - start
    ok = failures == 0 and attains_22 and attains_13 and elapsed < 30.0
    announce(
        3,
        ok,
        f"{applicable} pairs, {failures} violations, equality at (2,2) and "
        f"(1,3): {attains_22 and attains_13}, {elapsed:.1f}s",
    )
    assert failures == 0
    assert attains_22 and attains_13
    assert elapsed < 30.0


def test_acceptance_4_inequality_suite():
    """2000 seeded pairs: Burns-family and coset-sum verdicts, zero failures."""
    start = time.perf_counter()
    stream = fuzz(
        FuzzConfig(
            seed=20260814,
            instance_count=2000,
            max_generators=4,
            max_word_length=8,
            structural=False,
        )
    )
    watched = ("burns", "strong_burns", "particular_hnc", "coset_sum_burns")
    counts = status_counts(report for _, _, report in stream)
    fail_total = sum(counts[name][FAIL] for name in watched)
    vacuous = [name for name in watched if counts[name][PASS] == 0]
    elapsed = time.perf_counter() - start
    ok = fail_total == 0 and not vacuous and elapsed < 120.0
    announce(
        4,
        ok,
        f"2000 pairs, {fail_total} violations, pass counts "
        + str({name: counts[name][PASS] for name in watched})
        + f", {elapsed:.1f}s",
    )
    assert fail_total == 0
    assert not vacuous  # every watched inequality actually fired somewhere
    assert elapsed < 120.0


def test_acceptance_5_structural_suite():
    """500 normalized nontrivial-meet pairs: every structural lemma holds."""
    start = time.perf_counter()
    reports = [
        report
        for _, _, report in fuzz(
            FuzzConfig(
                seed=20260814,
                instance_count=500,
                structural=True,
                require_nontrivial_meet=True,
            )
        )
    ]
    watched = (
        "no_special_vertices",
        "euler_star_bound",
        "class_count_identity",
        "entry_sum_within_bound",
        "delta_components",
        "delta_edges",
        "no_p_and_q",
    )
    counts = status_counts(reports)
    fail_total = sum(counts[name][FAIL] for name in watched)
    all_normalized = all(r.normalized for r in reports)
    elapsed = time.perf_counter() - start
    ok = fail_total == 0 and all_normalized
    announce(
        5,
        ok,
        f"500 pairs, {fail_total} violations, all normalized: "
        f"{all_normalized}, {elapsed:.1f}s",
    )
    assert all_normalized
    assert fail_total == 0
    for name in watched:
        assert counts[name][FAIL] == 0, name


def test_acceptance_6_squares_construction():
    """Letter-squaring: tiny pushout, isolated vertex, rebase gives the join."""
    detail = check_squares_construction()
    ok = (
        detail["ok"]
        and detail["squared_pushout"]["chi"] == -1
        and detail["isolated_candidates"] >= 1
        and not detail["problems"]
    )
    announce(
        6,
        ok,
        f"pushout chi {detail['squared_pushout']['chi']}, "
        f"{detail['isolated_candidates']} isolated candidates, "
        f"problems: {detail['problems'] or 'none'}",
    )
    assert detail["ok"]
    assert detail["squared_pushout"]["chi"] == -1
    assert detail["isolated_candidates"] >= 1


def test_acceptance_7_determinism():
    """Same seed, same campaign: byte-identical JSON-lines output."""
    config = FuzzConfig(seed=99, instance_count=40, structural=True)
    first = fuzz_text(config)
    second = fuzz_text(config)
    ineq = FuzzConfig(seed=99, instance_count=40, structural=False)
    third = fuzz_text(ineq)
    fourth = fuzz_text(ineq)
    ok = first == second and third == fourth and first != third
    announce(
        7,
        ok,
        f"full mode identical: {first == second}, "
        f"inequalities mode identical: {third == fourth}",
    )
    assert first == second
    assert third == fourth
    assert first != third  # the mode is part of the observable stream
