"""Verification harness: evaluate every rank inequality on subgroup pairs.

``check_instance`` extracts the meet, the join, the pushout, and the double
cosets of one pair, normalizes the pair (3-regularize, rebase at the meet's
core), measures the star classes / incidence matrix / pairing graph of the
normalized pushout, and renders everything as three-valued verdicts:
``pass``/``fail`` each carry an integer slack, and checks whose hypotheses
do not hold report ``not_applicable`` rather than a vacuous pass.

The module also ships the curated fixtures (``corpus``), rank-sharpness
witnesses, the edge-squaring construction, the fiber-class probe, and a
deterministic fuzzing campaign whose reports serialize to JSON lines.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

from .core import (
    Subgroup,
    TrivialIntersectionError,
    _tree_paths,
    subgroup_graph,
    three_regularize,
)
from .graphs import IN, OUT, LabeledGraph, based_product, trim_to_core
from .matrices import bipartite_delta, entry_sum_bound, incidence_matrix, normal_form
from .products import (
    LEFT,
    RIGHT,
    based_meet_core,
    double_cosets,
    intersection,
    join,
    join_with_maps,
    topological_pushout,
)
from .words import RANK2, Alphabet, Word, embed_into_rank2, generator_squares

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not_applicable"


# -- verdicts ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of a single check.

    For a bound check the slack is (bound - value), nonnegative exactly when
    the check passes.  For an identity check it is minus the absolute
    discrepancy, so zero exactly when the check passes.  Yes/no checks and
    inapplicable checks carry no slack.
    """

    status: str
    slack: int | None = None

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def to_dict(self) -> dict:
        return {"status": self.status, "slack": self.slack}

    @staticmethod
    def from_dict(data: dict) -> "Verdict":
        return Verdict(status=data["status"], slack=data.get("slack"))


_NA = Verdict(NOT_APPLICABLE)


def _within(value: int, bound: int) -> Verdict:
    slack = bound - value
    return Verdict(PASS if slack >= 0 else FAIL, slack)


def _equals(actual: int, expected: int) -> Verdict:
    slack = -abs(actual - expected)
    return Verdict(PASS if slack == 0 else FAIL, slack)


def _holds(ok: bool) -> Verdict:
    return Verdict(PASS if ok else FAIL)


#: Verdicts that require the normalized pipeline (hence a nontrivial meet).
STRUCTURAL_VERDICTS = (
    "no_special_vertices",
    "star_valence_bound",
    "euler_star_bound",
    "normal_form_blocks",
    "class_count_identity",
    "entry_sum_within_bound",
    "no_p_and_q",
    "delta_components",
    "delta_edges",
    "multicore_euler_star_bound",
    "multicore_no_special_vertices",
)

#: Verdicts computed from raw (unnormalized) quantities.
RAW_VERDICTS = (
    "hanna_neumann",
    "burns",
    "coset_sum_burns",
    "strong_burns",
    "particular_hnc",
    "rank_two_case",
    "pushout_chi_bound",
    "pushout_refolds_to_join",
)

VERDICT_NAMES = RAW_VERDICTS + STRUCTURAL_VERDICTS


def _entry_sum_ceiling(h: int, k: int, ell: int, p: int, q: int) -> int | None:
    """:func:`entry_sum_bound` where its hypotheses hold, else None."""
    if ell >= 1 and 2 * h - 2 > p + ell - 1 and 2 * k - 2 > q + ell - 1:
        return entry_sum_bound(h, k, ell, p, q)
    return None


def derive_verdicts(report) -> dict[str, Verdict]:
    """Recompute every verdict from the numeric fields of a report.

    Pure arithmetic over the other report fields: anything exposing them as
    attributes works, so a report rebuilt from its JSON fixture reproduces
    its verdicts exactly.
    """
    h, k = report.h, report.k
    meet_excess = report.rank_meet - 1
    join_excess = report.rank_join - 1
    hn_bound = 2 * (h - 1) * (k - 1)
    burns_bound = hn_bound - min(h - 1, k - 1)

    v: dict[str, Verdict] = {}
    v["hanna_neumann"] = _within(meet_excess, hn_bound)
    v["burns"] = _within(meet_excess, burns_bound)
    v["coset_sum_burns"] = _within(
        sum(r - 1 for r in report.double_coset_ranks), burns_bound
    )
    if report.rank_meet >= 1:
        lo, hi = min(h, k), max(h, k)
        v["strong_burns"] = _within(
            meet_excess, 2 * (lo - 1) * (hi - 1) - (lo - 1) * join_excess
        )
    else:
        v["strong_burns"] = _NA
    if 2 * join_excess >= h + k - 1:
        v["particular_hnc"] = _within(meet_excess, (h - 1) * (k - 1))
    else:
        v["particular_hnc"] = _NA
    if h == 2 and k == 2:
        v["rank_two_case"] = _within(report.rank_meet, 4 - report.rank_join)
    else:
        v["rank_two_case"] = _NA
    v["pushout_chi_bound"] = _within(report.chi_T, report.chi_join)
    v["pushout_refolds_to_join"] = _holds(report.pushout_refolds_to_join)

    if not report.normalized:
        for name in STRUCTURAL_VERDICTS:
            v[name] = _NA
        return v

    ell, p, q = report.ell, report.p, report.q
    stars = report.star_class_count
    v["no_special_vertices"] = _holds(report.special_vertex_count == 0)
    v["star_valence_bound"] = _holds(report.valence_bound_violation_count == 0)
    v["euler_star_bound"] = _within(-2 * report.chi_T_norm, stars)
    v["normal_form_blocks"] = _holds(report.normal_form_violation_count == 0)
    v["class_count_identity"] = _equals(ell + p + q, stars)
    ceiling = _entry_sum_ceiling(h, k, ell, p, q)
    if ceiling is not None:
        v["entry_sum_within_bound"] = _within(report.entry_sum, ceiling)
    else:
        v["entry_sum_within_bound"] = _NA
    if p == 0 and q == 0 and stars > 0:
        v["no_p_and_q"] = _within(2, ell)
    else:
        v["no_p_and_q"] = _NA
    v["delta_components"] = _equals(report.delta_component_count, ell + p + q)
    v["delta_edges"] = _equals(report.delta_edge_count, 2 * report.rank_meet - 2)
    v["multicore_euler_star_bound"] = _within(
        -2 * report.multicore_chi, report.multicore_star_class_count
    )
    v["multicore_no_special_vertices"] = _holds(report.multicore_special_count == 0)
    return v


# -- instance reports --------------------------------------------------------------


@dataclass(frozen=True)
class InstanceReport:
    """Everything the harness measures on one subgroup pair.

    The numeric fields stand alone and ``verdicts`` is always exactly
    ``derive_verdicts(self)``.  The fields after ``normalized`` describe the
    normalized pair's pushout and matrix; they are ``None`` whenever the
    normalized pipeline did not run (trivial meet, or raw-only mode).
    """

    h: int
    k: int
    rank_meet: int
    rank_join: int
    chi_T: int
    chi_join: int
    double_coset_ranks: tuple[int, ...]
    pushout_refolds_to_join: bool
    normalized: bool
    ell: int | None = None
    p: int | None = None
    q: int | None = None
    star_class_count: int | None = None
    entry_sum: int | None = None
    chi_T_norm: int | None = None
    chi_join_norm: int | None = None
    special_vertex_count: int | None = None
    valence_bound_violation_count: int | None = None
    normal_form_violation_count: int | None = None
    delta_edge_count: int | None = None
    delta_component_count: int | None = None
    multicore_chi: int | None = None
    multicore_star_class_count: int | None = None
    multicore_special_count: int | None = None
    verdicts: dict[str, Verdict] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts.values())

    @property
    def failed_verdicts(self) -> tuple[str, ...]:
        return tuple(n for n, v in self.verdicts.items() if not v.ok)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["double_coset_ranks"] = list(self.double_coset_ranks)
        out["verdicts"] = {n: v.to_dict() for n, v in self.verdicts.items()}
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_dict(data: dict) -> "InstanceReport":
        values = dict(data)
        verdicts = {
            n: Verdict.from_dict(v) for n, v in values.pop("verdicts", {}).items()
        }
        values["double_coset_ranks"] = tuple(values["double_coset_ranks"])
        return InstanceReport(**values, verdicts=verdicts)


def check_instance(H: Subgroup, K: Subgroup, *, structural: bool = True) -> InstanceReport:
    """Evaluate every inequality and structural identity on one pair.

    ``structural=False`` skips the normalized pipeline and reports raw
    arithmetic only (the structural verdicts come back ``not_applicable``);
    this is much faster and is what large random campaigns use when only the
    rank inequalities are under test.
    """
    for side, sub in (("left", H), ("right", K)):
        if sub.alphabet.rank != 2:
            raise ValueError(
                f"{side} subgroup lives over a rank-{sub.alphabet.rank} alphabet; "
                "instances must use the rank-2 alphabet (embed them first)"
            )
        if sub.is_trivial:
            raise ValueError(f"trivial subgroup input ({side})")
    values = _raw_fields(H, K)
    if structural and values["rank_meet"] >= 1:
        values.update(_structural_fields(H, K, values))
    verdicts = derive_verdicts(SimpleNamespace(**values))
    return InstanceReport(**values, verdicts=verdicts)


def _raw_fields(H: Subgroup, K: Subgroup) -> dict:
    meet_core = based_meet_core(H, K)
    rank_meet = meet_core.edge_count - meet_core.vertex_count + 1
    join_sub = join(H, K)
    po = topological_pushout(H, K, [meet_core])
    cosets = double_cosets(H, K, meet_core)
    return {
        "h": H.rank,
        "k": K.rank,
        "rank_meet": rank_meet,
        "rank_join": join_sub.rank,
        "chi_T": po.chi,
        "chi_join": join_sub.graph.chi,
        "double_coset_ranks": cosets.ranks,
        "pushout_refolds_to_join": po.refolds_to(join_sub.graph),
        "normalized": False,
    }


def normalize_pair(H: Subgroup, K: Subgroup) -> tuple[Subgroup, Subgroup]:
    """Rewrite a pair so the structural identities' hypotheses all hold.

    3-regularizes both subgroups (making every branch vertex 3-valent),
    walks their based product once, and rebases the pair at its meet's core
    by at most one conjugation, so that neither factor core nor the meet's
    core has an extremal vertex.  Meet, join, and factor ranks are
    preserved.  Raises :class:`TrivialIntersectionError` when the meet is
    trivial.
    """
    Hn, Kn, _ = _normalize_with_meet(H, K)
    return Hn, Kn


def _normalize_with_meet(H: Subgroup, K: Subgroup) -> tuple[Subgroup, Subgroup, LabeledGraph]:
    """:func:`normalize_pair`, plus the normalized pair's based meet core.

    The based meet core immerses into both factor cores, so its basepoint's
    valence bounds theirs from below, and in a core only the basepoint can
    be extremal.  A meet core whose basepoint has valence >= 2 therefore
    leaves the pair as it is.  Otherwise the meet core hangs from its
    basepoint on a stem, whose word reads in both factors; conjugating by
    its inverse rebases all three cores at the stem's far end, a branch
    vertex of the meet core, without trimming anything.
    """
    H, K = three_regularize(H), three_regularize(K)
    # the meet is trivial when the based product component is a tree
    product = based_product(H.graph, K.graph)
    if product.chi == 1:
        raise TrivialIntersectionError("basepoint normalization needs a nontrivial intersection")
    meet_core = trim_to_core(product)
    if meet_core.valence(meet_core.basepoint) <= 1:
        step = ~_stem_word(meet_core)
        H, K = H.conj(step), K.conj(step)
        meet_core = based_meet_core(H, K)
    _require(
        all(g.valence(v) >= 2 for g in (H.graph, K.graph, meet_core) for v in g.vertices),
        "no factor core or meet core has an extremal vertex",
    )
    return H, K, meet_core


def _stem_word(graph: LabeledGraph) -> Word:
    """Letters along the unique path from an extremal basepoint to the
    nearest vertex of valence >= 3."""
    path, _ = _tree_paths(graph)
    for v, letters in path.items():  # in walk order, nearest first
        if graph.valence(v) >= 3:
            return Word(Alphabet(graph.rank), letters)
    raise ValueError("no branch vertex reachable; cannot normalize a rank <= 0 core")


def matrix_pipeline(H: Subgroup, K: Subgroup, meet_core: LabeledGraph) -> tuple:
    """The pushout along ``meet_core``, the incidence matrix, its normal form,
    its pairing graph and the entry-sum bound (None where it does not apply).

    Raises :class:`~stallings.matrices.NotNormalizedError` unless both cores
    are normalized.
    """
    M = incidence_matrix(H, K, meet_core)
    po = topological_pushout(H, K, [meet_core])
    nf = normal_form(M, po)
    bound = _entry_sum_ceiling(H.rank, K.rank, nf.ell, nf.p, nf.q)
    return po, M, nf, bipartite_delta(M, nf), bound


def _require(holds: bool, invariant: str) -> None:
    """Raise when the normalized pipeline breaks an invariant it relies on
    (an explicit check, so that ``python -O`` keeps it)."""
    if not holds:
        raise AssertionError(f"normalized pair broke an invariant: {invariant}")


def _structural_fields(H: Subgroup, K: Subgroup, raw: dict) -> dict:
    Hn, Kn, meet_core = _normalize_with_meet(H, K)
    _require((Hn.rank, Kn.rank) == (raw["h"], raw["k"]), "factor ranks are preserved")
    _require(
        meet_core.edge_count - meet_core.vertex_count + 1 == raw["rank_meet"],
        "the meet rank is preserved",
    )
    join_sub = join(Hn, Kn)
    _require(join_sub.rank == raw["rank_join"], "the join rank is preserved")

    po, _, nf, delta, _ = matrix_pipeline(Hn, Kn, meet_core)
    _require(not po.loop_quotient_edges(), "no pushout edge closes into a loop")
    cosets = double_cosets(Hn, Kn, meet_core)
    multi = topological_pushout(Hn, Kn, [entry.core for entry in cosets.entries])
    return {
        "normalized": True,
        "ell": nf.ell,
        "p": nf.p,
        "q": nf.q,
        "star_class_count": nf.star_class_count,
        "entry_sum": nf.entry_sum,
        "chi_T_norm": po.chi,
        "chi_join_norm": join_sub.graph.chi,
        "special_vertex_count": len(po.special_vertices()),
        "valence_bound_violation_count": len(po.valence_bound_violations()),
        "normal_form_violation_count": len(nf.lemma_violations),
        "delta_edge_count": delta.edge_count,
        "delta_component_count": delta.component_count,
        "multicore_chi": multi.chi,
        "multicore_star_class_count": multi.star_classes().count,
        "multicore_special_count": len(multi.special_vertices()),
    }


# -- random instances --------------------------------------------------------------


def random_subgroup(
    rng: random.Random, gen_count: int, max_len: int, alphabet: Alphabet = RANK2
) -> Subgroup:
    """Subgroup on ``gen_count`` random reduced words of length 1..max_len.

    Resamples until the subgroup is nontrivial; the draw sequence depends
    only on the rng state, so equal seeds give equal subgroups.
    """
    if gen_count < 1:
        raise ValueError("gen_count must be at least 1")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    while True:
        gens = [
            _random_reduced_word(rng, rng.randint(1, max_len), alphabet)
            for _ in range(gen_count)
        ]
        sub = subgroup_graph(gens, alphabet)
        if not sub.is_trivial:
            return sub


def random_rank_two_subgroup(rng: random.Random, max_len: int = 6) -> Subgroup:
    """Two-generator subgroup resampled until its rank is exactly two."""
    while True:
        sub = random_subgroup(rng, 2, max_len)
        if sub.rank == 2:
            return sub


def _random_reduced_word(rng: random.Random, length: int, alphabet: Alphabet) -> Word:
    signed = [x for i in range(1, alphabet.rank + 1) for x in (i, -i)]
    letters: list[int] = []
    for _ in range(length):
        options = signed if not letters else [x for x in signed if x != -letters[-1]]
        letters.append(rng.choice(options))
    return Word(alphabet, letters)


# -- fuzzing -----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FuzzConfig:
    """Campaign settings; identical configs produce identical streams."""

    seed: int = 0
    instance_count: int = 100
    min_generators: int = 1
    max_generators: int = 4
    max_word_length: int = 8
    checks: str = "full"  # "full" or "inequalities"
    require_nontrivial_meet: bool = False


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of a campaign, in instance order."""

    config: FuzzConfig
    pairs: tuple[tuple[dict, dict], ...]
    reports: tuple[InstanceReport, ...]

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.reports)

    @property
    def violations(self) -> tuple[dict, ...]:
        """Re-runnable fixtures for every failing instance."""
        return tuple(
            {
                "index": i,
                "left": left,
                "right": right,
                "failed_verdicts": list(report.failed_verdicts),
            }
            for i, ((left, right), report) in enumerate(zip(self.pairs, self.reports))
            if not report.ok
        )

    @property
    def min_slack(self) -> dict[str, int]:
        """Smallest slack seen per verdict, over instances where it applied."""
        out: dict[str, int] = {}
        for report in self.reports:
            for name, verdict in report.verdicts.items():
                if verdict.slack is None:
                    continue
                if name not in out or verdict.slack < out[name]:
                    out[name] = verdict.slack
        return out

    @property
    def status_counts(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for report in self.reports:
            for name, verdict in report.verdicts.items():
                per = out.setdefault(name, {PASS: 0, FAIL: 0, NOT_APPLICABLE: 0})
                per[verdict.status] += 1
        return out

    def to_json_lines(self) -> str:
        lines = [
            json.dumps(
                {
                    "index": i,
                    "left": left,
                    "right": right,
                    "report": report.to_dict(),
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            for i, ((left, right), report) in enumerate(zip(self.pairs, self.reports))
        ]
        return "\n".join(lines) + "\n" if lines else ""

    def summary(self) -> dict:
        return {
            "instances": len(self.reports),
            "ok": self.ok,
            "violations": list(self.violations),
            "min_slack": self.min_slack,
        }


def fuzz(config: FuzzConfig) -> FuzzReport:
    """Run ``check_instance`` over a deterministic stream of random pairs."""
    if config.instance_count < 0:
        raise ValueError("instance_count must be nonnegative")
    if not 1 <= config.min_generators <= config.max_generators:
        raise ValueError("need 1 <= min_generators <= max_generators")
    if config.max_word_length < 1:
        raise ValueError("max_word_length must be at least 1")
    if config.checks not in ("full", "inequalities"):
        raise ValueError('checks must be "full" or "inequalities"')
    rng = random.Random(config.seed)
    structural = config.checks == "full"
    pairs: list[tuple[dict, dict]] = []
    reports: list[InstanceReport] = []
    for _ in range(config.instance_count):
        H, K = _random_pair(rng, config)
        pairs.append((H.spec_dict(), K.spec_dict()))
        reports.append(check_instance(H, K, structural=structural))
    return FuzzReport(config=config, pairs=tuple(pairs), reports=tuple(reports))


def _random_pair(rng: random.Random, config: FuzzConfig) -> tuple[Subgroup, Subgroup]:
    while True:
        H = random_subgroup(
            rng,
            rng.randint(config.min_generators, config.max_generators),
            config.max_word_length,
        )
        K = random_subgroup(
            rng,
            rng.randint(config.min_generators, config.max_generators),
            config.max_word_length,
        )
        # the meet is trivial when the based product component is a tree
        if config.require_nontrivial_meet and based_product(H.graph, K.graph).chi == 1:
            continue
        return H, K


# -- curated fixtures --------------------------------------------------------------

#: Hand-checked pairs with known meet/join data.  Non-rank-2 entries are
#: embedded into the rank-2 alphabet generator by generator.
CORPUS_PAIRS: tuple[dict, ...] = (
    {
        "name": "pushout_gap",
        "alphabet_rank": 2,
        "left": ("aBBa", "abbAABA", "ABaba"),
        "right": ("aaba", "abbbbaaBBA"),
        "expect": {"rank_meet": 1, "rank_join": 2, "chi_T": -3, "chi_join": -1},
        "meet_cyclic_word": "abbAABBBBaba",
    },
    {
        "name": "self_join",
        "alphabet_rank": 2,
        "left": ("a", "bab"),
        "right": ("a", "bab"),
        "expect": {"rank_meet": 2, "rank_join": 2},
    },
    {
        "name": "cyclic_meet_full_join",
        "alphabet_rank": 2,
        "left": ("a", "bab"),
        "right": ("b", "aa"),
        "expect": {"rank_meet": 1, "rank_join": 2},
        "meet_subgroup": ("aa",),
    },
    {
        "name": "trivial_meet_full_join",
        "alphabet_rank": 2,
        "left": ("a", "bab"),
        "right": ("b", "aBabA"),
        "expect": {"rank_meet": 0, "rank_join": 2},
    },
    {
        "name": "disjoint_conjugates",
        "alphabet_rank": 3,
        "left": ("c", "Aba"),
        "right": ("a", "Bcb"),
        "expect": {"rank_meet": 0, "rank_join": 3},
    },
    {
        "name": "overlapping_bases",
        "alphabet_rank": 3,
        "left": ("a", "b"),
        "right": ("b", "c"),
        "expect": {"rank_meet": 1, "rank_join": 3},
    },
)


def fixture_pair(fix: dict) -> tuple[Subgroup, Subgroup]:
    """Instantiate a corpus entry, embedding wider alphabets into rank 2."""
    alphabet = Alphabet(fix.get("alphabet_rank", 2))

    def build(texts) -> Subgroup:
        words = [alphabet.word(t) for t in texts]
        if alphabet.rank != 2:
            words = [embed_into_rank2(w) for w in words]
        return subgroup_graph(words, RANK2)

    return build(fix["left"]), build(fix["right"])


def _same_cyclic_word(w: Word, target: Word) -> bool:
    """Whether ``w`` and ``target`` agree up to rotation and inversion."""
    a = tuple(w.cyclically_reduced().letters)
    for candidate in (target, ~target):
        t = tuple(candidate.cyclically_reduced().letters)
        if len(t) != len(a):
            continue
        if not a or any(a[i:] + a[:i] == t for i in range(len(a))):
            return True
    return False


def _run_pair_fixture(fix: dict) -> dict:
    H, K = fixture_pair(fix)
    report = check_instance(H, K)
    actual = {key: getattr(report, key) for key in fix["expect"]}
    problems = [
        f"{key}: expected {want}, got {actual[key]}"
        for key, want in fix["expect"].items()
        if actual[key] != want
    ]
    if report.failed_verdicts:
        problems.append("failed verdicts: " + ", ".join(report.failed_verdicts))
    if "meet_subgroup" in fix:
        want = subgroup_graph(list(fix["meet_subgroup"]), RANK2)
        if intersection(H, K) != want:
            problems.append("meet is not the expected subgroup")
    if "meet_cyclic_word" in fix:
        words = intersection(H, K).basis()
        target = RANK2.word(fix["meet_cyclic_word"])
        if len(words) != 1 or not _same_cyclic_word(words[0], target):
            problems.append("meet generator is not the expected loop")
    return {
        "name": fix["name"],
        "ok": not problems,
        "expected": dict(fix["expect"]),
        "actual": actual,
        "problems": problems,
    }


def corpus() -> dict:
    """Run every curated fixture and aggregate a JSON-friendly summary."""
    entries = [_run_pair_fixture(fix) for fix in CORPUS_PAIRS]

    H, K = fixture_pair(CORPUS_PAIRS[0])
    probe = imrich_muller_probe(H, K)
    entries.append(
        {
            "name": "fiber_class_probe",
            "ok": probe["split_fiber_count"] >= 1
            and probe["basepoint_class_is_base_pair"],
            "detail": probe,
        }
    )

    sharp = check_sharpness_suite()
    entries.append({"name": "sharpness_suite", "ok": sharp["ok"], "detail": sharp})
    squares = check_squares_construction()
    entries.append(
        {"name": "squares_construction", "ok": squares["ok"], "detail": squares}
    )
    return {"entries": entries, "ok": all(entry["ok"] for entry in entries)}


# -- sharpness ---------------------------------------------------------------------

#: Witnesses attaining every feasible (meet rank, join rank) for rank-2
#: pairs: join rank n >= 2 together with meet rank m <= 4 - n.
SHARPNESS_WITNESSES: tuple[dict, ...] = (
    {"rank_meet": 2, "rank_join": 2, "alphabet_rank": 2, "left": ("a", "bab"), "right": ("a", "bab")},
    {"rank_meet": 1, "rank_join": 2, "alphabet_rank": 2, "left": ("a", "bab"), "right": ("b", "aa")},
    {"rank_meet": 0, "rank_join": 2, "alphabet_rank": 2, "left": ("a", "bab"), "right": ("b", "aBabA")},
    {"rank_meet": 1, "rank_join": 3, "alphabet_rank": 3, "left": ("a", "b"), "right": ("b", "c")},
    {"rank_meet": 0, "rank_join": 3, "alphabet_rank": 3, "left": ("c", "Aba"), "right": ("a", "Bcb")},
    {"rank_meet": 0, "rank_join": 4, "alphabet_rank": 2, "left": ("b", "abA"), "right": ("aabAA", "aaabAAA")},
)


def check_sharpness_suite() -> dict:
    """Attain every feasible rank pair, and confirm rank-4 joins split.

    Each witness must hit its (meet, join) ranks exactly; a deterministic
    random scan then gathers rank-2 pairs whose join has rank four and
    confirms each such pair intersects trivially.
    """
    witnesses = []
    for fix in SHARPNESS_WITNESSES:
        H, K = fixture_pair(fix)
        got = (intersection(H, K).rank, join(H, K).rank)
        target = (fix["rank_meet"], fix["rank_join"])
        witnesses.append(
            {"target": list(target), "got": list(got), "ok": got == target}
        )

    scan = _rank_four_join_scan()
    ok = all(w["ok"] for w in witnesses) and scan["ok"]
    return {"witnesses": witnesses, "rank_four_scan": scan, "ok": ok}


def _rank_four_join_scan(pair_count: int = 120, seed: int = 20260814) -> dict:
    rng = random.Random(seed)
    rank_four = 0
    all_trivial = True
    for _ in range(pair_count):
        H = random_rank_two_subgroup(rng)
        K = random_rank_two_subgroup(rng)
        if join(H, K).rank == 4:
            rank_four += 1
            if intersection(H, K).rank != 0:
                all_trivial = False
    return {
        "pairs": pair_count,
        "rank_four_joins": rank_four,
        "all_meets_trivial": all_trivial,
        "ok": rank_four > 0 and all_trivial,
    }


# -- the edge-squaring construction -------------------------------------------------

#: An index-two pair whose pushout is a two-petal rose: each subgroup is the
#: kernel of one letter's exponent-sum mod 2.
SQUARES_LEFT = ("a", "bb", "baB")
SQUARES_RIGHT = ("b", "aa", "abA")


def check_squares_construction() -> dict:
    """Square every generator letter and chase the resulting tiny pushout.

    Squaring the letters of the index-two pair keeps the pushout small (one
    subdivided two-petal rose, Euler characteristic -1) while planting an
    isolated vertex in the fiber product; rebasing both subgroups at that
    vertex makes the based meet a single point, whose pushout is already the
    folded core of the join.  Quotienting along the original meet's core as
    well collapses the picture back down to at most four edges.
    """
    A = subgroup_graph(list(SQUARES_LEFT), RANK2)
    B = subgroup_graph(list(SQUARES_RIGHT), RANK2)
    base_po = topological_pushout(A, B, [based_meet_core(A, B)])

    H = subgroup_graph(
        [generator_squares(RANK2.word(t)) for t in SQUARES_LEFT], RANK2
    )
    K = subgroup_graph(
        [generator_squares(RANK2.word(t)) for t in SQUARES_RIGHT], RANK2
    )
    meet_core = based_meet_core(H, K)
    po = topological_pushout(H, K, [meet_core])

    a_center = {(0, OUT), (0, IN)}
    b_center = {(1, OUT), (1, IN)}
    # such a pair shares no dart kind, so it is an isolated product vertex
    candidates = sorted(
        (x, y)
        for x in H.graph.vertices
        if set(H.graph.vertex_type(x).darts) == a_center
        for y in K.graph.vertices
        if set(K.graph.vertex_type(y).darts) == b_center
    )

    detail: dict = {
        "base_pushout": _graph_shape(base_po.graph),
        "squared_pushout": _graph_shape(po.graph),
        "isolated_candidates": len(candidates),
    }
    problems: list[str] = []
    if (base_po.chi, base_po.graph.vertex_count, base_po.graph.edge_count) != (-1, 1, 2):
        problems.append("base pushout is not a two-petal rose")
    if po.chi != -1:
        problems.append(f"squared pushout has chi {po.chi}, expected -1")
    if not candidates:
        problems.append("no isolated product vertex with segment-center darts")

    if not problems:
        x, y = candidates[0]
        u = _path_word(H.graph, x, H.graph.basepoint)
        v = _path_word(K.graph, y, K.graph.basepoint)
        Hu, Kv = H.conj(u), K.conj(v)

        rebased_left = H.graph.with_basepoint(x).canonical()
        rebased_right = K.graph.with_basepoint(y).canonical()
        if Hu.graph != rebased_left.graph or Kv.graph != rebased_right.graph:
            problems.append("conjugating did not simply rebase the cores")
        if not (
            Hu.graph.isomorphic(H.graph, based=False)
            and Kv.graph.isomorphic(K.graph, based=False)
        ):
            problems.append("rebasing changed a core")

        point_core = based_meet_core(Hu, Kv)
        if (point_core.vertex_count, point_core.edge_count) != (1, 0):
            problems.append("conjugated pair's based meet is not a single point")
        po_uv = topological_pushout(Hu, Kv, [point_core])
        join_uv = join(Hu, Kv)
        detail["wedge_pushout"] = _graph_shape(po_uv.graph)
        detail["conjugated_join_rank"] = join_uv.rank
        if not po_uv.graph.is_properly_labeled():
            problems.append("wedge pushout needed folds")
        if po_uv.graph.canonical().graph != join_uv.graph:
            problems.append("wedge pushout is not the conjugated join's core")

        carried = meet_core.relabeled(
            {
                (vH, vK): (rebased_left.vertex_map[vH], rebased_right.vertex_map[vK])
                for vH, vK in meet_core.vertices
            },
            {
                (eH, eK): (rebased_left.edge_map[eH], rebased_right.edge_map[eK])
                for (eH, eK), _, _, _ in meet_core.edges()
            },
        )
        double_po = topological_pushout(Hu, Kv, [point_core, carried])
        detail["double_core_pushout"] = _graph_shape(double_po.graph)
        if double_po.graph.edge_count > 4:
            problems.append("double-core pushout kept more than four edges")

    detail["ok"] = not problems
    detail["problems"] = problems
    return detail


def _graph_shape(graph: LabeledGraph) -> dict:
    return {
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
        "chi": graph.chi,
    }


def _path_word(graph: LabeledGraph, src, dst) -> Word:
    """Letters read along some shortest path from ``src`` to ``dst``."""
    path, _ = _tree_paths(graph.with_basepoint(src))
    if dst not in path:
        raise ValueError(f"no path from {src!r} to {dst!r}")
    return Word(Alphabet(graph.rank), path[dst])


# -- fiber-class probe ---------------------------------------------------------------


def imrich_muller_probe(H: Subgroup, K: Subgroup) -> dict:
    """Partition each join vertex's fiber by the pushout's vertex classes.

    A claim in the literature would force every fiber to form a single
    class; fibers meeting two or more classes witness its failure.  The
    probe also reports whether the two basepoints form a class by
    themselves, which is what the pushout's basepoint argument relies on.
    """
    joined = join_with_maps(H, K)
    po = topological_pushout(H, K, [based_meet_core(H, K)])

    fibers: dict = {}
    for side, vertex_map, graph in (
        (LEFT, joined.left_vertex_map, H.graph),
        (RIGHT, joined.right_vertex_map, K.graph),
    ):
        for v in graph.vertices:
            z = vertex_map[v]
            if z is not None:
                fibers.setdefault(z, []).append((side, v))

    per_vertex = []
    split = 0
    for z in sorted(fibers):
        classes = {po.vertex_class[tagged] for tagged in fibers[z]}
        if len(classes) >= 2:
            split += 1
        per_vertex.append(
            {
                "join_vertex": z,
                "fiber_size": len(fibers[z]),
                "class_count": len(classes),
            }
        )

    base_pair = sorted(
        [(LEFT, H.graph.basepoint), (RIGHT, K.graph.basepoint)]
    )
    base_class = po.vertex_class[base_pair[0]]
    members = sorted(t for t, c in po.vertex_class.items() if c == base_class)
    return {
        "fibers": per_vertex,
        "split_fiber_count": split,
        "basepoint_class_size": len(members),
        "basepoint_class_is_base_pair": members == base_pair,
    }
