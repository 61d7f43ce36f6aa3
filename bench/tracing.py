"""Traced run: per-layer spans and counts around the package's public calls.

Nothing inside ``src/`` is instrumented.  For each pair the real
``subgroup_from_spec`` and ``check_instance`` calls are timed as single
spans, and then a replica built only from public calls repeats their work
step by step, each step in its own span:

* subgroup construction: ``Alphabet.word``, ``bouquet_of`` +
  ``fold_to_immersion``, ``trim_to_core``, ``Subgroup.from_core``;
* ``check_instance``: the raw products, then (meet nontrivial, full checks)
  ``normalize_pair`` and the products, pushout queries and matrices of the
  normalized pair, then ``derive_verdicts``.

The replica must reproduce ``check_instance``'s report JSON byte for byte;
a pair where it does not counts as failed.  Spans are kept in memory and
written to ``bench/out/`` when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from pairs import BATCH, Outcome, check_pair, pair_stream

#: Per-layer metrics with their units, in report order.  Times are sums
#: over the run; ``.norm`` marks calls on the normalized pair.
PER_LAYER = (
    ("words.parse.self_s", "s"),
    ("words.letters", "count"),
    ("graphs.fold.self_s", "s"),
    ("graphs.trim.self_s", "s"),
    ("graphs.pushout_refold.self_s", "s"),
    ("graphs.fold_merges", "count"),
    ("core.subgroup_from_spec.s", "s"),
    ("core.from_core.self_s", "s"),
    ("core.core_vertices", "count"),
    ("products.based_meet_core.self_s", "s"),
    ("products.join.self_s", "s"),
    ("products.topological_pushout.self_s", "s"),
    ("products.double_cosets.self_s", "s"),
    ("products.based_meet_core.norm.self_s", "s"),
    ("products.join.norm.self_s", "s"),
    ("products.topological_pushout.norm.self_s", "s"),
    ("products.double_cosets.norm.self_s", "s"),
    ("products.pushout_queries.norm.self_s", "s"),
    ("products.product_vertices", "count"),
    ("products.product_edges", "count"),
    ("products.positive_rank_components", "count"),
    ("products.useful_vertex_ratio", "ratio"),
    ("matrices.incidence_matrix.self_s", "s"),
    ("matrices.normal_form.self_s", "s"),
    ("matrices.bipartite_delta.self_s", "s"),
    ("matrices.cells", "count"),
    ("verify.check_instance.s", "s"),
    ("verify.normalize_pair.self_s", "s"),
    ("verify.derive_verdicts.self_s", "s"),
    ("verify.to_json.self_s", "s"),
    ("verify.normalized_share", "ratio"),
    ("verify.normalized_core_vertices", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)


class Tracer:
    """In-memory spans: [name, start, end, parent index or None, pair id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.pair = 0

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: total duration and self time (minus children)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        total, own = Counter(), Counter()
        for (name, start, end, _, _), inner in zip(self.spans, covered):
            total[name] += end - start
            own[name] += end - start - inner
        return total, own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        record = [self.name, 0.0, 0.0, t._open[-1] if t._open else None, t.pair]
        t.spans.append(record)
        t._open.append(self.index)
        record[1] = time.perf_counter()

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._open.pop()
        t.spans[self.index][2] = end


# -- replicas ---------------------------------------------------------------------


def replica_subgroup(st, tr: Tracer, spec: dict, counts: Counter):
    """``subgroup_from_spec`` split into its layers."""
    alphabet = st.Alphabet(spec["alphabet_rank"])
    with tr.span("words.parse"):
        words = [alphabet.word(text) for text in spec["generators"]]
    with tr.span("graphs.fold"):
        bouquet = st.bouquet_of(words, alphabet)
        folded = st.fold_to_immersion(bouquet).graph
    with tr.span("graphs.trim"):
        core = st.trim_to_core(folded)
    with tr.span("core.from_core"):
        sub = st.Subgroup.from_core(
            core, alphabet, generators=tuple(w for w in words if not w.is_identity)
        )
    counts["words.letters"] += sum(len(w) for w in words)
    counts["graphs.fold_merges"] += bouquet.edge_count - folded.edge_count
    counts["core.core_vertices"] += sub.graph.vertex_count
    return sub


def _products(st, tr: Tracer, H, K, suffix: str):
    with tr.span("products.based_meet_core" + suffix):
        meet_core = st.based_meet_core(H, K)
    with tr.span("products.join" + suffix):
        join_sub = st.join(H, K)
    with tr.span("products.topological_pushout" + suffix):
        po = st.topological_pushout(H, K, [meet_core])
    return meet_core, join_sub, po


def _count_product(H, K, cosets, counts: Counter) -> None:
    gH, gK = H.graph, K.graph
    counts["products.product_vertices"] += gH.vertex_count * gK.vertex_count
    labels_H = Counter(label for _, label, _, _ in gH.edges())
    labels_K = Counter(label for _, label, _, _ in gK.edges())
    counts["products.product_edges"] += sum(n * labels_K[label] for label, n in labels_H.items())
    counts["products.positive_rank_components"] += len(cosets.entries)
    counts["products.useful_vertices"] += sum(e.core.vertex_count for e in cosets.entries)


def replica_check(st, tr: Tracer, H, K, structural: bool, counts: Counter):
    """``check_instance`` rebuilt from public calls, in its order."""
    meet_core, join_sub, po = _products(st, tr, H, K, "")
    rank_meet = meet_core.edge_count - meet_core.vertex_count + 1
    with tr.span("products.double_cosets"):
        cosets = st.double_cosets(H, K)
    with tr.span("graphs.pushout_refold"):
        refolds = po.folded_core() == join_sub.graph
    fields = {
        "h": H.rank,
        "k": K.rank,
        "rank_meet": rank_meet,
        "rank_join": join_sub.rank,
        "chi_T": po.chi,
        "chi_join": join_sub.graph.chi,
        "double_coset_ranks": cosets.ranks,
        "pushout_refolds_to_join": refolds,
        "normalized": False,
    }
    _count_product(H, K, cosets, counts)
    if structural and rank_meet >= 1:
        fields.update(_replica_structural(st, tr, H, K, counts))
    with tr.span("verify.derive_verdicts"):
        verdicts = st.derive_verdicts(SimpleNamespace(**fields))
    return st.InstanceReport(**fields, verdicts=verdicts)


def _replica_structural(st, tr: Tracer, H, K, counts: Counter) -> dict:
    with tr.span("verify.normalize_pair"):
        Hn, Kn = st.normalize_pair(H, K)
    meet_core, join_sub, po = _products(st, tr, Hn, Kn, ".norm")
    with tr.span("products.pushout_queries.norm"):
        po.loop_quotient_edges()
        stars = po.star_classes()
    with tr.span("matrices.incidence_matrix"):
        M = st.incidence_matrix(Hn, Kn, meet_core)
    with tr.span("matrices.normal_form"):
        nf = st.normal_form(M, po)
    with tr.span("matrices.bipartite_delta"):
        delta = st.bipartite_delta(M, nf)
    with tr.span("products.double_cosets.norm"):
        cosets = st.double_cosets(Hn, Kn)
    with tr.span("products.topological_pushout.norm"):
        multi = st.topological_pushout(Hn, Kn, [entry.core for entry in cosets.entries])
    with tr.span("products.pushout_queries.norm"):
        special = len(po.special_vertices())
        violations = len(po.valence_bound_violations())
        multi_stars = multi.star_classes().count
        multi_special = len(multi.special_vertices())
    _count_product(Hn, Kn, cosets, counts)
    rows, cols = M.shape
    counts["matrices.cells"] += rows * cols
    counts["verify.normalized_pairs"] += 1
    counts["verify.normalized_core_vertices"] += Hn.graph.vertex_count + Kn.graph.vertex_count
    return {
        "normalized": True,
        "ell": nf.ell,
        "p": nf.p,
        "q": nf.q,
        "star_class_count": stars.count,
        "entry_sum": nf.entry_sum,
        "chi_T_norm": po.chi,
        "chi_join_norm": join_sub.graph.chi,
        "special_vertex_count": special,
        "valence_bound_violation_count": violations,
        "normal_form_violation_count": len(nf.lemma_violations),
        "delta_edge_count": delta.edge_count,
        "delta_component_count": delta.component_count,
        "multicore_chi": multi.chi,
        "multicore_star_class_count": multi_stars,
        "multicore_special_count": multi_special,
    }


# -- the traced run -------------------------------------------------------------


def traced_pair(st, tr: Tracer, left: dict, right: dict, structural: bool, counts: Counter):
    """One traced pair; returns (H, K, report, line, mismatch reason or None)."""
    with tr.span("pair"):
        with tr.span("core.subgroup_from_spec"):
            H = st.subgroup_from_spec(left)
        with tr.span("core.subgroup_from_spec"):
            K = st.subgroup_from_spec(right)
        with tr.span("replica.subgroup_from_spec"):
            Hr = replica_subgroup(st, tr, left, counts)
            Kr = replica_subgroup(st, tr, right, counts)
        with tr.span("verify.check_instance"):
            report = st.check_instance(H, K, structural=structural)
        with tr.span("replica.check_instance"):
            replica = replica_check(st, tr, Hr, Kr, structural, counts)
        with tr.span("verify.to_json"):
            line = report.to_json()
    mismatch = None
    if (Hr, Kr) != (H, K) or (Hr.generators, Kr.generators) != (H.generators, K.generators):
        mismatch = "replica subgroups differ from subgroup_from_spec"
    elif replica.to_json() != line:
        mismatch = "replica report JSON differs from check_instance"
    return H, K, report, line, mismatch


def run_traced(st, workload, seed: int, seconds: float, out_dir: Path):
    """Traced closed loop for ``seconds`` of traced pair time, then an
    untraced replay of the same pairs for ``trace.overhead``.

    Returns (rows, outcome) in the form ``run.emit`` prints.
    """
    tr = Tracer()
    counts: Counter = Counter()
    outcome = Outcome()
    stream = pair_stream(workload, seed)
    specs = []
    traced = 0.0
    while traced < seconds:
        done = []
        for left, right in [next(stream) for _ in range(BATCH)]:
            tr.pair = len(specs)
            specs.append((left, right))
            start = time.perf_counter()
            try:
                done.append(traced_pair(st, tr, left, right, workload.structural, counts))
            except Exception as exc:  # a failing pair is counted, never fatal
                done.append(f"{type(exc).__name__}: {exc}")
            traced += time.perf_counter() - start
            if traced >= seconds:
                break
        for result in done:
            if isinstance(result, str):
                outcome.record(result, None)
                continue
            H, K, report, line, mismatch = result
            outcome.record(mismatch or check_pair(st, H, K, report, line), line)

    start = time.perf_counter()
    for left, right in specs:
        try:
            H = st.subgroup_from_spec(left)
            K = st.subgroup_from_spec(right)
            st.check_instance(H, K, structural=workload.structural).to_json()
        except Exception:  # already counted by the traced pass
            pass
    untraced = time.perf_counter() - start

    total, own = tr.self_times()
    replica_steps = sum(
        end - start
        for _, start, end, parent, _ in tr.spans
        if parent is not None and tr.spans[parent][0] == "replica.check_instance"
    )
    pairs = len(specs)
    values = dict(counts)
    for name, _ in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = own[name[: -len(".self_s")]]
        elif name.endswith(".s"):
            values[name] = total[name[: -len(".s")]]
    values["products.useful_vertex_ratio"] = (
        counts["products.useful_vertices"] / (counts["products.product_vertices"] or 1)
    )
    values["verify.normalized_share"] = counts["verify.normalized_pairs"] / pairs
    values["trace.coverage"] = replica_steps / total["verify.check_instance"]
    values["trace.overhead"] = untraced / traced
    tr.write(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    rows = [(name, values.get(name, 0), unit, "") for name, unit in PER_LAYER]
    return rows, outcome
