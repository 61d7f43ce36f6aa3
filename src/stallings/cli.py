"""Command-line front end: build cores, combine them, verify, and fuzz.

Subgroups arrive either as inline JSON (``{"alphabet_rank": 2,
"generators": ["a", "bab"]}``; the rank defaults to 2) or as a path to a
file holding the same JSON.  Output is aligned text by default, machine
JSON under ``--json``, and Graphviz DOT under ``--dot`` where a graph is
the result.  Exit codes: 0 when everything passed or was inapplicable,
2 when some verdict failed, 1 for usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import Subgroup, TrivialIntersectionError, subgroup_from_spec, subgroup_graph
from .matrices import NotNormalizedError
from .products import based_meet_core, intersection, join, topological_pushout
from .verify import (
    FuzzConfig,
    _normalize_with_meet,
    check_instance,
    corpus,
    fuzz,
    matrix_pipeline,
)
from .words import Alphabet, WordSyntaxError


class CliError(Exception):
    """Input or usage problem; rendered to stderr with exit code 1."""


def main() -> None:
    sys.exit(run(sys.argv[1:]))


def run(argv: list[str] | None = None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args, stdout, stderr)
    except (CliError, WordSyntaxError, NotNormalizedError, TrivialIntersectionError) as exc:
        print(f"error: {exc}", file=stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stallings",
        description="Compute with finitely generated subgroups of a free group.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    core = sub.add_parser("core", help="fold generators into a core graph")
    core.add_argument("generators", nargs="+", metavar="GEN")
    core.add_argument("--rank", type=int, default=2, help="alphabet rank (default 2)")
    _output_flags(core, dot=True)
    core.set_defaults(handler=_cmd_core)

    for name, help_text, handler in (
        ("intersect", "core of the intersection of two subgroups", _cmd_intersect),
        ("join", "core of the subgroup generated by both inputs", _cmd_join),
    ):
        p = sub.add_parser(name, help=help_text)
        _spec_args(p)
        _output_flags(p, dot=True)
        p.set_defaults(handler=handler)

    push = sub.add_parser(
        "pushout", help="quotient of the two cores along their meet's core"
    )
    _spec_args(push)
    _output_flags(push, dot=True)
    push.set_defaults(handler=_cmd_pushout)

    matrix = sub.add_parser(
        "matrix", help="incidence matrix, normal form, and entry-sum bound"
    )
    _spec_args(matrix)
    matrix.add_argument(
        "--normalize",
        action="store_true",
        help="run the normalization pipeline on the pair first",
    )
    _output_flags(matrix)
    matrix.set_defaults(handler=_cmd_matrix)

    check = sub.add_parser("check", help="evaluate every verdict on the pair")
    _spec_args(check)
    _output_flags(check)
    check.set_defaults(handler=_cmd_check)

    corpus_p = sub.add_parser("corpus", help="run all curated fixtures")
    _output_flags(corpus_p)
    corpus_p.set_defaults(handler=_cmd_corpus)

    fuzz_p = sub.add_parser("fuzz", help="random campaign, JSON lines on stdout")
    fuzz_p.add_argument("--seed", type=int, default=0)
    fuzz_p.add_argument("--count", type=int, default=100)
    fuzz_p.add_argument(
        "--max-rank", type=int, default=4, help="max generators per subgroup"
    )
    fuzz_p.add_argument(
        "--min-rank", type=int, default=1, help="min generators per subgroup"
    )
    fuzz_p.add_argument("--max-len", type=int, default=8)
    fuzz_p.add_argument(
        "--inequalities-only",
        action="store_true",
        help="skip the structural (normalized) checks",
    )
    fuzz_p.add_argument(
        "--nontrivial-meet",
        action="store_true",
        help="resample pairs until the meet is nontrivial",
    )
    fuzz_p.set_defaults(handler=_cmd_fuzz)

    return parser


def _spec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("left_spec", metavar="SPEC_H")
    parser.add_argument("right_spec", metavar="SPEC_K")


def _output_flags(parser: argparse.ArgumentParser, *, dot: bool = False) -> None:
    parser.add_argument("--json", action="store_true", help="machine JSON output")
    if dot:
        parser.add_argument("--dot", action="store_true", help="Graphviz DOT output")


# -- input loading -----------------------------------------------------------------


def _load_subgroup(text: str, arg_name: str) -> Subgroup:
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise CliError(f"{arg_name}: invalid JSON at position {exc.pos}: {exc.msg}")
    else:
        if not os.path.exists(stripped):
            raise CliError(f"{arg_name}: no such file: {stripped}")
        with open(stripped, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise CliError(
                    f"{arg_name}: invalid JSON in {stripped} "
                    f"(line {exc.lineno}, column {exc.colno}): {exc.msg}"
                )
    if not isinstance(data, dict):
        raise CliError(f"{arg_name}: expected a JSON object with a generators list")
    try:
        return subgroup_from_spec(data)
    except ValueError as exc:  # WordSyntaxError included
        raise CliError(f"{arg_name}: {exc}")


def _load_pair(args) -> tuple[Subgroup, Subgroup]:
    H = _load_subgroup(args.left_spec, "SPEC_H")
    K = _load_subgroup(args.right_spec, "SPEC_K")
    return H, K


# -- rendering ---------------------------------------------------------------------


def _subgroup_dict(sub: Subgroup) -> dict:
    return {
        "alphabet_rank": sub.alphabet.rank,
        "generators": [str(w) for w in sub.generators],
        "basis": [str(w) for w in sub.basis()],
        "rank": sub.rank,
        "vertices": sub.graph.vertex_count,
        "edges": sub.graph.edge_count,
        "chi": sub.graph.chi,
    }


def _print_subgroup(sub: Subgroup, args, stdout) -> int:
    if getattr(args, "dot", False):
        print(sub.graph.to_dot(), file=stdout)
        return 0
    data = _subgroup_dict(sub)
    if args.json:
        print(json.dumps(data, sort_keys=True), file=stdout)
        return 0
    for key in ("rank", "vertices", "edges", "chi"):
        print(f"{key}: {data[key]}", file=stdout)
    print("basis: " + (", ".join(data["basis"]) if data["basis"] else "(trivial)"), file=stdout)
    return 0


# -- subcommands -------------------------------------------------------------------


def _cmd_core(args, stdout, stderr) -> int:
    if args.rank < 1:
        raise CliError("--rank must be at least 1")
    alphabet = Alphabet(args.rank)
    words = []
    for i, text in enumerate(args.generators):
        try:
            words.append(alphabet.word(text))
        except WordSyntaxError as exc:
            raise CliError(f"generator {i + 1} ({text!r}): {exc}")
    return _print_subgroup(subgroup_graph(words, alphabet), args, stdout)


def _cmd_intersect(args, stdout, stderr) -> int:
    H, K = _load_pair(args)
    _require_same_alphabet(H, K)
    return _print_subgroup(intersection(H, K), args, stdout)


def _cmd_join(args, stdout, stderr) -> int:
    H, K = _load_pair(args)
    _require_same_alphabet(H, K)
    return _print_subgroup(join(H, K), args, stdout)


def _cmd_pushout(args, stdout, stderr) -> int:
    H, K = _load_pair(args)
    _require_same_alphabet(H, K)
    po = topological_pushout(H, K, [based_meet_core(H, K)])
    if args.dot:
        print(po.graph.to_dot(), file=stdout)
        return 0
    joined = join(H, K)
    data = {
        "vertices": po.graph.vertex_count,
        "edges": po.graph.edge_count,
        "chi": po.chi,
        "chi_join": joined.graph.chi,
        "star_class_count": po.star_classes().count,
        "special_vertex_count": len(po.special_vertices()),
        "folds_to_join": po.refolds_to(joined.graph),
    }
    if args.json:
        print(json.dumps(data, sort_keys=True), file=stdout)
    else:
        for key, value in data.items():
            print(f"{key}: {value}", file=stdout)
    return 0


def _cmd_matrix(args, stdout, stderr) -> int:
    H, K = _load_pair(args)
    _require_same_alphabet(H, K)
    if args.normalize:
        try:
            H, K, meet_core = _normalize_with_meet(H, K)
        except ValueError as exc:  # a trivial meet, or an alphabet not of rank 2
            raise CliError(str(exc))
    else:
        meet_core = based_meet_core(H, K)
    try:
        _, M, nf, delta, bound = matrix_pipeline(H, K, meet_core)
    except NotNormalizedError as exc:
        raise CliError(f"{exc} (rerun with --normalize)")
    data = {
        "shape": list(M.shape),
        "entry_sum": M.entry_sum,
        "ell": nf.ell,
        "p": nf.p,
        "q": nf.q,
        "blocks": [list(b) for b in nf.blocks],
        "star_class_count": nf.star_class_count,
        "entry_sum_bound": bound,
        "delta_components": delta.component_count,
        "delta_edges": delta.edge_count,
        "violations": list(nf.lemma_violations),
    }
    if args.json:
        data["matrix"] = [list(row) for row in M.entries]
        data["normal_form"] = [list(row) for row in nf.matrix]
        print(json.dumps(data, sort_keys=True), file=stdout)
        return 0
    print("matrix:", file=stdout)
    print(_indent(M.render()), file=stdout)
    print("normal form:", file=stdout)
    print(_indent(nf.render()), file=stdout)
    for key in (
        "entry_sum",
        "ell",
        "p",
        "q",
        "star_class_count",
        "entry_sum_bound",
        "delta_components",
        "delta_edges",
    ):
        value = data[key]
        print(f"{key}: {'not applicable' if value is None else value}", file=stdout)
    violations = data["violations"]
    print(
        "violations: " + ("; ".join(violations) if violations else "none"),
        file=stdout,
    )
    return 0


def _cmd_check(args, stdout, stderr) -> int:
    H, K = _load_pair(args)
    _require_same_alphabet(H, K)
    try:
        report = check_instance(H, K)
    except ValueError as exc:
        raise CliError(str(exc))
    if args.json:
        print(report.to_json(), file=stdout)
    else:
        data = report.to_dict()
        verdicts = data.pop("verdicts")
        for key in sorted(data):
            print(f"{key}: {data[key]}", file=stdout)
        print("verdicts:", file=stdout)
        width = max(len(name) for name in verdicts)
        for name in sorted(verdicts):
            verdict = verdicts[name]
            slack = "" if verdict["slack"] is None else f"  slack={verdict['slack']}"
            print(f"  {name:<{width}}  {verdict['status']}{slack}", file=stdout)
        print(f"overall: {'pass' if report.ok else 'FAIL'}", file=stdout)
    return 0 if report.ok else 2


def _cmd_corpus(args, stdout, stderr) -> int:
    result = corpus()
    if args.json:
        print(json.dumps(result, sort_keys=True), file=stdout)
    else:
        for entry in result["entries"]:
            print(f"{'pass' if entry['ok'] else 'FAIL'}  {entry['name']}", file=stdout)
            for problem in entry.get("problems", []):
                print(f"      {problem}", file=stdout)
        print(f"overall: {'pass' if result['ok'] else 'FAIL'}", file=stdout)
    return 0 if result["ok"] else 2


def _cmd_fuzz(args, stdout, stderr) -> int:
    config = FuzzConfig(
        seed=args.seed,
        instance_count=args.count,
        min_generators=args.min_rank,
        max_generators=args.max_rank,
        max_word_length=args.max_len,
        checks="inequalities" if args.inequalities_only else "full",
        require_nontrivial_meet=args.nontrivial_meet,
    )
    try:
        report = fuzz(config)
    except ValueError as exc:
        raise CliError(str(exc))
    stdout.write(report.to_json_lines())
    summary = report.summary()
    print(
        f"instances: {summary['instances']}  "
        f"violations: {len(summary['violations'])}  "
        f"ok: {summary['ok']}",
        file=stderr,
    )
    return 0 if report.ok else 2


def _require_same_alphabet(H: Subgroup, K: Subgroup) -> None:
    if H.alphabet != K.alphabet:
        raise CliError(
            f"alphabet mismatch: SPEC_H has rank {H.alphabet.rank}, "
            f"SPEC_K has rank {K.alphabet.rank}"
        )


def _indent(text: str, prefix: str = "  ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())


if __name__ == "__main__":
    main()
