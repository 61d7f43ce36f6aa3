"""Command-line front end: build cores, combine them, verify, and fuzz.

Subgroups arrive either as inline JSON (``{"alphabet_rank": 2,
"generators": ["a", "bab"]}``; the rank defaults to 2) or as a path to a
file holding the same JSON.  Output is aligned text by default, machine
JSON under ``--json``, and Graphviz DOT under ``--dot`` where a graph is
the result.  Exit codes: 0 when everything passed or was inapplicable,
2 when some verdict failed, 1 for usage or input errors.  Every refusal,
the CLI's own or the library's, is a ``ValueError``; :func:`run` is the one
place that turns it into an ``error:`` line and exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import Subgroup, subgroup_from_spec, subgroup_graph
from .matrices import NotNormalizedError
from .products import based_meet_core, intersection, join, topological_pushout
from .verify import (
    FuzzConfig,
    _normalize_with_meet,
    check_instance,
    corpus,
    fuzz,
    fuzz_line,
    matrix_pipeline,
)
from .words import Alphabet, WordSyntaxError


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``| head``): stop, and point stdout at
        # devnull so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


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
    except ValueError as exc:  # every refusal, from the CLI or the library
        print(f"error: {exc}", file=stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stallings",
        description="Compute with finitely generated subgroups of a free group.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parsers = {}
    for name, help_text, handler in (
        ("core", "fold generators into a core graph", _cmd_core),
        ("intersect", "core of the intersection of two subgroups", _cmd_intersect),
        ("join", "core of the subgroup generated by both inputs", _cmd_join),
        ("pushout", "quotient of the two cores along their meet's core", _cmd_pushout),
        ("matrix", "incidence matrix, normal form, and entry-sum bound", _cmd_matrix),
        ("check", "evaluate every verdict on the pair", _cmd_check),
        ("corpus", "run all curated fixtures", _cmd_corpus),
        ("fuzz", "random campaign, JSON lines on stdout", _cmd_fuzz),
    ):
        p = parsers[name] = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if name in ("intersect", "join", "pushout", "matrix", "check"):
            p.add_argument("left_spec", metavar="SPEC_H")
            p.add_argument("right_spec", metavar="SPEC_K")
        if name != "fuzz":
            p.add_argument("--json", action="store_true", help="machine JSON output")
        if name in ("core", "intersect", "join", "pushout"):
            p.add_argument("--dot", action="store_true", help="Graphviz DOT output")

    parsers["core"].add_argument("generators", nargs="+", metavar="GEN")
    parsers["core"].add_argument("--rank", type=int, default=2, help="alphabet rank (default 2)")
    parsers["matrix"].add_argument(
        "--normalize",
        action="store_true",
        help="run the normalization pipeline on the pair first",
    )
    # each fuzz flag stores into its FuzzConfig field, default included, and
    # keeps the flag's own name in --help
    fuzz_p, defaults = parsers["fuzz"], FuzzConfig()
    for flag, field, help_text in (
        ("--seed", "seed", None),
        ("--count", "instance_count", None),
        ("--max-rank", "max_generators", "max generators per subgroup"),
        ("--min-rank", "min_generators", "min generators per subgroup"),
        ("--max-len", "max_word_length", None),
    ):
        metavar = flag[2:].replace("-", "_").upper()
        default = getattr(defaults, field)
        fuzz_p.add_argument(
            flag, type=int, dest=field, default=default, metavar=metavar, help=help_text
        )
    fuzz_p.add_argument(
        "--inequalities-only",
        action="store_false",
        dest="structural",
        help="skip the structural (normalized) checks",
    )
    fuzz_p.add_argument(
        "--nontrivial-meet",
        action="store_true",
        dest="require_nontrivial_meet",
        help="resample pairs until the meet is nontrivial",
    )
    return parser


# -- input loading -----------------------------------------------------------------


def _load_subgroup(text: str, arg_name: str) -> Subgroup:
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{arg_name}: invalid JSON at position {exc.pos}: {exc.msg}")
    else:
        try:
            with open(stripped, encoding="utf-8") as handle:
                raw = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ValueError(f"{arg_name}: cannot read {stripped}: {reason}")
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{arg_name}: invalid JSON in {stripped} "
                f"(line {exc.lineno}, column {exc.colno}): {exc.msg}"
            )
    if not isinstance(data, dict):
        raise ValueError(f"{arg_name}: expected a JSON object with a generators list")
    try:
        return subgroup_from_spec(data)
    except ValueError as exc:  # WordSyntaxError included
        raise ValueError(f"{arg_name}: {exc}")


def _load_pair(args) -> tuple[Subgroup, Subgroup]:
    H = _load_subgroup(args.left_spec, "SPEC_H")
    K = _load_subgroup(args.right_spec, "SPEC_K")
    if H.alphabet != K.alphabet:
        raise ValueError(
            f"alphabet mismatch: SPEC_H has rank {H.alphabet.rank}, "
            f"SPEC_K has rank {K.alphabet.rank}"
        )
    return H, K


# -- output ------------------------------------------------------------------------


def _emit(args, stdout, data: dict, lines=None) -> None:
    """Print ``data`` as sorted JSON under ``--json``; otherwise print the
    text ``lines``, by default one ``key: value`` line per field."""
    if args.json:
        lines = [json.dumps(data, sort_keys=True)]
    elif lines is None:
        lines = [f"{key}: {value}" for key, value in data.items()]
    for line in lines:
        print(line, file=stdout)


def _print_subgroup(sub: Subgroup, args, stdout) -> int:
    if args.dot:
        print(sub.graph.to_dot(), file=stdout)
        return 0
    graph = sub.graph
    counts = {
        "rank": sub.rank,
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
        "chi": graph.chi,
    }
    basis = [str(w) for w in sub.basis()]
    lines = [f"{key}: {value}" for key, value in counts.items()]
    lines.append("basis: " + (", ".join(basis) or "(trivial)"))
    _emit(args, stdout, {**sub.spec_dict(), **counts, "basis": basis}, lines)
    return 0


# -- subcommands -------------------------------------------------------------------


def _cmd_core(args, stdout, stderr) -> int:
    alphabet = Alphabet(args.rank)
    words = []
    for i, text in enumerate(args.generators):
        try:
            words.append(alphabet.word(text))
        except WordSyntaxError as exc:
            raise ValueError(f"generator {i + 1} ({text!r}): {exc}")
    return _print_subgroup(subgroup_graph(words, alphabet), args, stdout)


def _cmd_intersect(args, stdout, stderr) -> int:
    H, K = _load_pair(args)
    return _print_subgroup(intersection(H, K), args, stdout)


def _cmd_join(args, stdout, stderr) -> int:
    H, K = _load_pair(args)
    return _print_subgroup(join(H, K), args, stdout)


def _cmd_pushout(args, stdout, stderr) -> int:
    H, K = _load_pair(args)
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
    _emit(args, stdout, data)
    return 0


def _cmd_matrix(args, stdout, stderr) -> int:
    H, K = _load_pair(args)
    if args.normalize:
        H, K, meet_core = _normalize_with_meet(H, K)
    else:
        meet_core = based_meet_core(H, K)
    try:
        _, M, nf, delta, bound = matrix_pipeline(H, K, meet_core)
    except NotNormalizedError as exc:
        raise ValueError(f"{exc} (rerun with --normalize)")
    # the fields the text form prints, in its order
    scalars = {
        "entry_sum": M.entry_sum,
        "ell": nf.ell,
        "p": nf.p,
        "q": nf.q,
        "star_class_count": nf.star_class_count,
        "entry_sum_bound": bound,
        "delta_components": delta.component_count,
        "delta_edges": delta.edge_count,
    }
    violations = list(nf.lemma_violations)
    data = {
        **scalars,
        "shape": list(M.shape),
        "blocks": [list(b) for b in nf.blocks],
        "violations": violations,
        "matrix": [list(row) for row in M.entries],
        "normal_form": [list(row) for row in nf.matrix],
    }
    lines = ["matrix:", _indent(M.render()), "normal form:", _indent(nf.render())]
    lines += [f"{k}: {'not applicable' if v is None else v}" for k, v in scalars.items()]
    lines.append("violations: " + ("; ".join(violations) or "none"))
    _emit(args, stdout, data, lines)
    return 0


def _cmd_check(args, stdout, stderr) -> int:
    H, K = _load_pair(args)
    report = check_instance(H, K)
    data = report.to_dict()
    verdicts = data["verdicts"]
    lines = [f"{key}: {data[key]}" for key in sorted(data) if key != "verdicts"]
    lines.append("verdicts:")
    width = max(len(name) for name in verdicts)
    for name in sorted(verdicts):
        verdict = verdicts[name]
        slack = "" if verdict["slack"] is None else f"  slack={verdict['slack']}"
        lines.append(f"  {name:<{width}}  {verdict['status']}{slack}")
    lines.append(f"overall: {'pass' if report.ok else 'FAIL'}")
    _emit(args, stdout, data, lines)
    return 0 if report.ok else 2


def _cmd_corpus(args, stdout, stderr) -> int:
    result = corpus()
    lines = []
    for entry in result["entries"]:
        lines.append(f"{'pass' if entry['ok'] else 'FAIL'}  {entry['name']}")
        lines += [f"      {problem}" for problem in entry.get("problems", [])]
    lines.append(f"overall: {'pass' if result['ok'] else 'FAIL'}")
    _emit(args, stdout, result, lines)
    return 0 if result["ok"] else 2


def _cmd_fuzz(args, stdout, stderr) -> int:
    config = FuzzConfig(**{field: getattr(args, field) for field in FuzzConfig._fields})
    count = failed = 0
    # flushed line by line: a pair refused mid-stream keeps the lines before it
    for left, right, report in fuzz(config):
        stdout.write(fuzz_line(count, left, right, report) + "\n")
        stdout.flush()
        count += 1
        failed += not report.ok
    print(f"instances: {count}  violations: {failed}  ok: {failed == 0}", file=stderr)
    return 0 if failed == 0 else 2


def _indent(text: str) -> str:
    return "\n".join("  " + line for line in text.splitlines())


if __name__ == "__main__":
    main()
