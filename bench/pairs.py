"""Workloads, the pair stream, and the output check shared by both runs."""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

#: Pairs generated ahead of each timed batch; bounds what the benchmark
#: itself holds in memory, so ``peak_rss_mb`` reflects the library.
BATCH = 32


@dataclass(frozen=True)
class Workload:
    name: str
    generators: tuple[int, int]  # per side, inclusive
    word_length: tuple[int, int]  # per generator, inclusive
    structural: bool  # full checks, or ``--inequalities-only``


# Why each workload exists (and what each should predict) is recorded in
# BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fuzz_full", (1, 4), (1, 8), True),
        Workload("fuzz_inequalities", (1, 4), (1, 8), False),
        Workload("long_words", (2, 3), (24, 96), True),
    )
}

_SIGNED = ((1, "a"), (-1, "A"), (2, "b"), (-2, "B"))


def random_word(rng: random.Random, length: int) -> str:
    """A uniformly random reduced rank-2 word of exactly ``length`` letters."""
    out = []
    last = 0
    for _ in range(length):
        code, text = rng.choice([d for d in _SIGNED if d[0] != -last])
        out.append(text)
        last = code
    return "".join(out)


class _Deck:
    """Draws from an inclusive range without replacement, reshuffling the
    whole range each time it runs out.

    Every value comes up equally often over a run, as with independent
    uniform draws on average, but the mix of sizes varies far less from
    seed to seed, so runs on different seeds measure comparable work.
    """

    def __init__(self, rng: random.Random, bounds: tuple[int, int]):
        self.rng = rng
        self.values = list(range(bounds[0], bounds[1] + 1))
        self.left: list[int] = []

    def draw(self) -> int:
        if not self.left:
            self.left = self.values[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


def pair_stream(workload: Workload, seed: int):
    """The workload's deterministic sequence of (left spec, right spec)."""
    rng = random.Random(seed)
    counts = _Deck(rng, workload.generators)
    lengths = _Deck(rng, workload.word_length)

    def spec() -> dict:
        words = [random_word(rng, lengths.draw()) for _ in range(counts.draw())]
        return {"alphabet_rank": 2, "generators": words}

    while True:
        yield spec(), spec()


# -- output check -----------------------------------------------------------------


def check_pair(st, H, K, report, line: str) -> str | None:
    """Check one pair's outputs; returns a reason on failure, else None.

    Runs outside the timed region.  Four checks: every verdict passes or is
    inapplicable; the verdicts re-derive from the serialized line; the
    meet's basis lies in both factors; both factors' generators lie in the
    join.
    """
    bad = [n for n, v in report.verdicts.items() if v.status not in ("pass", "not_applicable")]
    if bad:
        return f"verdicts failed: {', '.join(bad)}"
    rebuilt = st.InstanceReport.from_dict(json.loads(line))
    if st.derive_verdicts(rebuilt) != report.verdicts or rebuilt.verdicts != report.verdicts:
        return "verdicts do not re-derive from the serialized report"
    for w in st.intersection(H, K).basis():
        if not (st.membership(H, w) and st.membership(K, w)):
            return f"meet basis word {w} is not in both factors"
    J = st.join(H, K)
    for w in H.generators + K.generators:
        if not st.membership(J, w):
            return f"generator {w} is not in the join"
    return None


class Outcome:
    """Counts, output digest and failure notes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.lines = 0
        self.errors: list[str] = []

    def record(self, problem: str | None, line: str | None) -> None:
        """One attempted pair: its report line (None if it raised) and its
        failure reason (None if it passed)."""
        if line is not None:
            self.digest.update(line.encode())
            self.digest.update(b"\n")
            self.lines += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"pair {self.attempted}: {problem}")
        self.attempted += 1
