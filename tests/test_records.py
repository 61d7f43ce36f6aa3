"""The result records: immutable values, and an import that stays light."""

import copy
import inspect
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import stallings
from stallings import (
    RANK2,
    Alphabet,
    FuzzConfig,
    InstanceReport,
    bipartite_delta,
    check_instance,
    double_cosets,
    fold_to_immersion,
    bouquet_of,
    incidence_matrix,
    normal_form,
    normalize_pair,
    topological_pushout,
)
from stallings.products import based_meet_core

from conftest import FIGURE_LEFT, FIGURE_RIGHT, make


def _records():
    """One instance of each public record, built through the API."""
    H, K = make(*FIGURE_LEFT), make(*FIGURE_RIGHT)
    nH, nK = normalize_pair(H, K)
    meet = based_meet_core(nH, nK)
    po = topological_pushout(nH, nK, [meet])
    M = incidence_matrix(nH, nK, meet)
    nf = normal_form(M, po)
    decomposition = double_cosets(H, K)
    report = check_instance(H, K)
    return [
        RANK2,
        H.graph.canonical(),
        fold_to_immersion(bouquet_of(H.generators, RANK2)),
        H.graph.trace(H.graph.basepoint, RANK2.word("a")),
        M,
        nf,
        bipartite_delta(M, nf),
        po.star_classes(),
        decomposition.entries[0],
        decomposition,
        next(iter(report.verdicts.values())),
        report,
        FuzzConfig(),
    ]


@pytest.fixture(scope="module")
def records():
    records = _records()
    assert len({type(r) for r in records}) == len(records)
    return records


def test_every_record_refuses_assignment_to_its_fields(records):
    for record in records:
        names = list(inspect.signature(type(record)).parameters)
        assert names, type(record)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_every_record_survives_copy_and_pickle(records):
    for record in records:
        assert copy.copy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


def test_every_record_refuses_a_new_attribute(records):
    """A frozen, slotted dataclass raised ``TypeError`` here on Python
    3.10-3.11, from its ``__setattr__``'s ``super()`` call."""
    for record in records:
        with pytest.raises(AttributeError):
            record.not_a_field = None


@pytest.mark.parametrize("rank", [0, -1])
def test_alphabet_refuses_a_rank_below_one(rank):
    with pytest.raises(ValueError, match=f"^alphabet rank must be at least 1, got {rank}$"):
        Alphabet(rank)


def test_alphabet_is_a_value():
    assert Alphabet(2) == RANK2 == Alphabet()
    assert hash(Alphabet(2)) == hash(RANK2)
    assert Alphabet(3) != RANK2
    assert repr(RANK2) == "Alphabet(rank=2)"
    assert {Alphabet(2): 1}[RANK2] == 1
    with pytest.raises(AttributeError):
        del RANK2.rank


def test_reports_built_without_verdicts_share_no_dict():
    """``verdicts`` is either required, or a fresh dict per report."""
    values = check_instance(make(*FIGURE_LEFT), make(*FIGURE_RIGHT)).to_dict()
    del values["verdicts"]
    values["double_coset_ranks"] = tuple(values["double_coset_ranks"])
    try:
        first, second = InstanceReport(**values), InstanceReport(**values)
    except TypeError:
        return
    assert first.verdicts is not second.verdicts


def test_import_loads_no_dataclasses_inspect_or_typing():
    """A fresh interpreter: pytest itself has loaded ``dataclasses`` here,
    and on some Pythons ``site`` preloads ``typing``, so the check compares
    the modules present before and after the import."""
    src = str(Path(stallings.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"sys.path.insert(0, {src!r})\n"
        "import stallings\n"
        "added = set(sys.modules) - before\n"
        "print(' '.join(sorted(added & {'dataclasses', 'inspect', 'typing'})))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
