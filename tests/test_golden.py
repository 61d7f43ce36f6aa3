"""Golden outputs: the bytes of the reporting commands are pinned by hash.

The ``fuzz``/``corpus`` hashes were computed from the output before the
sparse double-coset product and the dart index went in.  The other pins
cover output that holds basis words and DOT vertex numbering, which depend
on the order graphs are walked in; they were computed before the shared
dart walk and union-find replaced the per-module copies, and the two
``STEMMED`` pins before normalization's stem conjugations became one
rebasing at the meet core.  The text forms of ``check`` and ``corpus``
were pinned while the result records were still dataclasses, before they
became named tuples.  A change that
means to alter these outputs must update them and say why.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stallings
from stallings.cli import run


def _spec(*gens):
    return json.dumps({"alphabet_rank": 2, "generators": list(gens)})


# the corpus pairs pushout_gap, cyclic_meet_full_join and self_join
GAP = (_spec("aBBa", "abbAABA", "ABaba"), _spec("aaba", "abbbbaaBBA"))
CYCLIC = (_spec("a", "bab"), _spec("b", "aa"))
SELF = (_spec("a", "bab"), _spec("a", "bab"))
# a rank-2 meet whose core hangs from the basepoint on a stem, after the
# factors' own stems: normalization rebases this pair
STEMMED = (_spec("AbaBABBa", "AbbbABBa", "ABaBa"), _spec("AbaBABBa", "AbbbABBa", "AbAbaBa"))

GOLDEN = {
    ("fuzz", "--count", "300", "--seed", "0"):
        "9fdeed57177bfdb856490da669608dd7171d84aa1039339a808f132c2000a3c8",
    ("fuzz", "--count", "300", "--seed", "0", "--inequalities-only"):
        "1922fd3436a196d95fabdf77982d0644aed2b1b328051148bfc52f09e93a34d3",
    ("corpus", "--json"):
        "999fc8dadbc820a463e4c5163b51366edbbea07fd787b46f0bbcbfcdebe9a98c",
    ("core", "a", "bab", "--json"):
        "b42dcfb938382f60c67181d5fa7287ab1df2e99129aa0790bb861a42005628d7",
    ("core", "aBBa", "abbAABA", "ABaba", "--dot"):
        "663c9deef272a20362e1ad3109dcc32d7cbbc191eecefee0fefa1be68b44086a",
    ("intersect", *GAP, "--json"):
        "67e0ea13b7cc579b05e277ec8129d891674c0b1163fc65c97ac18b174ee7cf10",
    ("join", *GAP, "--json"):
        "9ad19a7e837ca8de424dc8974cb9915b32e2133ceeb0b6e346b5e9854a3599e7",
    ("intersect", *GAP, "--dot"):
        "c20ea2e2a91b30daebf08dc19d7a76e33458b8b1e2b1848ef8cc2547e2900f0e",
    ("join", *GAP, "--dot"):
        "3bff84525b7a4868ba875d1ac1acfc2e0b87630918b72e83ebc009ec81657130",
    ("pushout", *GAP, "--json"):
        "56b38e80e67e3b163fefdca9f3a7910eed8a135edc50a5d817f667c8e4513b85",
    ("pushout", *GAP, "--dot"):
        "f8faa5c67d26a46d6daf710725eda5426a6dfaccf950a015390dbf0cb3f6d76a",
    ("intersect", *CYCLIC, "--json"):
        "ff4d8f448ffa9e41b36197144ce110a90a9d16168bb754820b2f02d9dbba2041",
    ("join", *CYCLIC, "--json"):
        "48fcc1b7b6bc87c06fab63fe94229b5d69fb5d67b75af8267d5654bb22605cda",
    ("intersect", *CYCLIC, "--dot"):
        "49384b2a8ad99266b059c3ef17831c01a093840bbcf32c6935a4de666f2d2bad",
    ("pushout", *CYCLIC, "--json"):
        "c0b60e6cb436f1fd0103d6c8e6332df4e88975d6edfb28131271019ff54aa9c3",
    ("pushout", *CYCLIC, "--dot"):
        "72850b776f325add21c5d2fe85800ebefff0c929402edfdc57d1ac6c15f1de44",
    ("matrix", *GAP, "--normalize", "--json"):
        "4fa33b522c011ef7e533c19c9b2dce5dfaf77f838e2e30a5fe8c804d52a7330f",
    ("matrix", *CYCLIC, "--normalize", "--json"):
        "235a051fb37f25b06a08388939540af7551326ae2cd0a2ce279bd36e4cdd9fb9",
    ("matrix", *SELF, "--normalize", "--json"):
        "4110e19c462e1cc56a23ebda3905e6467b9f46db085a4e7b8baae0aa0f5846c7",
    ("matrix", *GAP, "--normalize"):
        "5835d725c5bc1ea671c1d530e6760071e16e47e969d3ff2362cd88d3ff0aa039",
    ("matrix", *CYCLIC, "--normalize"):
        "fdeb5f1592455f2867417f04eba874e7aa8b36ee16a22248251b94e5fa215e5b",
    ("matrix", *SELF, "--normalize"):
        "40e6a89485ed5cafb00ee551d8acbae73ea5a44cd03b7665a2020d8551d10383",
    ("check", *GAP, "--json"):
        "bc1ae5daefa6b035ae363c50b6548bfd3d4e029e847d8bc0d701e64de9690e08",
    ("matrix", *STEMMED, "--normalize", "--json"):
        "427d7f5a352d21947435eadef26b7e746ea3e08da520b9a7b7dce912b1166870",
    ("check", *STEMMED, "--json"):
        "57ad6c4031400df96288c3ee57806ca68cdb1ffdf55b23c971626e7924b2adb5",
    ("check", *GAP):
        "8b8d6f0524763751e9161c9c1575198e55e6922f969cd75e36a96543b1de8b7f",
    ("check", *STEMMED):
        "424b1a9629953b46569258fca6810dee4748a9fb916d4843eb7bd40359429bb9",
    ("corpus",):
        "2d48232a28052d4d49438f4e9a443f9fe9a179236a6f7b0d14a112abeaec1c0f",
}


def _label(argv):
    """Test id: each JSON spec shortened to its comma-joined generators, a
    word of more than 16 letters to its length."""
    def word(w):
        return w if len(w) <= 16 else f"<{len(w)} letters>"

    return " ".join(
        ",".join(map(word, json.loads(a)["generators"])) if a.startswith("{") else a for a in argv
    )


@pytest.mark.parametrize("argv", list(GOLDEN), ids=_label)
def test_output_bytes_are_pinned(argv):
    out, err = io.StringIO(), io.StringIO()
    assert run(list(argv), stdout=out, stderr=err) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[argv]


#: Input errors: exit code 1, nothing on stdout, and exactly this stderr.
ERRORS = {
    ("matrix", _spec("a", "b"), _spec("b", "aa")):
        "error: left core has a vertex of valence 4 > 3 (rerun with --normalize)\n",
    ("matrix", _spec("a", "bab"), _spec("b", "aBabA"), "--normalize"):
        "error: basepoint normalization needs a nontrivial intersection\n",
    ("check", json.dumps({"alphabet_rnak": 3, "generators": ["a"]}), json.dumps({"generators": ["a"]})):
        "error: SPEC_H: unknown spec key 'alphabet_rnak' (expected alphabet_rank, generators)\n",
    # a wide alphabet is refused before its dart table is allocated
    ("core", "a", "--rank", "1000000000"):
        "error: a graph of rank 1000000000 needs 2000000000 dart slots (2 * rank per vertex),"
        " more than the 16777216 allowed\n",
    ("check", json.dumps({"alphabet_rank": 10**9, "generators": ["abab"]}), _spec("a")):
        "error: SPEC_H: a graph of rank 1000000000 needs 8000000000 dart slots"
        " (2 * rank per vertex), more than the 16777216 allowed\n",
    # the library refuses the based meet of a**101 and a**103, 10,403 vertices
    ("intersect", json.dumps({"alphabet_rank": 838, "generators": ["a" * 101]}),
     json.dumps({"alphabet_rank": 838, "generators": ["a" * 103]})):
        "error: a graph of rank 838 needs 17435428 dart slots (2 * rank per vertex),"
        " more than the 16777216 allowed\n",
}


@pytest.mark.parametrize("argv", list(ERRORS), ids=_label)
def test_error_bytes_are_pinned(argv):
    out, err = io.StringIO(), io.StringIO()
    assert run(list(argv), stdout=out, stderr=err) == 1
    assert (out.getvalue(), err.getvalue()) == ("", ERRORS[argv])


def test_corpus_bytes_survive_python_dash_o():
    """``python -O`` strips ``assert``; no invariant may live in one."""
    src = str(Path(stallings.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "stallings.cli", "corpus", "--json"],
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == GOLDEN[("corpus", "--json")]
