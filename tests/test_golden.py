"""Golden outputs: the bytes of the reporting commands are pinned by hash.

The hashes were computed from the output before the sparse double-coset
product and the dart index went in; a change that means to alter these
outputs must update them and say why.
"""

import hashlib
import io

import pytest

from stallings.cli import run

GOLDEN = {
    ("fuzz", "--count", "300", "--seed", "0"):
        "9fdeed57177bfdb856490da669608dd7171d84aa1039339a808f132c2000a3c8",
    ("fuzz", "--count", "300", "--seed", "0", "--inequalities-only"):
        "1922fd3436a196d95fabdf77982d0644aed2b1b328051148bfc52f09e93a34d3",
    ("corpus", "--json"):
        "999fc8dadbc820a463e4c5163b51366edbbea07fd787b46f0bbcbfcdebe9a98c",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_output_bytes_are_pinned(argv):
    out, err = io.StringIO(), io.StringIO()
    assert run(list(argv), stdout=out, stderr=err) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[argv]
