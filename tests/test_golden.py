"""The corpus compiles to the same circuits, byte for byte.

Each entry pins the first 16 hex digits of three SHA-256 digests, for
the generic scheme and the default passes: the word circuit's
`to_json_obj` and the bool circuit's, both as compact JSON, and the bool
circuit's `emit_gatelist` text. A change that only makes compiling
faster leaves every digest as it is; a change that means to change a
circuit updates the ones it changes and says why.
"""

import hashlib
import json

import pytest

from conftest import build, corpus_source
from mpcc.backends.gatelist import emit_gatelist
from mpcc.circuit import Level
from mpcc.pipeline import PipelineConfig, compile

# (name, bitwidth) -> (word JSON, bool JSON, gate list)
GOLDEN = {
    ("gcd", 16): ("3e286c7df96c27fc", "ea98ff8de3e38aa5", "9b8513afea119328"),
    ("gcd", 64): ("78e45d95de9a80fb", "1fbd82424ee27244", "2aec2fdd062e7755"),
    ("auction", 16): ("d2a31edb3d4b7871", "2dedf7e6b7c120cc",
                      "8136b0bede2221f9"),
    ("auction", 64): ("ae536975d0dc5fa1", "84eb1b975949c3a4",
                      "64b3ab5b18452286"),
    ("mergesort", 16): ("703813e458b5dbf0", "18ff41fd66010bdc",
                        "44bbe0d4c64a0342"),
    ("mergesort", 64): ("31c5ce6d24aee87d", "4ef509c6b39350b6",
                        "29835519f178d3b3"),
    ("matvec", 16): ("3176904f44386ab6", "06e089efa728e441",
                     "5e7262d7d724018e"),
    ("matvec", 64): ("6ba57bd8cf871c81", "d115e2bdfa412a84",
                     "544208cf2b69ea46"),
    ("pow8", 16): ("a12007c5c96710a8", "0e5732c0a19c8d4e",
                   "25697071744fcebe"),
    ("pow8", 64): ("7c6bb121be4e0a55", "ea34cd1732318296",
                   "0dc53c56a67f2767"),
    ("adder", 16): ("a7cf84b0893ca807", "68e5883ab08873a2",
                    "86305f9eb3aa2119"),
    ("adder", 64): ("8cd7f089c867d0e5", "8a8c7c5b13b7dcb1",
                    "ef1a110749470e5b"),
    ("sum8", 16): ("2f4fd9c0be941202", "e565658a36a7ee04",
                   "98c9f3b76b246ad1"),
    ("sum8", 64): ("8f04c2cd62553c3a", "3747a782e767a03c",
                   "4966757edee1e1d8"),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def json_digest(c) -> str:
    return digest(json.dumps(c.to_json_obj(), separators=(",", ":")))


@pytest.mark.parametrize("name, width", sorted(GOLDEN))
def test_the_corpus_compiles_to_its_golden_circuits(name, width):
    word = build(name, bitwidth=width, optimize=True)
    b = compile(corpus_source(name),
                PipelineConfig(bitwidth=width, target_level=Level.BOOL))
    assert (json_digest(word), json_digest(b),
            digest(emit_gatelist(b))) == GOLDEN[name, width]
