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
    ("gcd", 16): ("5cfac3f73e31e935", "d7ff1a68efbdffce", "9b8513afea119328"),
    ("gcd", 64): ("8a097cd50c03fa7c", "2520aa9464abf31b", "2aec2fdd062e7755"),
    ("auction", 16): ("7894288e6a160ea4", "407889256a920682",
                      "8136b0bede2221f9"),
    ("auction", 64): ("68c055f92d80a650", "0ee67e9fd7079a1c",
                      "64b3ab5b18452286"),
    ("mergesort", 16): ("3213b4c4faa6c922", "53b95bf01402875c",
                        "44bbe0d4c64a0342"),
    ("mergesort", 64): ("75a7e8fb083be140", "18d5c882557a9042",
                        "29835519f178d3b3"),
    ("matvec", 16): ("2b606b48cadbff18", "6b59d6f8060f6a5a",
                     "5e7262d7d724018e"),
    ("matvec", 64): ("018dc021bf76055d", "d6596f491ad18f91",
                     "544208cf2b69ea46"),
    ("pow8", 16): ("9e9263eec5a057b9", "504d8733427c31a9",
                   "0b25800e49e54156"),
    ("pow8", 64): ("4b6edb8aa15791e9", "63e66c7ecaf25ea8",
                   "6e76b45e2a1aee0c"),
    ("adder", 16): ("f28a863ae1ae6547", "8dadd7c9a175262a",
                    "86305f9eb3aa2119"),
    ("adder", 64): ("6c03fc1185332120", "0ba453f74e9390aa",
                    "ef1a110749470e5b"),
    ("sum8", 16): ("de6aebaa81eced74", "9f0e59c6fa651f43",
                   "98c9f3b76b246ad1"),
    ("sum8", 64): ("8b144dca0175a11f", "a606f940c7d53237",
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
