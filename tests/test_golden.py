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
    ("gcd", 16): ("5cfac3f73e31e935", "4b1c52f200f1c208", "e478f13234669676"),
    ("gcd", 64): ("8a097cd50c03fa7c", "98462f3e7c2428e2", "28cb9459d8aeb76a"),
    ("auction", 16): ("7894288e6a160ea4", "a5e6cfdae74d8122",
                      "7dc8e91f5bbde36d"),
    ("auction", 64): ("68c055f92d80a650", "da8b91e0424f39fc",
                      "fc1a45aa9ef6df6f"),
    ("mergesort", 16): ("17ab14c70afe1ca8", "4372768823eadbeb",
                        "39693c76d37b7167"),
    ("mergesort", 64): ("f7dcaf2f5e2750d7", "da3968b0b995a87c",
                        "c32f3367bd355981"),
    ("matvec", 16): ("2b606b48cadbff18", "1640d08e3c2c61bf",
                     "ffa26975845d1b8c"),
    ("matvec", 64): ("018dc021bf76055d", "47382fc49badba47",
                     "1030ccf4d0e95162"),
    ("pow8", 16): ("9e9263eec5a057b9", "5cf1d7a8f21f026e",
                   "0b25800e49e54156"),
    ("pow8", 64): ("4b6edb8aa15791e9", "7391bab56fafb3b0",
                   "6e76b45e2a1aee0c"),
    ("adder", 16): ("f28a863ae1ae6547", "129c6826e16e99ce",
                    "86305f9eb3aa2119"),
    ("adder", 64): ("6c03fc1185332120", "847238b483af459f",
                    "ef1a110749470e5b"),
    ("sum8", 16): ("de6aebaa81eced74", "d5ec2332745114b9",
                   "98c9f3b76b246ad1"),
    ("sum8", 64): ("8b144dca0175a11f", "7488793d4ac75b51",
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
