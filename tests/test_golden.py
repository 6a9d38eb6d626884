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
    ("gcd", 16): ("7fa0527a963800eb", "f1f008e56f572b02", "9b8513afea119328"),
    ("gcd", 64): ("40747e7e10317a37", "2ab33b9603682f60", "2aec2fdd062e7755"),
    ("auction", 16): ("dda1626249bd829f", "57cea588c93b3fad",
                      "8136b0bede2221f9"),
    ("auction", 64): ("60cf30cd7a1caf21", "2f3a92f631b75d84",
                      "64b3ab5b18452286"),
    ("mergesort", 16): ("d5f974892e1b1f0f", "d540b38f9c5b85f8",
                        "44bbe0d4c64a0342"),
    ("mergesort", 64): ("1ad159e840e1745d", "feb3e73068eb1a1f",
                        "29835519f178d3b3"),
    ("matvec", 16): ("d3882ef34ec1b8e9", "f57ace6fcd9ee8c6",
                     "5e7262d7d724018e"),
    ("matvec", 64): ("36f7ba7aea318e53", "e45a0d63feb7b2e0",
                     "544208cf2b69ea46"),
    ("pow8", 16): ("d85e86a37f98b08e", "c79092d06b9f12b8",
                   "25697071744fcebe"),
    ("pow8", 64): ("6d943d5d2e5b25a6", "8b2e2c884c267240",
                   "0dc53c56a67f2767"),
    ("adder", 16): ("4cdb181b2d6d4bcc", "52693e25e0ee0276",
                    "86305f9eb3aa2119"),
    ("adder", 64): ("c27d890a2cf9b87f", "ba1962973f063ee9",
                    "ef1a110749470e5b"),
    ("sum8", 16): ("54a136c2ffa30afd", "7e9eeb6dc79958ac",
                   "98c9f3b76b246ad1"),
    ("sum8", 64): ("12946afdac90daa9", "c60a72adb7f1cece",
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
