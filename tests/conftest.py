import functools
import pathlib
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
ROOT = TESTS.parent
CORPUS = ROOT / "corpus"
sys.path.insert(0, str(TESTS))

from mpcc.backends.clear import interpret_clear  # noqa: E402
from mpcc.errors import OverflowContractError  # noqa: E402
from mpcc.frontend import parse_source  # noqa: E402
from mpcc.pipeline import PipelineConfig, compile  # noqa: E402
from mpcc.sectypes import AdditiveShare, Generic  # noqa: E402

CORPUS_NAMES = ["gcd", "auction", "mergesort", "matvec", "pow8", "adder",
                "sum8"]


def corpus_source(name: str) -> str:
    return (CORPUS / f"{name}.hml").read_text(encoding="utf-8")


@functools.lru_cache(maxsize=None)
def build(name: str, bitwidth: int = 64, scheme: str = "generic",
          optimize: bool = False):
    """Compile one corpus program; cached because tests reuse circuits."""
    cfg = PipelineConfig(
        scheme=AdditiveShare(3) if scheme == "additive" else Generic(),
        bitwidth=bitwidth, passes=None if optimize else [])
    return compile(corpus_source(name), cfg)


def clear_or_refused(c, inputs):
    """The clear backend's outputs on `inputs`, or None where it refuses
    an arithmetic value outside the range contract: such a run has no
    outputs for another backend to match."""
    try:
        return interpret_clear(c, inputs)
    except OverflowContractError:
        return None


@pytest.fixture(scope="session")
def corpus_programs():
    return {name: parse_source(corpus_source(name)) for name in CORPUS_NAMES}
