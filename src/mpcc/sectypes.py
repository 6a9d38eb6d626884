"""Security types: atomic types paired with owner sets, and the scheme
parameter that refines the typing rules per backend family."""

from __future__ import annotations

from dataclasses import dataclass

OwnerSet = frozenset  # nonempty frozenset[int]


def owners(*parties: int) -> OwnerSet:
    return frozenset(parties)


@dataclass(frozen=True)
class Plain:
    kind: str  # "int" | "bool"


@dataclass(frozen=True)
class Owned:
    kind: str
    owner: OwnerSet


@dataclass(frozen=True)
class Arr:
    owner: OwnerSet  # element type is always int


SecType = Plain | Owned | Arr


@dataclass(frozen=True)
class Generic:
    pass


@dataclass(frozen=True)
class Tfhe:
    pass


@dataclass(frozen=True)
class AdditiveShare:
    n: int  # party count, >= 2

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("additive sharing needs at least 2 parties")


Scheme = Generic | Tfhe | AdditiveShare

# Each scheme's name, and its constructor from the party count.
SCHEMES = {
    "generic": lambda parties: Generic(),
    "tfhe": lambda parties: Tfhe(),
    "additive": AdditiveShare,
}


def valid(o: OwnerSet, o_prime: OwnerSet, scheme: Scheme) -> bool:
    """May data owned by `o` be revealed to audience `o_prime`?

    Generic and additive sharing accept any audience containing every
    owner; TFHE only ever reveals a singleton owner to itself.
    """
    if not o or not o_prime:
        return False
    if isinstance(scheme, Tfhe):
        return o == o_prime and len(o) == 1
    return o <= o_prime


def type_text(t: SecType) -> str:
    match t:
        case Plain(kind):
            return kind
        case Owned(kind, owner):
            return f"({kind}, {{{', '.join(map(str, sorted(owner)))}}})"
        case Arr(owner):
            return f"arr(int, {{{', '.join(map(str, sorted(owner)))}}})"
    raise AssertionError(t)
