"""Bundled experiment decks and the on-disk configuration format.

A deck fixes the whole experiment identity: the group, the chain of moduli,
the box offsets and the alphabet size, plus the 1-d period sequence when the
classical construction is part of the deck.  Configurations are single JSON
documents with explicit integer matrices; "variant" is "normal" when F is trivial.
The bundled decks are such documents, and every deck, bundled or read from a
file, is built by ``deck_from_config``, which refuses a key the format does
not define.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

from .lattice import DomainChain, GroupSpec, SpecError, SubgroupChain
from .toeplitz import Construction
from .williams import WilliamsParams

_VARIANTS = ("normal", "virtually")  # the "variant" of a trivial and a nontrivial F


@dataclass(frozen=True)
class Deck:
    """One experiment, each fact stored once: the chain is the one the boxes
    are built on, and the classical 1-d construction reads the deck's m."""

    name: str
    group: GroupSpec
    domains: DomainChain
    m: int
    williams_periods: tuple[int, ...] | None = None

    @property
    def chain(self) -> SubgroupChain:
        return self.domains.chain

    @cached_property
    def williams(self) -> WilliamsParams | None:
        """The classical 1-d construction on the deck's m, if it has periods."""
        if self.williams_periods is None:
            return None
        return WilliamsParams(self.m, self.williams_periods)

    def validate(self) -> None:
        """SpecError unless the deck builds its constructions on its one chain;
        the group construction validated is the one ``construction`` keeps."""
        construction(self)
        if self.williams is None:
            return
        if self.group.rank != 1 or self.group.finite_order != 1:
            raise SpecError("williams_periods need the group Z (rank 1, trivial F)")
        self.williams.validate()
        for level, (p, (q,)) in enumerate(zip(self.williams_periods, self.chain.moduli), 1):
            if p != q:
                raise SpecError(f"williams_periods differ from the chain at level "
                                f"{level}: {p} against {q}")

    def piece_bound(self) -> int:
        """2^r [G:G']: the tower bound on the pieces a window meets."""
        return 2 ** self.group.rank * self.group.finite_order

    def group_fiber_bound(self) -> int:
        """m^(2^r [G:G']): the tower bound on odometer fibers."""
        return self.m ** self.piece_bound()

    def entropy_fiber_bound(self) -> int:
        """Fiber bound feeding the sequence-entropy upper bound.

        Decks built around the classical 1-d construction inherit its
        at-most-m-to-one factor map; group decks use the tower bound.
        """
        if self.williams is not None:
            return self.m
        return self.group_fiber_bound()


@lru_cache(maxsize=None)
def construction(deck: Deck) -> Construction:
    return Construction(deck.group, deck.domains, deck.m)


_WILLIAMS_PERIODS = [6, 36, 432, 10368, 124416]
_Z2_CHAIN = [[5, 5], [25, 25], [125, 125], [625, 625], [3125, 3125]]

# the bundled decks, each the document a deck file holds (offsets "auto")
_DOCUMENTS = {
    "williams-m2": {
        "name": "williams-m2", "m": 2, "variant": "normal",
        "group": {"rank": 1, "table": [[0]], "action": [[[1]]], "name": "Z"},
        "chain": [[p] for p in _WILLIAMS_PERIODS],
        "williams_periods": _WILLIAMS_PERIODS,
    },
    "williams-m3": {
        "name": "williams-m3", "m": 3, "variant": "normal",
        "group": {"rank": 1, "table": [[0]], "action": [[[1]]], "name": "Z"},
        "chain": [[p] for p in _WILLIAMS_PERIODS],
        "williams_periods": _WILLIAMS_PERIODS,
    },
    "z2-m2": {
        "name": "z2-m2", "m": 2, "variant": "normal",
        "group": {"rank": 2, "table": [[0]], "action": [[[1, 0], [0, 1]]],
                  "name": "Z^2"},
        "chain": _Z2_CHAIN,
    },
    "dihedral-m2": {
        "name": "dihedral-m2", "m": 2, "variant": "virtually",
        "group": {"rank": 1, "table": [[0, 1], [1, 0]], "action": [[[1]], [[-1]]],
                  "name": "Z x| Z/2 (flip)"},
        "chain": [[5], [25], [125], [625], [3125], [15625], [78125]],
    },
    "swap-m2": {
        "name": "swap-m2", "m": 2, "variant": "virtually",
        "group": {"rank": 2, "table": [[0, 1], [1, 0]],
                  "action": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
                  "name": "Z^2 x| Z/2 (swap)"},
        "chain": _Z2_CHAIN,
    },
}

BUNDLED = tuple(sorted(_DOCUMENTS))


@lru_cache(maxsize=None)
def bundled_deck(name: str) -> Deck:
    return deck_from_config(_DOCUMENTS[name])


def deck_to_config(deck: Deck) -> dict:
    return {
        "name": deck.name,
        "m": deck.m,
        "variant": _VARIANTS[deck.group.finite_order > 1],
        "group": {
            "rank": deck.group.rank,
            "table": [list(r) for r in deck.group.table],
            "action": [[list(row) for row in mat] for mat in deck.group.action],
            "name": deck.group.name,
        },
        "chain": [list(r) for r in deck.chain.moduli],
        "offsets": [list(r) for r in deck.domains.q1],
        "williams_periods":
            None if deck.williams_periods is None else list(deck.williams_periods),
    }


_FIELDS = ("name", "m", "variant", "group", "chain", "offsets", "williams_periods")
_GROUP_FIELDS = ("rank", "table", "action", "name")

_SHAPES = ("an integer", "a list of integers", "a list of integer rows",
           "a list of integer matrices")


def _integers(value, field: str, depth: int):
    """A JSON value as ``depth`` levels of nested tuples with integer leaves;
    anything else, a boolean or a float included, raises a SpecError naming
    the field."""
    def walk(x, d):
        if d == 0:
            if isinstance(x, int) and not isinstance(x, bool):
                return x
        elif isinstance(x, list):
            return tuple(walk(y, d - 1) for y in x)
        raise SpecError(f"malformed deck configuration: {field} must be "
                        f"{_SHAPES[depth]}, got {x!r}")
    return walk(value, depth)


def deck_from_config(doc: dict) -> Deck:
    """A validated deck from a configuration document; SpecError for a
    missing or unknown field, a field of the wrong type or an invalid deck."""
    try:
        if not isinstance(doc, dict) or not isinstance(doc["group"], dict):
            raise SpecError("malformed deck configuration: the document and its "
                            "group must be JSON objects")
        g = doc["group"]
        unknown = [k for k in doc if k not in _FIELDS] + \
            [f"group.{k}" for k in g if k not in _GROUP_FIELDS]
        if unknown:
            raise SpecError(f"malformed deck configuration: unknown field {unknown[0]!r}")
        group = GroupSpec(
            rank=_integers(g["rank"], "group.rank", 0),
            table=_integers(g["table"], "group.table", 2),
            action=_integers(g["action"], "group.action", 3),
            name=str(g.get("name", "")),
        )
        chain = SubgroupChain(_integers(doc["chain"], "chain", 2))
        m = _integers(doc["m"], "m", 0)
        if doc.get("offsets", "auto") == "auto":
            chain.validate(group.rank)  # DomainChain.auto divides by the moduli
            domains = DomainChain.auto(chain)
        else:
            domains = DomainChain(chain, _integers(doc["offsets"], "offsets", 2))
        variant = str(doc["variant"])
        wp = doc.get("williams_periods")
        deck = Deck(
            name=str(doc["name"]),
            group=group,
            domains=domains,
            m=m,
            williams_periods=None if wp is None else _integers(wp, "williams_periods", 1),
        )
    except KeyError as exc:
        raise SpecError(f"malformed deck configuration: missing field {exc}") from exc
    deck.validate()
    if variant not in _VARIANTS[group.finite_order > 1:]:  # a trivial F allows both
        raise SpecError(f"unknown variant {variant!r}" if variant not in _VARIANTS
                        else "the normal variant is only supported for trivial F")
    return deck


def load_deck(ref: str) -> Deck:
    """A bundled deck name, or a path to a JSON configuration."""
    if ref in _DOCUMENTS:
        return bundled_deck(ref)
    path = Path(ref)
    if not path.exists():
        raise SpecError(
            f"unknown deck {ref!r}; bundled decks: {', '.join(BUNDLED)}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, not JSON
        raise SpecError(f"cannot read deck file {ref!r}: {exc}") from exc
    return deck_from_config(doc)
