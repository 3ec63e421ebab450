"""The three benchmark workloads and the pinned-answer gate.

A workload is a list of operations.  Each operation calls the library's
public functions and returns one or more answers ``(key, answer, passed)``;
every answer is compared with the exact answer pinned for its key in
``pins.json``.  An answer counts as failed when its operation raised, when it
reports ``passed=False``, or when it differs from the pin.  A failure is
logged with the operation's name and never stops the operations after it.

Library functions are looked up through their modules when an operation
runs, never bound at import time, so a traced pass sees the tracer's
wrappers.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

PINS_PATH = Path(__file__).with_name("pins.json")

WORKLOADS = ("acceptance", "deep-strata", "search")

# The reference kernel whose speed scales each workload's times: the one
# that does the same kind of work (see reference.py).
REFERENCE_KERNEL = {"acceptance": "interpreter", "deep-strata": "stream",
                    "search": "interpreter"}

# deep-strata: full configured depth of the two decks whose level arrays are
# the largest (78,125 and 9,765,625 cells).
DEEP_LEVELS = (("dihedral-m2", 7), ("z2-m2", 5))

# search: (deck, GOracle window level or None for the 1-d ZOracle, target size)
SEARCHES = (("z2-m2", 4, 5), ("dihedral-m2", 3, 5), ("dihedral-m2", 4, 5),
            ("williams-m3", None, 3))
SEARCH_RADIUS = 15
MAX_STEPS = 2_000_000


@dataclass(frozen=True)
class Op:
    name: str
    family: str
    keys: tuple[str, ...]            # answer keys the operation must produce
    run: Callable[[], list[tuple[str, object, bool]]]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


# -- acceptance -------------------------------------------------------------------


def _checks(fn: Callable[[], list]):
    def run():
        return [(r.name, {"passed": r.passed, "details": r.details}, r.passed)
                for r in fn()]
    return run


def acceptance_ops(seed: int) -> list[Op]:
    """The 38 checks of ``verify.acceptance_checks()``, same order, built from
    the public ``check_*`` functions.  ``seed`` feeds ``check_conjugation``;
    the other checks keep the fixed seeds their verdicts depend on."""
    from toeplitz_lab import verify

    decks = verify.GROUP_DECKS
    ops: list[Op] = []

    def single(family: str, name: str, fn: Callable[[], object]) -> None:
        key = f"{family}[{name}]" if name else family
        ops.append(Op(key, family, (key,), _checks(lambda: [fn()])))

    for d in ("z2-m2", "dihedral-m2"):
        single("fresh-dual", d, lambda d=d: verify.check_fresh_dual(d))
    for d in decks:
        single("strata-partition", d, lambda d=d: verify.check_strata_partition(d))
    for d in decks:
        single("density-product", d, lambda d=d: verify.check_density_product(d))
    for d in decks:
        single("matrix-recursions", d, lambda d=d: verify.check_matrix_recursions(d))
    single("marker-mass", "dihedral-m2", lambda: verify.check_marker_mass())
    single("class-mass", "dihedral-m2", lambda: verify.check_class_mass())
    ops.append(Op("fiber-scan", "fiber-scan",
                  tuple(f"fiber-scan[{d}]" for d in
                        ("williams-m2", "williams-m3", "z2-m2", "dihedral-m2")),
                  _checks(lambda: verify.check_fiber_scans())))
    ops.append(Op("tower-pieces", "tower-pieces",
                  tuple(f"tower-pieces[{d}]" for d in
                        ("williams-m2", "z2-m2", "dihedral-m2")),
                  _checks(lambda: verify.check_tower_pieces())))
    ops.append(Op("independence", "independence",
                  tuple(f"independence[{d}]" for d in
                        ("williams-m2", "williams-m3", "z2-m2", "dihedral-m2"))
                  + ("entropy-bounds",),
                  _checks(lambda: verify.check_independence())))
    single("pullback-suite", "", lambda: verify.check_pullback())
    for d in decks:
        single("conjugation", d, lambda d=d: verify.check_conjugation(d, seed=seed))
    single("complexity", "williams-m2", lambda: verify.check_complexity())
    return ops


# -- deep-strata ------------------------------------------------------------------


def _cons(deck: str):
    from toeplitz_lab import decks
    return decks.construction(decks.bundled_deck(deck))


def _level_array_answer(deck: str, N: int):
    import numpy as np
    from toeplitz_lab import measures

    cons = _cons(deck)
    lvl = cons.level_array(N)
    digest = hashlib.sha256(np.ascontiguousarray(lvl, dtype="<i2").tobytes()).hexdigest()
    counts = np.bincount(lvl, minlength=N + 2).tolist()
    closed = measures.fresh_count(cons, N)
    ok = counts[N + 1] == closed and sum(counts) == cons.domains.size(N)
    return {"sha256": digest, "bincount": counts, "fresh_count": closed}, ok


def _mu_answer(deck: str, N: int):
    from toeplitz_lab import measures

    cons = _cons(deck)
    counted = measures.mu_freq_counted(cons, N)
    equal = counted == measures.mu_freq_closed(cons, N)
    return {"equal": equal, "freq": {str(s): frac(f) for s, f in counted.items()}}, equal


def _density_answer(deck: str, n: int):
    from toeplitz_lab import measures

    c = measures.density_product_check(_cons(deck), n)
    return {"equal": c.equal, "counted": frac(c.counted)}, c.equal


def _verdict(fn: Callable[[], bool]):
    ok = bool(fn())
    return {"equal": ok}, ok


def deep_ops(levels=DEEP_LEVELS) -> list[Op]:
    """Full-depth stratification plus every measure identity at that depth."""
    from toeplitz_lab import measures

    ops: list[Op] = []

    def add(name: str, family: str, fn) -> None:
        def run():
            answer, ok = fn()
            return [(name, answer, ok)]
        ops.append(Op(name, family, (name,), run))

    for deck, N in levels:
        add(f"level_array[{deck}@{N}]", "level-array",
            lambda d=deck, N=N: _level_array_answer(d, N))
        add(f"mu_freq[{deck}@{N}]", "mu-freq", lambda d=deck, N=N: _mu_answer(d, N))
        for n in range(N):
            add(f"density_product[{deck}@{n + 1}]", "density-product",
                lambda d=deck, n=n: _density_answer(d, n))
        add(f"projection[{deck}@{N}]", "projection",
            lambda d=deck, N=N: _verdict(
                lambda: measures.verify_projection(_cons(d), N)))
        for n in range(1, N - 1):
            add(f"transition[{deck}:{n}@{N}]", "transition",
                lambda d=deck, n=n, N=N: _verdict(
                    lambda: measures.verify_transition(_cons(d), n, N)))
    return ops


# -- search -----------------------------------------------------------------------


def search_name(deck: str, level: int | None, target: int) -> str:
    oracle = "z-oracle" if level is None else f"window({level})"
    return f"search[{deck}:{oracle}:{target}]"


def _search_answer(deck_name: str, level: int | None, target: int):
    from toeplitz_lab import decks, independence as ind, williams

    deck = decks.bundled_deck(deck_name)
    spec = deck.group
    if level is None:
        wp = deck.williams
        p3, p4 = wp.periods[2], wp.periods[3]
        oracle = ind.ZOracle(williams.generate(wp, 2 * p4 + p3 + 50), margin=p3 + 1)
        cyls = [ind.Cylinder.single_site(1, s) for s in range(deck.m)]
        cands = ind.z_candidates(p3)
    else:
        oracle = ind.GOracle(decks.construction(deck).window(level))
        cyls = [ind.Cylinder.single_site(spec.rank, s) for s in (1, 2)]
        cands = ind.g_candidates(spec, SEARCH_RADIUS)
    res = ind.find_independence_set(cyls, target, oracle, cands, spec,
                                    max_steps=MAX_STEPS)
    ok = res.status in ("found", "none")
    if res.certificate is not None:
        again = ind.Certificate.from_json(res.certificate.to_json())
        ok = ind.check_certificate(again, oracle, spec)
    return {"status": res.status, "steps": res.steps}, ok


def search_ops(searches=SEARCHES) -> list[Op]:
    """Independence searches that end in a definitive verdict; found
    certificates are round-tripped through JSON and re-checked."""
    ops = []
    for deck, level, target in searches:
        name = search_name(deck, level, target)

        def run(name=name, deck=deck, level=level, target=target):
            answer, ok = _search_answer(deck, level, target)
            return [(name, answer, ok)]
        ops.append(Op(name, "search", (name,), run))
    return ops


def build_ops(workload: str, seed: int) -> list[Op]:
    if workload == "acceptance":
        return acceptance_ops(seed)
    if workload == "deep-strata":
        return deep_ops()
    if workload == "search":
        return search_ops()
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# -- one pass -------------------------------------------------------------------


def run_ops(ops: list[Op], pins: dict) -> dict:
    """Run every operation once, timing each, and gate its answers on the pins."""
    clock = time.perf_counter
    timings = []
    failures = []
    attempted = 0
    for op in ops:
        start = clock()
        try:
            answers = op.run()
            error = None
        except Exception:  # a failing operation must not stop the others
            answers = []
            error = traceback.format_exc()
        timings.append({"op": op.name, "family": op.family, "seconds": clock() - start})
        got = {key: (answer, ok) for key, answer, ok in answers}
        for key in op.keys:
            attempted += 1
            reason = None
            if error is not None:
                reason = "raised: " + error.strip().splitlines()[-1]
            elif key not in got:
                reason = "no answer"
            elif key not in pins:
                reason = "no pinned answer"
            else:
                answer, ok = got[key]
                try:
                    same = canonical(answer) == canonical(pins[key])
                except (TypeError, ValueError) as exc:
                    same, reason = False, f"answer is not JSON: {exc}"
                if not ok:
                    reason = "passed=False"
                elif not same and reason is None:
                    reason = f"differs from pin: {canonical(answer)[:200]}"
            if reason is not None:
                failures.append({"op": op.name, "key": key, "reason": reason,
                                 "traceback": error})
    return {"ops": timings, "attempted": attempted, "failed": len(failures),
            "failures": failures}
