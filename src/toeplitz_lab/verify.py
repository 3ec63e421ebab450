"""Named verification suites over the bundled decks.

Every check returns a CheckResult whose details carry exact integers or
rational strings and a provenance tag (counted | closed-form | search), so
reports are reproducible byte for byte for a fixed configuration.  A check
that raises one of the library's failure classes is reported by
``run_check`` as a failed row with the provenance tag "raised", whose
details name the exception class and its message.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from . import decks as deckmod
from . import independence as ind
from . import measures, periods, pullback as pb, williams
from .lattice import DepthExhausted, SpecError, box_elements, cube, elt_arrays
from .toeplitz import LEVEL_DTYPE, SYMBOL_DTYPE, Construction, ConstructionError


@dataclass
class CheckResult:
    name: str
    passed: bool
    provenance: str
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}"


def frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _cons(name: str) -> Construction:
    return deckmod.construction(deckmod.bundled_deck(name))


# -- criterion 1: the tiled and the rep-route fresh cells agree -----------------


def fresh_dual(cons: Construction, max_level: int) -> tuple[dict[int, int], bool]:
    """Fresh-cell count per level 1 .. max_level, and whether the tiled mask
    ``fresh_bool(n)``, the rep route (the cells of the D_n box that no level
    <= n claims: one bool mask that each mask of
    ``Construction.stratum_claims(n)`` clears) and the closed-form count
    agree at every level.

    The verdict is that of a rep route fed by its own masks: level n reads
    only tiled masks of levels below n, the origin alone at level 0, and
    this ascending loop has already compared the others.  While they agree,
    level n reads what a self-fed route would, so the first disagreement is
    found at the same level."""
    sizes = {}
    agreed = True
    for n in range(1, max_level + 1):
        tiled = cons.fresh_bool(n)
        unclaimed = np.ones(cons.chain.level(n), dtype=bool)
        for hit in cons.stratum_claims(n):
            unclaimed &= ~hit
        sizes[n] = int(tiled.sum())
        if not np.array_equal(tiled, unclaimed.ravel()) or \
                sizes[n] != measures.fresh_count(cons, n):
            agreed = False
    return sizes, agreed


def check_fresh_dual(deck_name: str) -> CheckResult:
    sizes, passed = fresh_dual(_cons(deck_name), 4)
    return CheckResult(f"fresh-dual[{deck_name}]", passed, "counted",
                       {"sizes": sizes})


# -- criterion 2: strata partition the level-N window --------------------------


def claim_pass(cons: Construction, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Per cell of the D_N box (shape p^N): how many of the levels 1 .. N
    claim it, and the first that does (0 where none does; ``LEVEL_DTYPE``),
    from one run of ``Construction.stratum_claims(N)`` on the tiled fresh
    masks of levels 0 .. N-1: criterion 2's pass (criterion 1 needs only the
    unclaimed cells and clears one mask).  Counting every claim, not only
    the first, is what lets criterion 2 see a cell claimed twice;
    ``Construction.first_claims`` stops at the first."""
    shape = cons.chain.level(N)
    count = np.zeros(shape, dtype=LEVEL_DTYPE)  # at most N claims, a level
    first = np.zeros(shape, dtype=LEVEL_DTYPE)
    for l, hit in enumerate(cons.stratum_claims(N), start=1):
        np.copyto(first, l, where=hit & (count == 0))
        count += hit
    return count, first


def check_strata_partition(deck_name: str, N: int = 3) -> CheckResult:
    """Every cell of the D_N box claims exactly one stratum, and that is its
    level in ``level_array(N)`` with a symbol of the alphabet.

    Cell v claims level l in 1..N when its rep modulo Gamma_l is a
    level-(l-1) fresh cell of the tiled ``fresh_bool`` (at l = 1, the origin
    of D_0: v is in Gamma_1), and level N+1 when it is a level-N fresh cell
    itself.  The claims of levels 1..N come from ``claim_pass``."""
    cons = _cons(deck_name)
    count, claimed = claim_pass(cons, N)
    top = cons.fresh_bool(N).reshape(count.shape)
    count += top
    claimed[top] = N + 1  # now the claim of every singly claimed cell
    single = count == 1
    levels = cons.level_array(N).reshape(count.shape)
    in_alphabet = np.isin(cons.symbol_table(), cons.alphabet).all(axis=0)
    wrong = (levels != claimed) | ~in_alphabet[levels]
    bad = int(np.count_nonzero(~single))
    undefined = int(np.count_nonzero(single & wrong))
    passed = bad == 0 and undefined == 0
    return CheckResult(f"strata-partition[{deck_name}]", passed, "counted",
                       {"cells": levels.size * cons.group.finite_order,
                        "multi_or_unclaimed": bad, "undefined": undefined})


# -- criterion 3: the density product formula ----------------------------------


def check_density_product(deck_name: str) -> CheckResult:
    cons = _cons(deck_name)
    rows = []
    passed = True
    for n in range(4):
        c = measures.density_product_check(cons, n)
        rows.append({"level": c.level, "counted": frac(c.counted),
                     "closed": frac(c.closed)})
        passed = passed and c.equal
    d3 = measures.periodic_density_closed(cons, 3)
    regular = d3 < 1 - d3
    passed = passed and regular
    return CheckResult(f"density-product[{deck_name}]", passed, "counted",
                       {"rows": rows, "d3": frac(d3),
                        "d3_below_half_mass": regular})


# -- criterion 4: matrix recursions --------------------------------------------


def check_matrix_recursions(deck_name: str) -> CheckResult:
    cons = _cons(deck_name)
    N = 4
    ok1 = measures.verify_transition(cons, 1, N)
    ok2 = measures.verify_transition(cons, 2, N)
    ok0 = measures.verify_projection(cons, N)
    okc = measures.transition_chain_check(cons, 3, N)
    dets = [measures.transition_det(cons, n) for n in (1, 2)]
    passed = ok1 and ok2 and ok0 and okc and all(d != 0 for d in dets)
    return CheckResult(f"matrix-recursions[{deck_name}]", passed, "counted",
                       {"transition_1": ok1, "transition_2": ok2,
                        "projection": ok0, "chain": okc, "dets": dets})


# -- criterion 5: marker mass ---------------------------------------------------


def check_marker_mass(deck_name: str = "dihedral-m2") -> CheckResult:
    cons = _cons(deck_name)
    want = measures.marker_mass_closed(cons)
    rows = {}
    passed = True
    for n in range(1, 7):
        got = measures.mu_freq_counted(cons, n).get(0, Fraction(0))
        rows[n] = frac(got)
        passed = passed and got == want
    return CheckResult(f"marker-mass[{deck_name}]", passed, "counted",
                       {"closed_form": frac(want), "counted": rows})


# -- criterion 6: dominant class masses ----------------------------------------


def check_class_mass(deck_name: str = "dihedral-m2") -> CheckResult:
    cons = _cons(deck_name)
    rows = []
    passed = True
    for i in (1, 2):
        for s in (2, 3):
            mass, bound = measures.dominant_class_mass(cons, i, 1, s)
            ok = mass >= bound
            rows.append({"i": i, "k": 1, "s": s, "mass": frac(mass),
                         "bound": frac(bound), "ok": ok})
            passed = passed and ok
    return CheckResult(f"class-mass[{deck_name}]", passed, "counted",
                       {"rows": rows})


# -- criteria 7 and 8: the fiber and tower census ----------------------------


@dataclass(frozen=True)
class FiberCensus:
    """Per depth-2 odometer point, in canonical order: its coordinates, fiber
    count, tower pieces and aperiodic part, as read-only columns, held to the
    deck's ``entropy_fiber_bound`` and ``piece_bound``."""

    fiber_radius: int
    aperiodic_unit: str  # "cells" or "pieces", what ``aperiodic`` counts
    coords: tuple        # residues mod p_1, p_2 (1-d decks) or reps t_1, t_2
    fibers: np.ndarray
    pieces: np.ndarray
    aperiodic: np.ndarray


def _histogram(column: np.ndarray) -> dict[int, int]:
    return dict(sorted(Counter(column.tolist()).items()))


CENSUS_RADIUS = 8  # default window radius of a fiber census, here and in the CLI


def fiber_census(deck: deckmod.Deck, radius: int = CENSUS_RADIUS) -> FiberCensus:
    """Fiber count, tower pieces and aperiodic part of every depth-2 odometer
    point, in canonical order, as the columns of one read-only record.

    It is kept on the deck's construction while the arrays it read,
    ``level_array(2)`` and on group decks the class table fetched on every
    call, are the same read-only objects (``measures.once_per_array``).

    Tower pieces are counted on the radius window by ``periods.census``.
    Fibers of 1-d decks come from one ``williams.fiber_scan`` of every
    point at the safe radius of the classical sequence, where one
    not-yet-periodic cluster meets the window (the bound m holds only
    there); fibers of group decks come from the same census, through orbit
    approximants inside the level-3 box at the given radius, which read its
    Gamma_2 class table (``measures.class_levels(cons, 2, 3)``).  A point
    whose fiber no approximant reaches is refused: an empty fiber would pass
    any bound.  Every row of an invertible integer matrix is nonzero, so a
    window wider than the level-3 box on some axis leaves no approximant
    for any point; it is refused before the census is built.
    """
    wp = deck.williams
    if wp is not None and wp.depth < 3:
        raise SpecError(f"the fiber census of a 1-d deck reads depth-2 points through "
                        f"approximants inside p_3, so it needs 3 periods, got {wp.depth}")
    cons = deckmod.construction(deck)
    if wp is None and 2 * radius + 1 > min(cons.chain.level(3)):
        raise SpecError(f"no orbit approximant fits a window of radius {radius} "
                        f"inside the level-3 box {cons.chain.level(3)}")
    read = (cons.level_array(2),) if wp else \
        (cons.level_array(2), measures.class_levels(cons, 2, 3))
    return measures.once_per_array(cons, ("fiber_census", radius), read,
                                   lambda *_: _build_fiber_census(deck, radius))


def _build_fiber_census(deck: deckmod.Deck, radius: int) -> FiberCensus:
    """The record of ``fiber_census``, built afresh."""
    wp = deck.williams
    cons = deckmod.construction(deck)
    counts = periods.census(cons, 2, radius, None if wp else 3)
    if wp is not None:
        # at depth 2 the safe radius is at most p_1, so the probe patch also
        # holds every fiber window; fiber_scan refuses one too small
        eta = williams.generate(wp, wp.periods[-1] + wp.periods[0])
        fiber_radius, unit = williams.max_safe_fiber_radius(eta, 2), "cells"
        t2 = counts.reps[:, 1, 0]
        scan = williams.fiber_scan(eta, 2, t2, fiber_radius)
        coords = tuple(williams.coords_of_int(wp, t, 2) for t in t2.tolist())
        fibers, aperiodic = scan.counts, scan.aperiodic_cells
    else:
        fiber_radius, unit = radius, "pieces"
        coords = tuple(tuple((tuple(v), f) for v in row)
                       for row, f in zip(counts.reps.tolist(), counts.fparts.tolist()))
        fibers, aperiodic = counts.fibers, counts.aperiodic_pieces
    empty = np.flatnonzero(fibers == 0)
    if len(empty):
        raise SpecError(f"no orbit approximant reaches odometer point "
                        f"{coords[empty[0]]} at fiber radius {fiber_radius}")
    for column in (fibers, counts.pieces, aperiodic):
        column.flags.writeable = False
    return FiberCensus(fiber_radius, unit, coords, fibers, counts.pieces, aperiodic)


FIBER_DECKS = ("williams-m2", "williams-m3", "z2-m2", "dihedral-m2")
TOWER_DECKS = ("williams-m2", "z2-m2", "dihedral-m2")


def check_fiber_scan(deck_name: str) -> CheckResult:
    deck = deckmod.bundled_deck(deck_name)
    census = fiber_census(deck)
    hist, bound = _histogram(census.fibers), deck.entropy_fiber_bound()
    passed = max(hist) <= bound
    details = {"radius": census.fiber_radius, "histogram": hist, "bound": bound}
    if deck_name == "williams-m2":
        # the scan must also witness a genuinely split fiber
        details["split_fibers"] = hist.get(2, 0)
        passed = passed and details["split_fibers"] > 0
    return CheckResult(f"fiber-scan[{deck_name}]", passed, "counted", details)


def check_tower_piece(deck_name: str) -> CheckResult:
    deck = deckmod.bundled_deck(deck_name)
    hist = _histogram(fiber_census(deck).pieces)
    bound = deck.piece_bound()
    return CheckResult(f"tower-pieces[{deck_name}]", max(hist) <= bound, "counted",
                       {"histogram": hist, "bound": bound})


def check_fiber_scans() -> list[CheckResult]:
    return [check_fiber_scan(name) for name in FIBER_DECKS]


def check_tower_pieces() -> list[CheckResult]:
    return [check_tower_piece(name) for name in TOWER_DECKS]


# -- criterion 9: independence evidence ----------------------------------------


@dataclass(frozen=True)
class IndependenceSearch:
    k: int               # number of single-site symbol cylinders
    target: int
    radius: int          # candidate radius
    oracle: object
    result: ind.SearchResult


def independence_search(deck: deckmod.Deck, target: int | None = None,
                        max_steps: int = ind.MAX_STEPS,
                        deadline: float | None = None) -> IndependenceSearch:
    """Search the single-site symbol cylinders of a deck for an independence
    set of the target size (default 3 on two-symbol 1-d decks, else 2).

    1-d decks search the classical sequence with margin and candidate radius
    p_3, so they need 4 periods; group decks search the symbols 1 and 2 in
    the level-3 window with candidates of radius 15.
    """
    wp = deck.williams
    if target is None:
        target = 3 if wp is not None and deck.m == 2 else 2
    if wp is not None:
        if wp.depth < 4:
            raise SpecError(f"the independence search of a 1-d deck reads p_3 and "
                            f"p_4, so it needs 4 periods, got {wp.depth}")
        radius = wp.periods[2]
        eta = williams.generate(wp, 2 * wp.periods[3] + radius + 50)
        oracle = ind.ZOracle(eta, margin=radius + 1)
        cyls = [ind.Cylinder.single_site(1, s) for s in range(deck.m)]
        cands = ind.z_candidates(radius)
    else:
        radius = 15
        oracle = ind.GOracle(deckmod.construction(deck).window(3))
        cyls = [ind.Cylinder.single_site(deck.group.rank, s) for s in (1, 2)]
        cands = ind.g_candidates(deck.group, radius)
    res = ind.find_independence_set(cyls, target, oracle, cands, deck.group,
                                    max_steps=max_steps, deadline=deadline)
    return IndependenceSearch(len(cyls), target, radius, oracle, res)


def _certified(k: int, status: str) -> int:
    """Symbols a search certifies: k for a found set, else only 1."""
    return k if status == "found" else 1


def entropy_bracket(deck: deckmod.Deck, k: int, status: str) -> tuple[float, float]:
    """Sequence-entropy bracket in bits of a search over k cylinders."""
    return ind.entropy_bounds_bits(_certified(k, status), deck.entropy_fiber_bound())


INDEPENDENCE_DECKS = ("williams-m2", "williams-m3", "z2-m2", "dihedral-m2")


def check_independence_deck(name: str, max_steps: int = ind.MAX_STEPS,
                            deadline: float | None = None) -> CheckResult:
    deck = deckmod.bundled_deck(name)
    search = independence_search(deck, max_steps=max_steps, deadline=deadline)
    res = search.result
    found = res.status == "found"
    details = {"k": search.k, "target_size": search.target,
               "status": res.status, "steps": res.steps}
    if deck.williams is None:
        return CheckResult(f"independence[{name}]", found, "search", details)
    details["window"] = search.radius
    if found:
        details["independence_set"] = [list(g[0]) for g in
                                       res.certificate.independence_set]
    # pigeonhole: one more pairwise-disjoint single-site constraint than
    # the alphabet can carry must come back window-complete "none"
    bad = [ind.Cylinder.single_site(1, s) for s in range(deck.m + 1)]
    neg = ind.find_independence_set(bad, 1, search.oracle, ind.z_candidates(40),
                                    deck.group, max_steps=max_steps)
    details["pigeonhole"] = neg.status
    return CheckResult(f"independence[{name}]", found and neg.status == "none",
                       "search", details)


def check_entropy_bounds(searches: dict[str, CheckResult]) -> CheckResult:
    """Entropy bracket per deck from its independence search, decided on the
    integers: certified symbols k = m = fiber bound on 1-d decks, k >= 2 and
    bound 16 on group decks.  A search that raised fails the row."""
    rows = {}
    ok = True
    for name, res in searches.items():
        if res.provenance == "raised":
            rows[name] = {"search": res.name, "raised": res.details["error"]}
            ok = False
            continue
        deck = deckmod.bundled_deck(name)
        k = _certified(res.details["k"], res.details["status"])
        bound = deck.entropy_fiber_bound()
        lower, upper = ind.entropy_bounds_bits(k, bound)
        rows[name] = {"lower_bits": lower, "upper_bits": upper}
        if deck.williams is not None:
            ok = ok and k == deck.m == bound
        else:
            ok = ok and k >= 2 and bound == 16
    return CheckResult("entropy-bounds", ok, "search", rows)


def check_independence() -> list[CheckResult]:
    searches = {name: check_independence_deck(name) for name in INDEPENDENCE_DECKS}
    return [*searches.values(), check_entropy_bounds(searches)]


# -- criterion 10: pullback suite ------------------------------------------------


def check_pullback() -> CheckResult:
    dihedral = deckmod.bundled_deck("dihedral-m2")
    swap = deckmod.bundled_deck("swap-m2")
    wm2 = deckmod.bundled_deck("williams-m2")

    w = (1, 1)
    rejected, _ = pb.validate_hom((1,), dihedral.group)
    accepted, _ = pb.validate_hom(w, swap.group)

    eta = williams.generate(wm2.williams, 25000)
    rng = random.Random(20240809)
    window = box_elements(cube(2, 4), 2)
    draws = [((rng.randint(-30, 30), rng.randint(-30, 30)), rng.choice((0, 1)))
             for _ in range(100)]
    gs = elt_arrays(draws, swap.group.rank)
    equiv = int(pb.equivariance_check(w, swap.group, eta, gs, window).sum())

    zo = ind.ZOracle(eta, margin=600)
    cyls = [ind.Cylinder.single_site(1, 0), ind.Cylinder.single_site(1, 1)]
    res = ind.find_independence_set(cyls, 2, zo, ind.z_candidates(432), wm2.group)
    po = ind.PullbackOracle(w, swap.group, eta, radius=4)
    transported = ind.transport_certificate(w, swap.group, res.certificate, po)
    size_kept = transported.size == res.certificate.size

    passed = (not rejected) and accepted and equiv == 100 and size_kept
    return CheckResult("pullback-suite", passed, "search",
                       {"dihedral_rejected": not rejected,
                        "swap_accepted": accepted,
                        "equivariance_samples": equiv,
                        "transported_size": transported.size,
                        "source_size": res.certificate.size})


# -- criterion 11: the conjugation identity ------------------------------------


def check_conjugation(deck_name: str, seed: int = 7) -> CheckResult:
    """The conjugation identity Per(sigma^g x, Gamma_i, a) = g Per(x,
    g^-1 Gamma_i g, a) on 100 drawn instances, x = sigma^s eta: the left side
    is the empirical period set of the level-3 window's visible
    Gamma_i-orbits, the right side the exact period set of eta at the points
    s^-1 g^-1 h of the core (``periods.per_set_exact``).  That is the right
    side when every action matrix maps Gamma_i onto itself, which is checked
    first (SpecError names the finite part and level that fail).  A window
    symbol that breaks the period structure fails samples; a wrong level
    that reads the right symbol does not."""
    cons = _cons(deck_name)
    spec = cons.group
    for i in (1, 2):
        p = cons.chain.level(i)
        for f, mat in enumerate(spec.action):
            # column k of M_f diag(p) lies in Gamma_i when p_j divides each entry
            if any(mat[j][k] * p[k] % p[j] for j in range(spec.rank)
                   for k in range(spec.rank)):
                raise SpecError(f"the action of finite part {f} does not map "
                                f"Gamma_{i} = {p} onto itself")
    win = cons.window(3)
    rng = random.Random(seed)
    reach = min(6, cons.domains.low(2)[0])
    box = cons.domains.box_coords(2)
    F = spec.finite_order
    core = box_elements(box[np.all(np.abs(box) <= reach, axis=1)], F)
    samples = 100
    # per sample, in draw order: s, g, the level i and the symbol a
    draws = [([rng.randint(-3, 3) for _ in range(spec.rank)], rng.randrange(F),
              [rng.randint(-4, 4) for _ in range(spec.rank)], rng.randrange(F),
              rng.choice((1, 2)), rng.choice(cons.alphabet)) for _ in range(samples)]
    sv, sf, gv, gf, level, alphas = (np.array(column) for column in zip(*draws))
    ov, of = spec.mul_arr(*spec.inv_arr(sv, sf), *spec.inv_arr(gv, gf))  # s^-1 g^-1
    pv, pf = spec.mul_arr(ov[:, None], of[:, None], *core)
    passed = 0
    for i in (1, 2):
        pick = level == i
        gammas = box_elements(cons.domains.translates(i, i + 1), 1)
        left = periods.per_set_empirical(win, (ov[pick], of[pick]), gammas, core,
                                         alphas[pick])
        right = periods.per_set_exact(cons, (pv[pick], pf[pick]), i, alphas[pick])
        passed += int(np.all(left == right, axis=1).sum())
    return CheckResult(f"conjugation[{deck_name}]", passed == samples,
                       "counted", {"passed": passed, "samples": samples})


# -- criterion 12: complexity diagnostic ----------------------------------------


def check_complexity(deck_name: str = "williams-m2") -> CheckResult:
    deck = deckmod.bundled_deck(deck_name)
    seed, length = 12345, 6400
    eta = williams.generate(deck.williams, length)
    radii = list(range(2, 9))
    prof = measures.complexity_profile(eta.symbols[:length], radii)
    ratios = [r for _, _, r in prof]
    toeplitz_dec = all(a > b for a, b in zip(ratios, ratios[1:]))

    rng = np.random.default_rng(seed)
    ctrl = rng.integers(0, deck.m, size=length).astype(SYMBOL_DTYPE)
    prof2 = measures.complexity_profile(ctrl, radii)
    r2 = [r for _, _, r in prof2]
    control_dec = all(a > b for a, b in zip(r2, r2[1:]))

    passed = toeplitz_dec and not control_dec
    return CheckResult(f"complexity[{deck_name}]", passed, "counted",
                       {"toeplitz": [(s, c, round(r, 6)) for s, c, r in prof],
                        "control": [(s, c, round(r, 6)) for s, c, r in prof2],
                        "toeplitz_decreasing": toeplitz_dec,
                        "control_decreasing": control_dec, "seed": seed})


# -- assembly -------------------------------------------------------------------


GROUP_DECKS = ("williams-m2", "williams-m3", "z2-m2", "dihedral-m2", "swap-m2")

Check = Callable[[], CheckResult]

def run_check(name: str, check: Check) -> CheckResult:
    """The row of one check: its result, or, when it raises one of the
    library's failure classes, a failed row with provenance "raised" whose
    details name the exception class and its message.  Any other exception
    is a bug, or out of memory or interrupted, and propagates."""
    try:
        return check()
    except (ConstructionError, SpecError, DepthExhausted, ind.CertificateWindowError,
            AssertionError) as exc:
        return CheckResult(name, False, "raised",
                           {"error": type(exc).__name__, "message": str(exc)})


def acceptance_table(max_steps: int = ind.MAX_STEPS,
                     deadline: float | None = None) -> list[tuple[str, str, Check]]:
    """Every acceptance check as (criterion, check name, thunk), in report
    order.  Each thunk runs one check; the independence searches and their
    ``run_check`` rows are shared with the entropy-bounds row by a memo."""
    searches: dict[str, CheckResult] = {}

    def search(name: str) -> CheckResult:
        if name not in searches:
            searches[name] = run_check(f"independence[{name}]", partial(
                check_independence_deck, name, max_steps, deadline))
        return searches[name]

    def per_deck(criterion: str, family: str, fn, names) -> list[tuple[str, str, Check]]:
        return [(criterion, f"{family}[{n}]", partial(fn, n)) for n in names]

    crit9 = "9 independence evidence"
    return [
        *per_deck("1 fresh-cell recursion equivalence", "fresh-dual",
                  check_fresh_dual, ("z2-m2", "dihedral-m2")),
        *per_deck("2 strata partition", "strata-partition",
                  check_strata_partition, GROUP_DECKS),
        *per_deck("3 density product formula", "density-product",
                  check_density_product, GROUP_DECKS),
        *per_deck("4 matrix recursions", "matrix-recursions",
                  check_matrix_recursions, GROUP_DECKS),
        ("5 marker mass", "marker-mass[dihedral-m2]", check_marker_mass),
        ("6 dominant class mass", "class-mass[dihedral-m2]", check_class_mass),
        *per_deck("7 fiber bounds", "fiber-scan", check_fiber_scan, FIBER_DECKS),
        *per_deck("8 tower piece bounds", "tower-pieces",
                  check_tower_piece, TOWER_DECKS),
        *per_deck(crit9, "independence", search, INDEPENDENCE_DECKS),
        (crit9, "entropy-bounds",
         lambda: check_entropy_bounds({n: search(n) for n in INDEPENDENCE_DECKS})),
        ("10 pullback suite", "pullback-suite", check_pullback),
        *per_deck("11 conjugation identity", "conjugation",
                  check_conjugation, GROUP_DECKS),
        ("12 complexity diagnostic", "complexity[williams-m2]", check_complexity),
    ]
