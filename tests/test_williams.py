from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from toeplitz_lab import decks, periods, verify, williams
from toeplitz_lab.lattice import SpecError, window_keys
from toeplitz_lab.toeplitz import LEVEL_DTYPE, SYMBOL_DTYPE
from toeplitz_lab.williams import (
    OUTSIDE,
    UNDEFINED,
    WilliamsParams,
    ZPatch,
    convergence_partial_sums,
    coords_of_int,
    fiber_scan,
    generate,
    max_safe_fiber_radius,
)


def small_params():
    return WilliamsParams(2, (3, 18))


def _level(eta, n):
    """The filling step at window position n, read from the level array."""
    assert -eta.N <= n <= eta.N, n
    return int(eta.levels[n + eta.N])


def _probe(params):
    """The patch that ``max_safe_fiber_radius`` scans: one full deeper
    period of the level map beyond the first period, on each side."""
    return generate(params, params.periods[-1] + params.periods[0])


def test_step_one_residues():
    eta = generate(small_params(), 40)
    for n in (0, 2, 3, -1):
        assert eta.symbol(n) == 1
        assert _level(eta, n) == 1
    # every window position congruent to 0 or -1 mod 3 carries level 1
    for n in range(-eta.N, eta.N + 1):
        assert (_level(eta, n) == 1) == (n % 3 in (0, 2))


def test_step_two_and_undefined():
    eta = generate(small_params(), 40)
    assert eta.symbol(1) == 0 and _level(eta, 1) == 2
    assert eta.symbol(16) == 0 and _level(eta, 16) == 2  # block 5 = -1 mod 6
    assert eta.symbol(4) is None  # block 1 is interior at depth 2


def test_param_validation():
    with pytest.raises(SpecError):
        WilliamsParams(2, (2, 6)).validate()
    with pytest.raises(SpecError):
        WilliamsParams(2, (3, 6)).validate()  # ratio 2 < 3
    with pytest.raises(SpecError):
        WilliamsParams(1, (3, 9)).validate()
    # a patch holds levels 0 .. depth as LEVEL_DTYPE: 255 periods at most
    periods = tuple(3 ** k for k in range(1, 257))
    WilliamsParams(2, periods[:255]).validate()
    with pytest.raises(SpecError, match="256 periods leave levels past 255"):
        WilliamsParams(2, periods).validate()


def _generate_reference(params, N):
    """The five-pass build: every step over the whole window, through an
    int64 position array and its block indices."""
    params.validate()
    if N < params.periods[0]:
        raise SpecError("window must cover at least one period")
    size = 2 * N + 1
    symbols = np.full(size, UNDEFINED, dtype=np.int16)
    levels = np.zeros(size, dtype=np.int16)
    pos = np.arange(-N, N + 1, dtype=np.int64)
    p1 = params.periods[0]
    first = (pos % p1 == 0) | (pos % p1 == p1 - 1)
    symbols[first] = params.alpha(1)
    levels[first] = 1
    for i in range(1, params.depth):
        p, ratio = params.periods[i - 1], params.periods[i] // params.periods[i - 1]
        block = np.floor_divide(pos, p)
        chosen = (block % ratio == 0) | (block % ratio == ratio - 1)
        fill = chosen & (symbols == UNDEFINED)
        symbols[fill] = params.alpha(i + 1)
        levels[fill] = i + 1
    return ZPatch(params, N, symbols, levels)


@st.composite
def _params_and_window(draw):
    """Valid params (m 2-5, 2-4 periods, ratio at least 3) and a window
    radius below, at or above p_top, mostly not a multiple of any period."""
    periods = [draw(st.integers(3, 8))]
    for _ in range(draw(st.integers(1, 3))):
        periods.append(periods[-1] * draw(st.integers(3, 5)))
    p_top = periods[-1]
    N = draw(st.one_of(st.integers(periods[0], p_top - 1), st.just(p_top),
                       st.integers(p_top + 1, 3 * p_top + 7)))
    return WilliamsParams(draw(st.integers(2, 5)), tuple(periods)), N


@settings(max_examples=300, deadline=None)
@given(_params_and_window())
@example((WilliamsParams(2, (3, 18, 216)), 7))      # shorter than p_2
@example((WilliamsParams(2, (3, 9)), 3))            # the narrowest window
@example((WilliamsParams(5, (8, 40, 200, 1000)), 1000))
def test_generate_matches_five_pass_reference(case):
    params, N = case
    got, want = generate(params, N), _generate_reference(params, N)
    assert got.N == want.N == N
    assert got.symbols.dtype == want.symbols.dtype == SYMBOL_DTYPE
    assert got.levels.dtype == LEVEL_DTYPE  # the reference keeps its int16 levels
    assert np.array_equal(got.symbols, want.symbols)
    assert np.array_equal(got.levels, want.levels)


def test_generate_on_a_window_past_two_top_periods():
    # 2N + 1 = 248,845 cells: two top periods of williams-m3 and 13 cells more
    wp = decks.bundled_deck("williams-m3").williams
    got, want = generate(wp, 124422), _generate_reference(wp, 124422)
    assert 2 * wp.periods[-1] < 2 * got.N + 1 and (2 * got.N + 1) % wp.periods[-1]
    assert np.array_equal(got.symbols, want.symbols)
    assert np.array_equal(got.levels, want.levels)


def test_at_matches_the_scalar_symbol():
    """``at`` reads what the check-only ``symbol`` reads, position by
    position, on a patch with Undefined cells and past both window ends;
    None is UNDEFINED inside the window and OUTSIDE beyond it."""
    eta = generate(WilliamsParams(2, (3, 18, 216)), 300)
    n = np.arange(-eta.N - 3, eta.N + 4)
    want = [UNDEFINED if abs(x) <= eta.N else OUTSIDE for x in n.tolist()]
    want = [w if eta.symbol(x) is None else eta.symbol(x)
            for x, w in zip(n.tolist(), want)]
    got = eta.at(n)
    assert got.dtype == SYMBOL_DTYPE and got.tolist() == want
    assert UNDEFINED in want and OUTSIDE in want
    square = n[:len(n) // 2 * 2].reshape(-1, 2)[::-1]
    assert eta.at(square).dtype == SYMBOL_DTYPE
    assert np.array_equal(eta.at(square), got[:len(square) * 2].reshape(-1, 2)[::-1])


@pytest.mark.parametrize("params,N", [
    (WilliamsParams(2, (2, 6)), 10), (WilliamsParams(2, (3, 6)), 10),
    (WilliamsParams(1, (3, 9)), 10), (WilliamsParams(2, ()), 10),
    (WilliamsParams(2, (3, 9)), 2), (WilliamsParams(3, (6, 36)), 5),
])
def test_generate_refusals_match_reference(params, N):
    with pytest.raises(SpecError) as got:
        generate(params, N)
    with pytest.raises(SpecError) as want:
        _generate_reference(params, N)
    assert str(got.value) == str(want.value)


def test_fill_steps_disjoint_and_level_map():
    eta = generate(WilliamsParams(2, (3, 18, 216)), 500)
    # a position carries a symbol exactly when it carries a level
    for n in range(-eta.N, eta.N + 1):
        assert (eta.symbol(n) is None) == (_level(eta, n) == 0)
        if _level(eta, n):
            assert eta.symbol(n) == _level(eta, n) % 2


def test_period_sets_match_levels():
    # positions of level <= k are exactly the p_k-periodic ones on the window
    params = WilliamsParams(2, (3, 18, 216))
    eta = generate(params, 700)
    k, p = 2, 18
    core = range(-200, 201)
    for n in core:
        translates = [eta.symbol(n + t * p) for t in range(-20, 21)]
        vals = {v for v in translates if v is not None}
        periodic = len(vals) == 1 and None not in translates
        assert periodic == (1 <= _level(eta, n) <= k), n


def test_convergence_partial_sums():
    assert convergence_partial_sums(WilliamsParams(2, (3, 18, 216))) == \
        [Fraction(1, 6), Fraction(1, 4)]
    assert convergence_partial_sums(WilliamsParams(2, (3, 9, 27))) == \
        [Fraction(1, 3), Fraction(2, 3)]
    assert convergence_partial_sums(WilliamsParams(2, (3, 18))) == [Fraction(1, 6)]


def test_undefined_density_is_block_local():
    params = WilliamsParams(2, (3, 18, 216))
    N = 600
    eta = generate(params, N)
    # undefined cells live inside interior deepest-level blocks only
    undef = [n for n in range(-eta.N, eta.N + 1) if eta.symbol(n) is None]
    assert len(undef) == np.count_nonzero(eta.symbols == UNDEFINED)
    p_last = params.periods[-1]
    ratio = Fraction(len(undef), 2 * N + 1)
    blocks = 2 * N // p_last + 2
    assert ratio <= Fraction(2 * blocks * (p_last - 2), 2 * N + 1)


def test_freeness_proxy():
    deck = decks.bundled_deck("williams-m2")
    eta = generate(deck.williams, 2000)
    for t in range(1, 1001):
        mismatch = any(
            eta.symbol(n) is not None and eta.symbol(n + t) is not None
            and eta.symbol(n) != eta.symbol(n + t)
            for n in range(-2000, 2000 - t + 1))
        assert mismatch, f"shift {t} fixes the window"


def test_toeplitz_coords_have_singleton_fiber():
    deck = decks.bundled_deck("williams-m2")
    wp = deck.williams
    radius = max_safe_fiber_radius(_probe(wp), 2)
    eta = generate(wp, wp.periods[-1] + radius + 10)
    # the array's own residue at full depth
    assert fiber_scan(eta, wp.depth, [0], radius).counts.tolist() == [1]


@pytest.mark.parametrize("name", ["williams-m2", "williams-m3"])
def test_fiber_scan_keys_are_base_radix_numbers_of_each_window(name, monkeypatch):
    """The keys ``fiber_scan`` reads from ``window_keys`` for the census
    call, reshaped to rows t and columns b, are at (t, b) the Python-int
    base-radix number of the digits symbol - min of the window
    [g - N, g + N] of the approximant g = b + t p_k, cut into keys of as many
    digits as stay below 2**62."""
    wp = decks.bundled_deck(name).williams
    eta = _probe(wp)
    N = max_safe_fiber_radius(eta, 2)
    pk, p_top, width = wp.periods[1], wp.periods[-1], 2 * N + 1
    seen = []

    def spy(*args):
        keys, sentinel = window_keys(*args)
        seen.append(([key.copy() for key in keys], sentinel))  # before the sentinel fill
        return keys, sentinel

    monkeypatch.setattr(williams, "window_keys", spy)
    fiber_scan(eta, 2, range(pk), N)
    (keys, sentinel), = seen
    cells = eta.at(np.arange(-N, p_top + N)).tolist()  # position g - N is cells[g]
    lo = min(cells)
    radix = max(cells) - lo + 1
    per_key = min(width, max(d for d in range(1, 64) if radix ** d <= 1 << 62))
    assert sentinel == radix ** per_key
    got = [key.reshape(p_top // pk, pk).tolist() for key in keys]
    for t in range(p_top // pk):
        for b in range(pk):
            g = b + t * pk
            want = []
            for start in range(0, width, per_key):
                value = 0
                for c in cells[g + start:g + min(start + per_key, width)]:
                    value = value * radix + c - lo
                want.append(value)
            assert [key[t][b] for key in got] == want, (t, b)


def test_depth2_fiber_scan_bound_and_split():
    deck = decks.bundled_deck("williams-m2")
    wp = deck.williams
    radius = max_safe_fiber_radius(_probe(wp), 2)
    eta = generate(wp, wp.periods[-1] + radius + 10)
    counts = fiber_scan(eta, 2, range(wp.periods[1]), radius).counts.tolist()
    assert max(counts) <= wp.m
    split = [b for b, n in enumerate(counts) if n == 2]
    assert split
    # the two patches of a split point differ in their aperiodic constant
    for b in split:
        patches, _ = _fiber_patches_reference(wp, eta, coords_of_int(wp, b, 2), radius)
        assert {p.aperiodic_symbol for p in patches} == {0, 1}


ZFiberPatch = namedtuple("ZFiberPatch", "offsets symbols aperiodic_symbol")


def _fiber_patches_reference(params, eta, coords, N):
    """The distinct fully defined [-N, N] restrictions of the approximants
    of the coords' last residue, one approximant and one position at a time
    through ``ZPatch.symbol`` and the level array, with the immature
    approximants and the aperiodic cells tallied in a dict."""
    k = len(coords)
    pk, p_top = params.periods[k - 1], params.periods[-1]
    base = coords[-1] % pk

    def not_captured(n):
        lvl = _level(eta, n)
        return lvl == 0 or lvl > k

    offsets = tuple(range(-N, N + 1))
    aper_mask = [not_captured(base + n) for n in offsets]
    seen = {}
    immature = 0
    for g_t in range(base, base + p_top, pk):
        window = [eta.symbol(g_t + n) for n in offsets]
        if any(s is None for s in window):
            immature += 1
            continue
        if aper_mask != [not_captured(g_t + n) for n in offsets]:
            raise SpecError("aperiodic part is not determined by the coords")
        aper_syms = {s for s, a in zip(window, aper_mask) if a}
        const = aper_syms.pop() if len(aper_syms) == 1 else None
        if aper_syms:
            raise SpecError("aperiodic part of an approximant is not constant; "
                            "narrow the window")
        seen.setdefault(tuple(window), ZFiberPatch(offsets, tuple(window), const))
    info = {"immature": immature, "aperiodic_cells": sum(aper_mask)}
    return sorted(seen.values(), key=lambda p: p.symbols), info


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SpecError as exc:
        return str(exc)


def _one_residue(eta, coords, radius):
    """``fiber_scan`` of the coords' last residue alone: (count, aperiodic
    cells, immature approximants), or the refusal message."""
    return _scan_outcome(eta, len(coords), coords[-1:], radius)


def _reference_outcome(wp, eta, coords, radius):
    """``_fiber_patches_reference`` in the shape of ``_one_residue``."""
    got = _outcome(_fiber_patches_reference, wp, eta, coords, radius)
    if isinstance(got, str):
        return got
    patches, info = got
    return [len(patches)], [info["aperiodic_cells"]], [info["immature"]]


@pytest.mark.parametrize("name", ["williams-m2", "williams-m3"])
def test_fiber_patches_match_scalar_reference(name):
    wp = decks.bundled_deck(name).williams
    eta = generate(wp, wp.periods[-1] + 30)
    safe = max_safe_fiber_radius(_probe(wp), 2)
    cases = ([(1, g, safe) for g in (0, 1)]
             + [(2, g, radius) for radius in (safe, 10) for g in range(0, wp.periods[1], 5)]
             + [(3, g, 6) for g in range(0, wp.periods[2], 53)])
    outcomes = set()
    for k, g, radius in cases:
        coords = coords_of_int(wp, g, k)
        got = _one_residue(eta, coords, radius)
        assert got == _reference_outcome(wp, eta, coords, radius)
        outcomes.add(type(got))
    assert outcomes == {tuple, str}  # both counts and refusals were compared


def test_corrupted_levels_leave_the_aperiodic_part_undetermined():
    wp = decks.bundled_deck("williams-m2").williams
    radius = max_safe_fiber_radius(_probe(wp), 2)
    eta = generate(wp, wp.periods[-1] + radius + 10)
    coords = coords_of_int(wp, 7, 2)
    assert _one_residue(eta, coords, radius)[0][0] > 0
    # a later fully defined approximant reads one captured cell as still
    # aperiodic; its symbol is kept, so only the level map gives it away
    offsets = range(-radius, radius + 1)
    g_t = next(g for g in range(coords[-1] + wp.periods[1], wp.periods[-1], wp.periods[1])
               if all(eta.symbol(g + n) is not None for n in offsets))
    n = next(n for n in offsets if 1 <= _level(eta, g_t + n) <= 2)
    levels = eta.levels.copy()
    levels[g_t + n + eta.N] = 3
    bad = ZPatch(wp, eta.N, eta.symbols, levels)
    assert _one_residue(bad, coords, radius) == \
        _reference_outcome(wp, bad, coords, radius) == \
        "aperiodic part is not determined by the coords"



def _max_safe_fiber_radius_reference(params, probe, depth):
    """``max_safe_fiber_radius`` on a given probe patch as a scan over its
    cells, one at a time, collecting the closed runs of shallow cells."""
    deep = (probe.levels > depth) | (probe.symbols == UNDEFINED)
    gaps = []
    run = 0
    for flag in deep:
        if flag:
            if run:
                gaps.append(run)
            run = 0
        else:
            run += 1
    if not gaps:
        return params.periods[0]
    return max(params.periods[0] // 2, (min(gaps) - 1) // 2)


@pytest.mark.parametrize("params,depth", [
    *[(decks.bundled_deck(name).williams, depth)
      for name in ("williams-m2", "williams-m3") for depth in (1, 2, 3)],
    # depth 0 flags every cell, so no run closes and periods[0] is returned
    *[(small_params(), depth) for depth in (0, 1, 2)],
])
def test_max_safe_fiber_radius_matches_scan(params, depth):
    probe = _probe(params)
    assert (max_safe_fiber_radius(probe, depth)
            == _max_safe_fiber_radius_reference(params, probe, depth))
    # a wider patch is scanned over the same probe range; a narrower one is
    # refused, as it would hide the runs that cross its edges
    wide = generate(params, 2 * probe.N)
    assert max_safe_fiber_radius(wide, depth) == max_safe_fiber_radius(probe, depth)
    with pytest.raises(SpecError, match="radius probe"):
        max_safe_fiber_radius(generate(params, probe.N - 1), depth)


def _deck_4_12_36():
    doc = decks.deck_to_config(decks.bundled_deck("williams-m2"))
    doc.update(name="williams-4-12-36", chain=[[4], [12], [36]], offsets="auto",
               williams_periods=[4, 12, 36])
    return decks.deck_from_config(doc)


def test_fiber_census_windows_fit_the_probe_patch():
    """With ratio 3 at step 2 the depth-2 safe radius reaches p_1, the
    widest window that the census's probe patch of radius p_top + p_1 holds;
    its fibers match those read on a wider patch."""
    deck = _deck_4_12_36()
    wp = deck.williams
    census = verify.fiber_census(deck)
    assert census.fiber_radius == wp.periods[0]
    wide = generate(wp, 2 * (wp.periods[-1] + wp.periods[0]))
    residues = [c[-1] for c in census.coords]
    assert census.fibers.tolist() == \
        fiber_scan(wide, 2, residues, census.fiber_radius).counts.tolist()


CENSUS_DECKS = {
    "williams-m2": lambda: decks.bundled_deck("williams-m2"),
    "williams-m3": lambda: decks.bundled_deck("williams-m3"),
    "williams-4-12-36": _deck_4_12_36,
}


def _census_setup(name):
    """The deck's params, the census's probe patch, its fiber radius, the
    census's residues mod p_2 in census order, and the census."""
    deck = CENSUS_DECKS[name]()
    census = verify.fiber_census(deck)
    residues = [c[-1] for c in census.coords]
    return deck.williams, _probe(deck.williams), census.fiber_radius, residues, census


def _scan_outcome(eta, k, residues, radius):
    try:
        scan = fiber_scan(eta, k, residues, radius)
    except SpecError as exc:
        return str(exc)
    return scan.counts.tolist(), scan.aperiodic_cells.tolist(), scan.immature.tolist()


def _reference_census_outcome(wp, eta, residues, radius):
    """``_fiber_patches_reference`` point by point, in census order; the
    first point that fails decides."""
    counts, aper, immature = [], [], []
    for b in residues:
        try:
            patches, info = _fiber_patches_reference(wp, eta, coords_of_int(wp, b, 2), radius)
        except SpecError as exc:
            return str(exc)
        counts.append(len(patches))
        aper.append(info["aperiodic_cells"])
        immature.append(info["immature"])
    return counts, aper, immature


@pytest.mark.parametrize("name", CENSUS_DECKS)
def test_census_rows_match_per_point_fiber_patches(name):
    """Every census point's fiber count and aperiodic cells are what a
    one-residue fiber_scan and the per-point reference read on the
    census's probe patch."""
    wp, eta, radius, _, census = _census_setup(name)
    assert len(census.coords) == wp.periods[1]
    for coords, fibers, aperiodic in zip(census.coords, census.fibers.tolist(),
                                         census.aperiodic.tolist()):
        got = _one_residue(eta, coords, radius)
        assert got == _reference_outcome(wp, eta, coords, radius)
        assert (fibers, aperiodic) == (got[0][0], got[1][0])


@pytest.mark.parametrize("name", ["williams-m2", "dihedral-m2"])
def test_cached_census_columns_are_read_only(name):
    """The census record is shared through its cache, so a write to any of
    its columns raises instead of changing what later readers see."""
    census = verify.fiber_census(decks.bundled_deck(name))
    assert census is verify.fiber_census(decks.bundled_deck(name))
    for column in (census.fibers, census.pieces, census.aperiodic):
        with pytest.raises(ValueError):
            column[0] = 0


@pytest.mark.parametrize("name,module,fn,column", [
    ("williams-m2", williams, "fiber_scan", "counts"),
    ("dihedral-m2", periods, "census", "fibers"),
])
def test_census_refuses_the_first_point_with_an_empty_fiber(name, module, fn, column,
                                                            monkeypatch):
    """An empty fiber would pass any bound, so the census refuses it, naming
    the first such point in census order."""
    deck = decks.bundled_deck(name)
    coords = verify.fiber_census(deck).coords
    real = getattr(module, fn)

    def emptied(*args):
        got = real(*args)
        getattr(got, column)[[5, 3]] = 0
        return got

    monkeypatch.setattr(module, fn, emptied)
    with pytest.raises(SpecError) as exc:
        verify._build_fiber_census(deck, 8)
    assert str(exc.value) == (f"no orbit approximant reaches odometer point {coords[3]} "
                              f"at fiber radius {verify.fiber_census(deck).fiber_radius}")


def test_wide_windows_span_several_keys():
    """A window of 2N + 1 = 51 or 81 offsets over the symbol values -1, 0
    and 1 packs into two or three keys (at most 39 base-3 digits fit below
    2**62); the counts still match the scalar reference."""
    wp = WilliamsParams(2, (64, 192, 576, 1728))
    eta = generate(wp, wp.periods[-1] + 40)
    residues = list(range(0, wp.periods[1], 5))
    for radius in (25, 40):
        got = _scan_outcome(eta, 2, residues, radius)
        assert got == _reference_census_outcome(wp, eta, residues, radius)
        assert not isinstance(got, str) and max(got[0]) > 1


def _read_cells(wp, eta, residue, radius, captured):
    """Patch indices of the captured cells (level 1 or 2), or else of the
    aperiodic ones, that a fully defined approximant of the residue reads,
    one per approximant that has one, in approximant order."""
    out = []
    for g in range(residue % wp.periods[1], wp.periods[-1], wp.periods[1]):
        cells = [g + n + eta.N for n in range(-radius, radius + 1)]
        if all(eta.symbols[i] != UNDEFINED for i in cells):
            out += [i for i in cells if (1 <= eta.levels[i] <= 2) == captured][:1]
    return out


def _corrupted(eta, levels=(), symbols=()):
    """A copy of the patch with the given {index: value} overrides."""
    lv, sy = eta.levels.copy(), eta.symbols.copy()
    for arr, changes in ((lv, levels), (sy, symbols)):
        for i, value in dict(changes).items():
            arr[i] = value
    return ZPatch(eta.params, eta.N, sy, lv)


@pytest.mark.parametrize("name", CENSUS_DECKS)
def test_corrupted_patches_read_the_same_through_the_batch_core(name):
    """Corrupted levels or aperiodic symbols make the batch core raise what
    the scalar reference raises at the first failing point of the census
    order; one corrupted symbol on a captured cell changes the counts the
    same way through both."""
    wp, eta, radius, residues, _ = _census_setup(name)

    def both(patch):
        got = _scan_outcome(patch, 2, residues, radius)
        assert got == _reference_census_outcome(wp, patch, residues, radius)
        return got

    clean = _scan_outcome(eta, 2, residues, radius)
    late, early = residues[-3], residues[1]
    # a captured cell read as aperiodic by a late point of the census order
    undetermined = {_read_cells(wp, eta, late, radius, True)[-1]: wp.depth + 1}
    # an aperiodic cell with a second symbol, read by an early point
    i = _read_cells(wp, eta, early, radius, False)[-1]
    varying = {i: (eta.symbols[i] + 1) % wp.m}
    late_error = both(_corrupted(eta, levels=undetermined))
    early_error = both(_corrupted(eta, symbols=varying))
    assert {late_error, early_error} == {
        "aperiodic part is not determined by the coords",
        "aperiodic part of an approximant is not constant; narrow the window"}
    # the early point decides
    assert both(_corrupted(eta, levels=undetermined, symbols=varying)) == early_error
    # symbols outside the alphabet on captured cells of both points
    got = both(_corrupted(eta, symbols={_read_cells(wp, eta, b, radius, True)[-1]: wp.m
                                        for b in (late, early)}))
    assert not isinstance(got, str) and got[0] != clean[0]


@pytest.mark.parametrize("name", CENSUS_DECKS)
def test_single_point_checks_only_its_own_residue(name):
    """A patch corrupted at one residue refuses that point and the census,
    while a single-point call on a residue whose windows miss the corrupted
    cell reads its clean fiber."""
    wp, eta, radius, residues, _ = _census_setup(name)
    sick, p2 = residues[0], wp.periods[1]
    cell = _read_cells(wp, eta, sick, radius, True)[-1]
    well = next(b for b in residues
                if radius < (cell - eta.N - b) % p2 < p2 - radius)
    bad = _corrupted(eta, levels={cell: wp.depth + 1})
    with pytest.raises(SpecError, match="not determined"):
        fiber_scan(bad, 2, residues, radius)
    with pytest.raises(SpecError, match="not determined"):
        fiber_scan(bad, 2, [sick], radius)
    coords = coords_of_int(wp, well, 2)
    assert _one_residue(bad, coords, radius) == _one_residue(eta, coords, radius)
    assert _reference_outcome(wp, bad, coords, radius) == \
        _reference_outcome(wp, eta, coords, radius)


def _drawn_patch(p1, levels, pad=()):
    """A patch of the 1:3 period pair over the drawn level map (0 =
    Undefined), with the padding cells on both sides."""
    levels = np.array([*pad, *levels, *pad], dtype=np.int16)
    symbols = np.where(levels == 0, UNDEFINED, 1).astype(np.int16)
    return ZPatch(WilliamsParams(2, (p1, 3 * p1)), len(levels) // 2, symbols, levels)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 40).flatmap(lambda p1: st.tuples(
    st.just(p1), st.lists(st.integers(0, 4), min_size=8 * p1 + 1, max_size=8 * p1 + 1))),
    st.integers(0, 3), st.lists(st.integers(0, 4), max_size=20))
@example((3, [1] * 25), 1, [])                     # no deep cell
@example((3, [0] * 25), 2, [])                     # every cell deep
@example((3, [1] * 12 + [0] + [1] * 12), 1, [0])   # two open runs
def test_max_safe_fiber_radius_gap_scan_on_drawn_level_maps(drawn, depth, pad):
    """The bundled probes only ever have runs of one or two shallow cells;
    drawn level maps of the probe range [-4 p_1, 4 p_1] give long runs, open
    runs at both ends and maps with no deep cell.  Cells drawn outside the
    probe range do not count."""
    p1, levels = drawn
    probe = _drawn_patch(p1, levels)
    got = max_safe_fiber_radius(_drawn_patch(p1, levels, pad), depth)
    assert got == _max_safe_fiber_radius_reference(probe.params, probe, depth)
