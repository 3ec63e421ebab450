import dataclasses
import math
import random
import re
from collections import Counter, namedtuple
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_lattice import _group_and_boxes, box_reference, rep_reference
from test_toeplitz import (
    CLASS_DECKS,
    construction_named,
    new_construction,
    shifted_constructions,
)

from toeplitz_lab import decks, measures, periods, verify
from toeplitz_lab.lattice import (
    DomainChain,
    SpecError,
    SubgroupChain,
    Vec,
    box_elements,
    cube,
    decompose_right,
)
from toeplitz_lab.periods import (
    _Batch,
    census,
    per_set_empirical,
    per_set_exact,
)
from toeplitz_lab.toeplitz import Construction, ConstructionError, EtaWindow


def _flat(dom, arr, i):
    """C-order flat index of lattice points in the level-i box (the affine
    formula, so any point gets a number)."""
    p = dom.chain.level(i)
    shifted = arr + np.array(dom.q1[i - 1], dtype=np.int64)
    idx = shifted[..., 0]
    for j in range(1, len(p)):
        idx = idx * p[j] + shifted[..., j]
    return idx


def dihedral():
    return decks.construction(decks.bundled_deck("dihedral-m2"))


def _elt_arrays(elts, rank):
    """Elements as a pair of arrays: lattice parts (n, rank), finite parts (n,)."""
    v = np.array([e[0] for e in elts], dtype=np.int64).reshape(len(elts), rank)
    return v, np.array([e[1] for e in elts], dtype=np.intp)


def _elt_list(arrays):
    v, f = arrays
    return [(tuple(x), int(y)) for x, y in zip(v.tolist(), f.tolist())]


def _code(cons, g, depth):
    """The odometer point of g = (v, f): the reps (rep of v mod Gamma_i, f)
    for i = 1 .. depth, one level at a time."""
    v, f = g
    return tuple((rep_reference(cons.domains, v, i), f) for i in range(1, depth + 1))


def _coords_compatible(cons, coords):
    """Gamma_i t_{i+1} = Gamma_i t_i at every level below the coords depth."""
    spec, chain = cons.group, cons.chain
    for i in range(1, len(coords)):
        v, f = spec.mul(coords[i], spec.inv(coords[i - 1]))
        if f != 0 or any(x % p for x, p in zip(v, chain.level(i))):
            return False  # the step is not in Gamma_i
    return True


def _census_points(counts):
    """The odometer points of a census as tuples of reps, in its order."""
    return [tuple((tuple(v), f) for v in row)
            for row, f in zip(counts.reps.tolist(), counts.fparts.tolist())]


def _batch(cons, points, radius):
    """The census batch of the given points, which reads their deepest reps."""
    reps_v = np.array([c[-1][0] for c in points], dtype=np.int64)
    reps_f = np.array([c[-1][1] for c in points], dtype=np.intp)
    return _Batch(cons, reps_v, reps_f, len(points[0]), radius)


def _point_of(counts, t):
    """The census point whose deepest rep is t."""
    return next(c for c in _census_points(counts) if c[-1] == t)


def test_orbit_coding_examples():
    cons = dihedral()
    assert _point_of(census(cons, 3, 0), cons.group.identity) == (((0,), 0),) * 3
    assert _point_of(census(cons, 2, 0), ((7,), 0)) == (((2,), 0), ((7,), 0))
    assert _point_of(census(cons, 1, 0), ((2,), 1)) == (((2,), 1),)
    assert _code(cons, ((7,), 1), 1) == (((2,), 1),)


def test_coding_matches_decomposition():
    cons = dihedral()
    dom = cons.domains
    points = set(_census_points(census(cons, 4, 0)))
    assert all(_coords_compatible(cons, c) for c in points)
    for v in range(-60, 61, 7):
        for f in (0, 1):
            coords = _code(cons, ((v,), f), 4)
            assert coords in points
            for i in (1, 2, 3, 4):
                _, d, r = decompose_right(dom, ((v,), f), i)
                assert coords[i - 1] == (d, r)


def test_incompatible_coords_detected():
    cons = dihedral()
    bad = (((2,), 0), ((8,), 0))  # 8 is not 2 mod 5
    assert not _coords_compatible(cons, bad)
    assert bad not in _census_points(census(cons, 2, 0))


def _one(elt, rank):
    """A batch of one element: lattice part (1, rank), finite part (1,)."""
    return _elt_arrays([elt], rank)


def _exact_mask(cons, positions, i, alpha):
    """``per_set_exact`` at the given positions as one sample."""
    pv, pf = positions
    return per_set_exact(cons, (pv[None], pf[None]), i, np.array([alpha]))[0]


def test_empirical_per_is_superset_with_interior_equality():
    cons = dihedral()
    win = cons.window(3)
    spec = cons.group
    positions = [(tuple(v), f) for f in range(spec.finite_order)
                 for v in cons.domains.box_coords(3).tolist()]
    arrays = _elt_arrays(positions, spec.rank)
    interior = np.array([abs(g[0][0]) <= 30 for g in positions])
    for i in (1, 2):
        gammas = box_elements(cons.domains.translates(i, 3), 1)
        for alpha in cons.alphabet:
            emp = per_set_empirical(win, _one(spec.identity, 1), gammas, arrays,
                                    np.array([alpha]))[0]
            exact = _exact_mask(cons, arrays, i, alpha)
            assert (emp >= exact).all()
            assert np.array_equal(emp[interior], exact[interior])


@pytest.mark.parametrize("deck_name", decks.BUNDLED)
def test_exact_period_sets_read_no_window_array(deck_name, monkeypatch):
    """``per_set_exact`` reads levels through ``levels_at``: with the level
    arrays and window symbol arrays refused, it still gives the cells of the
    level-3 window of level <= i that read each symbol, per finite part."""
    cons = decks.construction(decks.bundled_deck(deck_name))
    win = cons.window(3)
    F = cons.group.finite_order
    box = cons.domains.box_coords(3)
    want = {(i, alpha): np.stack([(win.levels <= i) & (win.symbol_array(f) == alpha)
                                  for f in range(F)])
            for i in (1, 2, 3) for alpha in cons.alphabet}
    refuse = lambda *a: pytest.fail("a window array was read")
    monkeypatch.setattr(Construction, "level_array", refuse)
    monkeypatch.setattr(EtaWindow, "symbol_array", refuse)
    fparts = np.repeat(np.arange(F)[:, None], len(box), axis=1)
    points = (np.broadcast_to(box, (F,) + box.shape), fparts)
    for (i, alpha), mask in want.items():
        assert np.array_equal(per_set_exact(cons, points, i, np.full(F, alpha)), mask)


def test_constant_patch_is_everywhere_periodic():
    cons = dihedral()
    spec = cons.group
    # level 3 carries alpha_3 = 1 on every finite part: a constant window
    win = EtaWindow(cons, 3, np.full(cons.domains.size(3), 3, dtype=np.int16))
    window = [((v,), f) for v in range(-10, 11) for f in (0, 1)]
    mask = per_set_empirical(win, _one(spec.identity, 1),
                             _elt_arrays([((5,), 0), ((-5,), 0)], 1),
                             _elt_arrays(window, 1), np.array([1]))[0]
    assert {g for g, hit in zip(window, mask) if hit} == set(window)


# -- criterion 11: both sides of the batched check ----------------------------


def _sides(win, shifts, gs, i, alphas, core, translate=True):
    """Both sides of ``verify.check_conjugation`` for samples of level i, as
    masks over the core: the empirical period set of the window read at
    s^-1 g^-1 h, and the exact one at the points s^-1 g^-1 h (at s^-1 h,
    the g^-1 translate dropped, without ``translate``)."""
    spec, cons = win.spec, win.cons
    sinv = spec.inv_arr(*shifts)
    outer = spec.mul_arr(*sinv, *spec.inv_arr(*gs))
    gammas = box_elements(cons.domains.translates(i, i + 1), 1)
    left = per_set_empirical(win, outer, gammas, core, alphas)
    at = outer if translate else sinv
    points = spec.mul_arr(at[0][:, None], at[1][:, None], *core)
    return left, per_set_exact(cons, points, i, alphas)


def _conjugation_one(win, shift, g, i, alpha, core):
    """The batched check on a batch of one sample."""
    rank = win.spec.rank
    left, right = _sides(win, _one(shift, rank), _one(g, rank), i, np.array([alpha]), core)
    return np.array_equal(left, right)


def test_conjugation_identity(monkeypatch):
    cons = dihedral()
    spec = cons.group
    win = cons.window(3)
    core = _elt_arrays([((v,), f) for v in range(-6, 7) for f in (0, 1)], 1)
    gamma_list = _elt_list(box_elements(cons.domains.translates(1, 2), 1))
    e = spec.identity
    assert _conjugation_one(win, e, e, 1, 1, core)
    # flip conjugation fixes the diagonal subgroup, which the check's guard
    # asks of every action matrix
    flip = ((0,), 1)
    conj = {spec.mul(spec.mul(spec.inv(flip), t), flip) for t in gamma_list}
    assert conj == set(gamma_list)
    for alpha in (0, 1, 2):
        assert _conjugation_one(win, e, flip, 1, alpha, core)
    rng = random.Random(5)
    for _ in range(25):
        g = ((rng.randint(-5, 5),), rng.choice((0, 1)))
        assert _conjugation_one(win, e, g, rng.choice((1, 2)), rng.choice(cons.alphabet),
                                core)
    assert verify.check_conjugation("dihedral-m2").passed
    # the swap does not map Gamma_1 = 5Z x 10Z onto itself: refused before
    # any sample is drawn
    swap = decks.bundled_deck("swap-m2")
    chain = SubgroupChain(tuple((p, 2 * q) for p, q in swap.chain.moduli))
    skew = dataclasses.replace(swap, domains=DomainChain.auto(chain))
    monkeypatch.setattr(decks, "bundled_deck", lambda name: skew)
    with pytest.raises(SpecError, match=r"finite part 1 does not map Gamma_1 = \(5, 10\)"):
        verify.check_conjugation("swap-m2")


# -- test-local references: one sample at a time ---------------------------------


def _get_arr(win, v, f):
    """The window read one array at a time: -1 where a cell lies outside."""
    dom = win.cons.domains
    inside = dom.in_box_arr(v, win.N)
    idx = np.where(inside, _flat(dom, v, win.N), 0)
    return np.where(inside, win.cons.symbol_table()[f, win.levels[idx]], -1)


def _shifted_get(spec, get_arr, g):
    """Array accessor of sigma^g x from an array accessor of x."""
    gv, gf = spec.inv(g)
    return lambda v, f: get_arr(*spec.mul_arr(gv, gf, v, f))


def _per_set_reference(spec, get_arr, positions, gammas, alpha):
    """One sample's period-set mask, every read through ``get_arr``."""
    pv, pf = positions
    base = get_arr(pv, pf)
    ok = base == alpha
    iv, i_f = spec.inv_arr(*gammas)
    vals = get_arr(*spec.mul_arr(iv[:, None], i_f[:, None], pv[None], pf[None]))
    return ok & np.all((vals < 0) | (vals == base), axis=0)


def _left_reference(win, shift, g, i, alpha, core):
    """The left side of one sample, read through sigma^g sigma^s eta."""
    spec = win.spec
    x_get = _shifted_get(spec, lambda v, f: _get_arr(win, v, f), shift)
    gammas = box_elements(win.cons.domains.translates(i, i + 1), 1)
    return _per_set_reference(spec, _shifted_get(spec, x_get, g),
                              _elt_arrays(core, spec.rank), gammas, alpha)


def _right_reference(cons, shift, g, i, alpha, core):
    """The right side of one sample: its points s^-1 g^-1 h by the scalar
    group law, their levels through ``levels_at`` and their symbols by
    ``symbol_from_level``."""
    spec = cons.group
    outer = spec.mul(spec.inv(shift), spec.inv(g))
    points = [spec.mul(outer, h) for h in core]
    levels = cons.levels_at(np.array([v for v, _ in points])).tolist()
    return np.array([l <= i and cons.symbol_from_level(l, f) == alpha
                     for l, (_, f) in zip(levels, points)])


def _conjugation_samples(deck_name: str, samples: int, seed: int = 7, spread=(3, 4)):
    """The sampled arguments of ``verify.check_conjugation``, drawn in its
    order: (window, shift of the array, g, level i, alpha, core cells).
    ``spread`` bounds the shift and g coordinates."""
    cons = decks.construction(decks.bundled_deck(deck_name))
    spec = cons.group
    rng = random.Random(seed)
    reach = min(6, cons.domains.q1[1][0])
    core = [(v, f) for v in box_reference(cons.domains, 2)
            if all(abs(x) <= reach for x in v) for f in range(spec.finite_order)]
    for _ in range(samples):
        shift, g = ((tuple(rng.randint(-x, x) for _ in range(spec.rank)),
                     rng.randrange(spec.finite_order)) for x in spread)
        i = rng.choice((1, 2))
        alpha = rng.choice(cons.alphabet)
        yield cons.window(3), shift, g, i, alpha, core


def _arrays(draws):
    """Samples of one level as the arguments of ``_sides``: (window,
    shifts, gs, i, alphas, core)."""
    win, _, _, i, _, core = draws[0]
    rank = win.spec.rank
    shifts = _elt_arrays([d[1] for d in draws], rank)
    gs = _elt_arrays([d[2] for d in draws], rank)
    return win, shifts, gs, i, np.array([d[4] for d in draws]), _elt_arrays(core, rank)


def _by_level(draws):
    """The draws split by their level i, each part in draw order."""
    parts: dict[int, list] = {}
    for d in draws:
        parts.setdefault(d[3], []).append(d)
    return list(parts.values())


def _assert_matches_reference(draws):
    """Both sides of the batched route equal the per-sample references,
    sample by sample; returns how many samples the references pass."""
    left, right = _sides(*_arrays(draws))
    agreed = 0
    for n, (win, shift, g, i, alpha, core) in enumerate(draws):
        ref_left = _left_reference(win, shift, g, i, alpha, core)
        ref_right = _right_reference(win.cons, shift, g, i, alpha, core)
        assert np.array_equal(left[n], ref_left), n
        assert np.array_equal(right[n], ref_right), n
        agreed += np.array_equal(ref_left, ref_right)
    return agreed


@pytest.mark.parametrize("deck_name", decks.BUNDLED)
def test_batched_conjugation_matches_per_sample_reference(deck_name):
    """All samples of ``check_conjugation`` at seeds 1-3, batched, against
    the per-sample references; the check's count is the references'."""
    for seed in (1, 2, 3):
        draws = list(_conjugation_samples(deck_name, 100, seed))
        agreed = sum(_assert_matches_reference(part) for part in _by_level(draws))
        assert verify.check_conjugation(deck_name, seed=seed).details == \
            {"passed": agreed, "samples": 100}


def _scalar_reader(cons, N):
    """eta on the D_N R box one cell at a time as (symbol, level), None
    outside, its levels read through ``Construction.levels_at``."""
    box = cons.domains.box_coords(N)
    levels = cons.levels_at(box).tolist()
    return {(tuple(v), f): (cons.symbol_from_level(l, f), l)
            for f in range(cons.group.finite_order)
            for v, l in zip(box.tolist(), levels)}.get


def _per_set_scalar(spec, patch_get, positions, gammas, alpha):
    """Reference: the period set one position and one translate at a time."""
    out = set()
    inv_gammas = [spec.inv(t) for t in gammas]
    for g in positions:
        base = patch_get(g)
        if base is None or base != alpha:
            continue
        if all(patch_get(spec.mul(ig, g)) in (None, base) for ig in inv_gammas):
            out.add(g)
    return out


@pytest.mark.parametrize("deck_name,samples", [("dihedral-m2", 40), ("swap-m2", 4)])
def test_conjugation_check_matches_scalar_reference(deck_name, samples):
    for win, shift, g, i, alpha, core in _conjugation_samples(deck_name, samples):
        spec, cons = win.spec, win.cons
        sinv, ginv = spec.inv(shift), spec.inv(g)
        eta_at = _scalar_reader(cons, win.N)
        x_scalar = lambda h: (eta_at(spec.mul(sinv, h)) or (None,))[0]
        core_arr = _elt_arrays(core, spec.rank)
        no_gammas = _elt_arrays([], spec.rank)
        # x read at the core: the cells where it reads each symbol
        read = np.full(len(core), -1)
        for sym in cons.alphabet:
            read[per_set_empirical(win, _one(sinv, spec.rank), no_gammas, core_arr,
                                   np.array([sym]))[0]] = sym
        assert read.tolist() == [-1 if x_scalar(h) is None else x_scalar(h) for h in core]
        left, right = _sides(win, _one(shift, spec.rank), _one(g, spec.rank), i,
                             np.array([alpha]), core_arr)
        gammas = _elt_list(box_elements(cons.domains.translates(i, i + 1), 1))
        assert {h for h, hit in zip(core, left[0]) if hit} == _per_set_scalar(
            spec, lambda h: x_scalar(spec.mul(ginv, h)), core, gammas, alpha)
        # the points s^-1 g^-1 h stay inside the box the reader covers
        at = [eta_at(spec.mul(sinv, spec.mul(ginv, h))) for h in core]
        assert None not in at
        assert {h for h, hit in zip(core, right[0]) if hit} == \
            {h for h, (sym, level) in zip(core, at) if sym == alpha and level <= i}


@pytest.mark.parametrize("deck_name", ["z2-m2", "swap-m2"])
def test_conjugation_check_detects_a_dropped_core_translate(deck_name):
    """The check is not vacuous: reading the exact side at s^-1 h instead of
    at its g^-1 translate s^-1 g^-1 h fails on some samples."""
    broken_fails = 0
    for part in _by_level(list(_conjugation_samples(deck_name, 60))):
        args = _arrays(part)
        left, right = _sides(*args)
        assert np.array_equal(left, right)
        _, untranslated = _sides(*args, translate=False)
        broken_fails += int(np.any(left != untranslated, axis=1).sum())
    assert broken_fails > 0


@pytest.mark.parametrize("deck_name", verify.GROUP_DECKS)
def test_conjugation_check_fails_on_a_corrupted_window(deck_name, monkeypatch):
    """The check sees eta: in a level-3 window whose Gamma_1 cells within 6
    of the origin, the origin excluded, read level 2, samples fail on every
    bundled deck, while the stratification keeps the right side."""
    real = Construction.window

    def corrupted(self, N):
        win = real(self, N)
        box = self.domains.box_coords(N)
        reach = np.abs(box).max(axis=1)
        hit = np.all(box % np.array(self.chain.level(1)) == 0, axis=1) & \
            (reach > 0) & (reach <= 6)
        return EtaWindow(self, N, np.where(hit, np.int16(2), win.levels))

    assert verify.check_conjugation(deck_name).passed
    monkeypatch.setattr(Construction, "window", corrupted)
    result = verify.check_conjugation(deck_name)
    assert not result.passed and result.details["passed"] < result.details["samples"]


@pytest.mark.parametrize("deck_name", ["z2-m2", "swap-m2"])
def test_conjugation_reads_one_symbol_box_per_call(deck_name, monkeypatch):
    """1, 7, 100 and 200 samples of one level under both Gamma_1 and
    Gamma_2: the empirical side reads the window through one symbol box per
    call, whatever the sample count, and every mask still equals the
    per-sample reference."""
    draws = list(_conjugation_samples(deck_name, 500))
    boxes = []
    real = EtaWindow.symbol_box
    monkeypatch.setattr(EtaWindow, "symbol_box",
                        lambda self, low, high: boxes.append(1) or real(self, low, high))
    parts = _by_level(draws)
    assert len(parts) == 2
    for part in parts:
        assert len(part) >= 200
        for count in (1, 7, 100, 200):
            boxes.clear()
            _assert_matches_reference(part[:count])
            assert len(boxes) == 1, count


@pytest.mark.parametrize("deck_name", ["dihedral-m2", "swap-m2", "williams-m2"])
def test_empirical_period_sets_under_uneven_translates(deck_name):
    """Translate sets that are not closed under inverses, so a read at
    w + M_f gamma instead of w - M_f gamma shows, and samples of every finite
    part near the window's edge and past it: each mask equals the per-sample
    reference."""
    cons = decks.construction(decks.bundled_deck(deck_name))
    spec, win = cons.group, cons.window(2)
    rng = np.random.default_rng(3)
    p = np.array(cons.chain.level(1))
    core = box_elements(cube(spec.rank, 3), spec.finite_order)
    edge = np.array(cons.domains.q2(2))
    hits = 0
    for _ in range(6):
        gv = rng.integers(-2, 4, size=(rng.integers(1, 4), spec.rank)) * p
        gammas = (gv, np.zeros(len(gv), dtype=np.intp))
        ov = rng.integers(-edge - 4, edge + 4, size=(12, spec.rank))
        of = rng.integers(0, spec.finite_order, size=12)
        alphas = rng.choice(cons.alphabet, size=12)
        mask = per_set_empirical(win, (ov, of), gammas, core, alphas)
        hits += int(mask.sum())
        for s in range(12):
            # x_s(v, f) = eta(a_s (v, f))
            x_get = lambda v, f, s=s: _get_arr(win, *spec.mul_arr(ov[s], of[s], v, f))
            assert np.array_equal(mask[s], _per_set_reference(spec, x_get, core, gammas,
                                                              alphas[s])), s
    assert hits > 0


def test_empirical_period_sets_refuse_a_finite_part():
    cons = dihedral()
    gammas = _elt_arrays([((5,), 0), ((10,), 1)], 1)
    with pytest.raises(SpecError, match=r"gamma \(10,\) has finite part 1"):
        per_set_empirical(cons.window(3), _one(cons.group.identity, 1), gammas,
                          _elt_arrays([((0,), 0)], 1), np.array([1]))


@pytest.mark.parametrize("deck_name", decks.BUNDLED)
def test_conjugation_reads_far_elements_as_unreadable(deck_name):
    """Shift and g coordinates up to 200, where most reads leave the
    window: they read -1, never a wrapped row, so the masks equal the
    per-sample reference."""
    draws = list(_conjugation_samples(deck_name, 30, seed=11, spread=(200, 200)))
    for part in _by_level(draws):
        _assert_matches_reference(part)
    win, _, _, i, _, core = draws[0]
    spec = win.spec
    far = _elt_arrays([((300,) * spec.rank, 0)] * len(win.cons.alphabet), spec.rank)
    gammas = box_elements(win.cons.domains.translates(i, i + 1), 1)
    mask = per_set_empirical(win, far, gammas, _elt_arrays(core, spec.rank),
                             np.array(win.cons.alphabet))
    assert not mask.any()


@pytest.mark.parametrize("deck_name", decks.BUNDLED)
def test_subgroup_elements_match_member_scan(deck_name):
    """Direct enumeration of the lattice multiples against the scan of the
    whole level box by a modulus check, order included, for every
    (i, level >= i) whose box has at most 20,000 cells."""
    cons = decks.construction(decks.bundled_deck(deck_name))
    dom = cons.domains
    for level in range(1, cons.depth + 1):
        if dom.size(level) > 20_000:
            break
        for i in range(1, level + 1):
            p = cons.chain.level(i)
            scan = [(v, 0) for v in box_reference(dom, level)
                    if all(x % q == 0 for x, q in zip(v, p))]
            v, f = box_elements(cons.domains.translates(i, level), 1)
            assert v.shape == (len(scan), cons.group.rank) and f.shape == (len(scan),)
            assert _elt_list((v, f)) == scan


def _aperiodic_cells(cons, coords, radius):
    """The aperiodic window cells (u, f) of one point, from its batch of
    one: the flags over the lattice box repeat once per finite part."""
    batch = _batch(cons, [coords], radius)
    box = [tuple(u) for u in cube(cons.group.rank, radius).tolist()]
    return {(u, f) for f in range(cons.group.finite_order)
            for u, a in zip(box, batch.aperiodic[0].tolist()) if a}


def test_aperiodic_positions():
    cons = dihedral()
    # the array's own coords: a window near the origin is fully captured
    toeplitz = _code(cons, cons.group.identity, 4)
    assert _aperiodic_cells(cons, toeplitz, 5) == set()
    # generic coords: aperiodic part is the translated deep-level set
    coords = _code(cons, ((13,), 0), 2)
    aper = _aperiodic_cells(cons, coords, 6)
    spec = cons.group
    t2 = coords[1]
    for w in [((v,), f) for v in range(-6, 7) for f in (0, 1)]:
        pos = spec.mul(t2, w)
        deep = cons.levels_at(np.array([pos[0]]))[0] > 2
        assert (w in aper) == deep
    # the aperiodic part only shrinks with depth
    deeper = _aperiodic_cells(cons, _code(cons, ((13,), 0), 4), 6)
    assert deeper <= aper


def test_tower_pieces_single_piece_near_origin():
    cons = dihedral()
    coords = _code(cons, cons.group.identity, 3)
    counts = census(cons, 3, 10)
    assert counts.pieces[_census_points(counts).index(coords)] == 1
    batch = _batch(cons, [coords], 10)
    assert batch.units(0, np.unique(batch.code[0])).tolist() == [[0]]


def test_tower_pieces_cover_and_disjoint():
    cons = dihedral()
    counts = census(cons, 2, 8)
    points = _census_points(counts)
    for v in (3, 9, 24):
        coords = _code(cons, ((v,), 1), 2)
        pieces = _tower_pieces_reference(cons, coords, 8)
        cells = [i for p in pieces for i in p.cells]
        assert sorted(cells) == list(range(17 * 2))
        assert counts.pieces[points.index(coords)] == len(pieces) <= 2 ** 1 * 2


def test_fiber_of_toeplitz_coords_is_singleton():
    # deep enough coords capture the whole window, leaving no freedom
    cons = dihedral()
    coords = _code(cons, cons.group.identity, 4)
    assert _aperiodic_cells(cons, coords, 5) == set()
    counts = census(cons, 4, 5, 5)
    i = _census_points(counts).index(coords)
    assert counts.fibers[i] == 1 and counts.aperiodic_pieces[i] == 0
    assert counts.approximants[i] > 0


# -- slow references for the fiber census ---------------------------------------


def _window_reference(cons, coords, radius):
    """The window cells B(0, radius) R in canonical order, and per cell the
    lattice part, finite part and stratum of t_K w, one group product at a
    time, the strata read off the reps modulo Gamma_K by ``levels_at``."""
    spec, K = cons.group, len(coords)
    cells = [(u, f) for f in range(spec.finite_order)
             for u in product(range(-radius, radius + 1), repeat=spec.rank)]
    moved = [spec.mul(coords[K - 1], w) for w in cells]
    pos = np.array([v for v, _ in moved], dtype=np.int64)
    fparts = np.array([f for _, f in moved])
    levels = cons.levels_at(np.array([rep_reference(cons.domains, v, K) for v, _ in moved]))
    return cells, pos, fparts, levels


def _enumerate_fiber_reference(cons, coords, radius, oracle):
    """The census of one point, one approximant and one cell at a time:
    approximants from a membership and containment scan of the whole oracle
    box, symbols through ``symbol_from_level`` per cell, piece constants by
    set comprehension.  Returns its counts by ``Census`` field."""
    dom, K = cons.domains, len(coords)
    cells, pos, fparts, levels = _window_reference(cons, coords, radius)
    aper = levels > K

    gamma_top = pos - dom.rep_arr(pos, K)
    keys = [tuple(row) for row in gamma_top.tolist()]
    piece_ids = sorted(set(keys))
    piece_of = {k: i for i, k in enumerate(piece_ids)}
    cell_piece = np.array([piece_of[k] for k in keys])
    aper_pieces = sorted({int(cell_piece[i]) for i in np.nonzero(aper)[0]})

    box = dom.box_coords(oracle.N)
    member = np.all(box % np.array(cons.chain.level(K)) == 0, axis=1)
    safe = (dom.in_box_arr(box + pos.min(axis=0), oracle.N)
            & dom.in_box_arr(box + pos.max(axis=0), oracle.N))
    gammas = box[member & safe]

    piece_cells = {pid: np.nonzero((cell_piece == pid) & aper)[0] for pid in aper_pieces}
    realized = set()
    for gv in gammas:
        lvls = oracle.levels[_flat(dom, pos + gv, oracle.N)]
        consts = []
        for pid in aper_pieces:
            syms = {cons.symbol_from_level(int(lvls[i]), int(fparts[i]))
                    for i in piece_cells[pid]}
            if len(syms) != 1:
                raise SpecError("approximant not constant on a tower piece")
            consts.append(syms.pop())
        realized.add(tuple(consts))
    return {"pieces": len(piece_ids), "aperiodic_pieces": len(aper_pieces),
            "fibers": len(realized), "approximants": len(gammas)}


Piece = namedtuple("Piece", "top_gamma stage_gammas cells aperiodic_cells")


def _tower_pieces_reference(cons, coords, radius):
    """Tower pieces through per-cell dictionaries and set comprehensions:
    the stage-j translates of every window cell, j = 1 .. K, checked to
    merge upward and grouped by the deepest one.  Cells are indices into
    the window cells of ``_window_reference``."""
    cells, _, _, levels = _window_reference(cons, coords, radius)
    ucoords = np.array([v for v, _ in cells])
    stage_gammas = []
    for j, (dj, fj) in enumerate(coords, start=1):
        pos_j = ucoords @ np.array(cons.group.action[fj]).T + np.array(dj)
        stage_gammas.append(pos_j - cons.domains.rep_arr(pos_j, j))
    for lo, hi in zip(stage_gammas, stage_gammas[1:]):
        seen: dict[Vec, Vec] = {}
        for a, b in zip(map(tuple, lo.tolist()), map(tuple, hi.tolist())):
            if seen.setdefault(a, b) != b:
                raise SpecError("tower translates do not merge consistently")
    groups: dict[Vec, list[int]] = {}
    for idx, key in enumerate(map(tuple, stage_gammas[-1].tolist())):
        groups.setdefault(key, []).append(idx)
    aper = levels > len(coords)
    return [Piece(key,
                  tuple(tuple(sorted({tuple(st[i].tolist()) for i in cells}))
                        for st in stage_gammas),
                  tuple(cells), tuple(i for i in cells if aper[i]))
            for key, cells in sorted(groups.items())]


@pytest.mark.parametrize("deck_name,stride", [("z2-m2", 16), ("dihedral-m2", 1),
                                              ("swap-m2", 31)])
@pytest.mark.parametrize("radius", [5, 8])
def test_census_matches_scalar_reference(deck_name, stride, radius):
    cons = decks.construction(decks.bundled_deck(deck_name))
    win = cons.window(3)
    counts = census(cons, 2, radius, 3)
    points = _census_points(counts)
    for i in range(0, len(points), stride):
        coords = points[i]
        want = _enumerate_fiber_reference(cons, coords, radius, win)
        assert {key: int(getattr(counts, key)[i]) for key in want} == want
        pieces = _tower_pieces_reference(cons, coords, radius)
        assert len(pieces) == want["pieces"]
        assert sum(1 for p in pieces if p.aperiodic_cells) == want["aperiodic_pieces"]
        cells = _window_reference(cons, coords, radius)[0]
        assert _aperiodic_cells(cons, coords, radius) == \
            {cells[j] for p in pieces for j in p.aperiodic_cells}


def _all_coords_reference(cons, depth):
    """Every point coded one group element at a time, then sorted by finite
    part and lattice coordinates."""
    out = [_code(cons, (v, f), depth)
           for v in box_reference(cons.domains, depth)
           for f in range(cons.group.finite_order)]
    return sorted(out, key=lambda c: (c[-1][1],) + c[-1][0])


@pytest.mark.parametrize("deck_name", decks.BUNDLED)
def test_all_coords_match_scalar_coding(deck_name):
    cons = decks.construction(decks.bundled_deck(deck_name))
    for depth in (1, 2):
        counts = census(cons, depth, 2)
        assert counts.reps.shape == (len(counts.fparts), depth, cons.group.rank)
        assert _census_points(counts) == _all_coords_reference(cons, depth)


def test_depth3_census_of_z2():
    """The z2-m2 census at depth 3, window(4), radius 8, through the batched
    core (15,625 points, many batches)."""
    cons = decks.construction(decks.bundled_deck("z2-m2"))
    counts = census(cons, 3, 8, 4)
    assert dict(Counter(counts.fibers.tolist())) == {1: 81, 2: 11800, 3: 3488, 5: 256}
    assert dict(Counter(counts.pieces.tolist())) == {1: 11881, 2: 3488, 4: 256}
    assert counts.approximants.min() > 0


# -- the grouped census -----------------------------------------------------------


def _fiber_rows_reference(batch, N, table):
    """The fiber rows of every point of a batch, one approximant grid per
    batch and no grouping: the census's per-point evaluation before it
    grouped its points by fiber key.  Returns the fiber count and the
    number of approximants of each point."""
    cons, K = batch.cons, batch.depth
    dom = cons.domains
    p = np.array(cons.chain.level(K))
    n = len(batch.code)
    pt, code = np.nonzero(batch.pieces(batch.aperiodic))
    count = np.bincount(pt, minlength=n)
    slot = np.arange(len(pt)) - (np.cumsum(count) - count)[pt]
    a, b = np.array(dom.low(N)), np.array(dom.q2(N))
    blocks = np.zeros((n, int(count.max(initial=0)), len(p)), dtype=np.int64)
    blocks[pt, slot] = batch.units(pt, code) + (a - np.array(dom.low(K))) // p
    real = np.zeros(blocks.shape[:2], dtype=bool)
    real[pt, slot] = True

    low = np.stack([x.min(axis=1) for x in batch.pos], axis=-1)
    high = np.stack([x.max(axis=1) for x in batch.pos], axis=-1)
    first = -(np.minimum(a, a + low) // p)
    last = (np.minimum(b, b - high) - 1) // p
    grid = np.array(list(product(*(range(lo, hi + 1) for lo, hi in
                                   zip(first.min(axis=0), last.max(axis=0))))),
                    dtype=np.int64).reshape(-1, len(p))
    valid = np.all((grid >= first[:, None]) & (grid <= last[:, None]), axis=-1)

    nb = np.array(cons.chain.level(N)) // p
    at = np.clip(blocks[:, None] + grid[None, :, None], 0, nb - 1)
    flat = np.ravel_multi_index(tuple(np.moveaxis(at, -1, 0)), tuple(nb))
    syms = np.where(real[:, None], table[flat], 0)
    fibers = [len({tuple(row) for row in syms[i][valid[i]].tolist()}) for i in range(n)]
    return np.array(fibers, dtype=np.int64), valid.sum(axis=1)


def _per_point_census(cons, depth, radius, N, step=2_000):
    """Every census column, each point evaluated on its own: the pieces and
    aperiodic pieces of its window and ``_fiber_rows_reference``."""
    counts = census(cons, depth, radius)
    table = cons.symbol_table()[0][measures.class_levels(cons, depth, N)]
    cols = []
    for lo in range(0, len(counts.fparts), step):
        batch = _Batch(cons, counts.reps[lo:lo + step, -1], counts.fparts[lo:lo + step],
                       depth, radius)
        cols.append((batch.pieces().sum(axis=1), batch.pieces(batch.aperiodic).sum(axis=1),
                     *_fiber_rows_reference(batch, N, table)))
    return counts, [np.concatenate(col) for col in zip(*cols)]


def _assert_census_matches_per_point(cons, depth, radius, N):
    counts, (pieces, aperiodic, fibers, approximants) = _per_point_census(cons, depth, radius, N)
    got = census(cons, depth, radius, N)
    assert np.array_equal(got.reps, counts.reps) and np.array_equal(got.fparts, counts.fparts)
    for name, want in (("pieces", pieces), ("aperiodic_pieces", aperiodic),
                       ("fibers", fibers), ("approximants", approximants)):
        assert np.array_equal(getattr(got, name), want), (depth, radius, N, name)
    # points of one group share both counts
    pairs = set(zip(fibers.tolist(), approximants.tolist()))
    assert len(pairs) <= got.groups <= len(fibers)
    assert counts.fibers is counts.approximants is counts.groups is None


@pytest.mark.parametrize("deck_name", ["z2-m2", "swap-m2", "dihedral-m2"])
@pytest.mark.parametrize("depth,N", [(2, 3), (2, 4), (3, 4)])
@pytest.mark.parametrize("radius", [0, 5, 8])
def test_grouped_census_matches_per_point_evaluation(deck_name, depth, N, radius):
    """Grouping the points by fiber key changes no column: every point's
    fiber count and approximants equal its own evaluation."""
    _assert_census_matches_per_point(construction_named(deck_name), depth, radius, N)


@pytest.mark.parametrize("name", ["dihedral-off-centre", "swap-off-centre"])
@pytest.mark.parametrize("depth,N", [(2, 2), (2, 3), (3, 3)])
def test_grouped_census_matches_per_point_evaluation_off_centre(name, depth, N):
    """On off-centre boxes a window piece may hold no aperiodic cell, so two
    points with the same aperiodic blocks can differ in approximant range:
    the fiber key needs both."""
    group, dom = _group_and_boxes(name)
    cons = Construction(group, dom, 2)
    for radius in (0, 1, 2, 5, 8):
        _assert_census_matches_per_point(cons, depth, radius, N)


@settings(max_examples=30, deadline=None)
@given(shifted_constructions(), st.integers(0, 3))
def test_grouped_census_matches_per_point_evaluation_on_shifted_chains(cons, radius):
    """On off-centre chains of rank 1-3 and depth 2-3, at every K <= N whose
    D_N box has at most 20,000 cells."""
    for K, N in _table_pairs(cons, 20_000):
        if K >= 2:
            _assert_census_matches_per_point(cons, K, radius, N)


@pytest.mark.parametrize("deck_name,depth,Ns,groups", [
    ("z2-m2", 2, (3, 4, 5), 9),
    ("z2-m2", 3, (4, 5), 10),
    ("swap-m2", 2, (3, 4, 5), 9),
    ("dihedral-m2", 2, (3, 4, 5), 3),
])
def test_census_evaluates_one_fiber_per_group(deck_name, depth, Ns, groups):
    """The number of distinct fiber keys at radius 8, a deterministic count of
    the census's fiber work; without an oracle level there is none."""
    cons = construction_named(deck_name)
    for N in Ns:
        assert census(cons, depth, 8, N).groups == groups, N
    assert census(cons, depth, 8).groups is None


@pytest.mark.parametrize("deck_name,depth,hist", [
    ("z2-m2", 2, {2: 81, 4: 288, 14: 256}),
    ("swap-m2", 2, {2: 162, 4: 576, 14: 512}),
    ("z2-m2", 3, {1: 81, 2: 11800, 4: 3488, 14: 256}),
])
def test_census_on_the_level_5_window(deck_name, depth, hist):
    """The fiber histograms at radius 8 inside the D_5 box, the deepest the
    rank-2 decks hold."""
    counts = census(construction_named(deck_name), depth, 8, 5)
    assert dict(Counter(counts.fibers.tolist())) == hist
    assert counts.approximants.min() > 0


def test_incompatible_coords_do_not_merge():
    """t_1 = 0 is not t_2 = (12, 0) mod Gamma_1, so a stage-1 translate of
    the window straddles the stage-2 boundary at u_1 = 1.  The census never
    builds such a point, and its batches read t_K alone (see
    ``test_single_stage_pieces_match_the_merging_reference``)."""
    cons = decks.construction(decks.bundled_deck("z2-m2"))
    bad = (((0, 0), 0), ((12, 0), 0))
    assert not _coords_compatible(cons, bad)
    assert bad not in _census_points(census(cons, 2, 0))
    with pytest.raises(SpecError, match="tower translates do not merge consistently"):
        _tower_pieces_reference(cons, bad, 8)


@settings(max_examples=30, deadline=None)
@given(shifted_constructions(), st.integers(1, 3), st.randoms(use_true_random=False))
def test_single_stage_pieces_match_the_merging_reference(cons, radius, rnd):
    """On off-centre chains of rank 1-3 and depth 2-3, the census reads the
    pieces off stage K alone.  They equal the pieces of the reference, which
    builds every stage 1 .. K and raises if a stage-j translate of the window
    straddles two stage-(j+1) translates: the translates, their number and
    the number that hold an aperiodic cell, on up to 6 points per depth of
    every census of at most 20,000 points."""
    for depth in range(2, cons.depth + 1):
        if cons.domains.size(depth) > 20_000:
            break
        counts = census(cons, depth, radius)
        points = _census_points(counts)
        p = np.array(cons.chain.level(depth))
        for i in sorted(rnd.sample(range(len(points)), min(6, len(points)))):
            pieces = _tower_pieces_reference(cons, points[i], radius)
            assert counts.pieces[i] == len(pieces)
            assert counts.aperiodic_pieces[i] == sum(1 for q in pieces if q.aperiodic_cells)
            batch = _batch(cons, [points[i]], radius)
            units = batch.units(0, np.unique(batch.code[0]))
            assert [tuple(v) for v in (units * p).tolist()] == [q.top_gamma for q in pieces]


def _translate_table_reference(cons, K, oracle):
    """The table the fiber census once built for itself, kept as the
    reference for the class table it reads now: for each Gamma_K translate of
    D_K inside the oracle box, in lexicographic order, the symbol the oracle
    reads on its level-K fresh cells x R, or -1 where that is not constant."""
    p, P = cons.chain.level(K), cons.chain.level(oracle.N)
    rank = len(p)
    blocks = oracle.levels.reshape([x for a, b in zip(p, P) for x in (b // a, a)]).transpose(
        tuple(range(0, 2 * rank, 2)) + tuple(range(1, 2 * rank, 2)))
    levels = blocks[..., cons.fresh_bool(K).reshape(p)].reshape(
        math.prod(blocks.shape[:rank]), -1)
    syms = cons.symbol_table()[:, levels].transpose(1, 0, 2).reshape(len(levels), -1)
    return np.where(np.all(syms == syms[:, :1], axis=1), syms[:, 0], -1)


def _census_table(cons, K, N):
    """The table ``census`` hands its fiber evaluation at depth K and oracle
    level N, caught on its way into ``periods._fiber_counts`` (radius 0)."""
    seen = []
    real = periods._fiber_counts

    def spy(cons, depth, level, table, keys):
        seen.append(table)
        return real(cons, depth, level, table, keys)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(periods, "_fiber_counts", spy)
        census(cons, K, 0, N)
    assert seen and all(t is seen[0] for t in seen)
    return seen[0]


def _table_pairs(cons, cells=1_000_000):
    """Every (K, N), K <= N, whose D_N box has at most ``cells`` cells x R."""
    F = cons.group.finite_order
    return [(K, N) for N in range(1, cons.depth + 1)
            if cons.domains.size(N) * F <= cells for K in range(1, N + 1)]


def _member_scan(cons, K, N):
    """The Gamma_K elements of the D_N box by a modulus check of every cell."""
    box = cons.domains.box_coords(N)
    return box[np.all(box % np.array(cons.chain.level(K)) == 0, axis=1)]


@pytest.mark.parametrize("deck_name", CLASS_DECKS)
def test_census_table_matches_the_translate_reference(deck_name):
    """The census reads the measures' class table mapped to symbols; on
    every (K, N) that fits it equals the table the census once built from
    the oracle window, and the translates are the members of the box."""
    cons = construction_named(deck_name)
    for K, N in _table_pairs(cons):
        table = _census_table(cons, K, N)
        want = _translate_table_reference(cons, K, cons.window(N))
        assert table.dtype == want.dtype and np.array_equal(table, want), (K, N)
        assert np.array_equal(cons.domains.translates(K, N), _member_scan(cons, K, N))


@settings(max_examples=30, deadline=None)
@given(shifted_constructions())
def test_census_table_and_translates_on_shifted_chains(cons):
    """On off-centre chains of rank 1-3 and depth 2-3 the census table equals
    the reference and ``DomainChain.translates`` the membership scan of the
    D_N box, at every K <= N."""
    for K, N in _table_pairs(cons, 20_000):
        assert np.array_equal(_census_table(cons, K, N),
                              _translate_table_reference(cons, K, cons.window(N))), (K, N)
        assert np.array_equal(cons.domains.translates(K, N), _member_scan(cons, K, N))


def test_census_at_the_depth_of_its_points():
    """At N = K the table is the one class D_K, at level K + 1, so the only
    approximant is gamma = 0, and only for the points whose window fits in
    the D_K box."""
    cons = decks.construction(decks.bundled_deck("z2-m2"))
    counts = census(cons, 2, 2, 2)
    assert dict(Counter(counts.fibers.tolist())) == {0: 184, 1: 441}
    assert np.array_equal(counts.approximants, counts.fibers)


def test_corrupted_oracle_is_not_constant_on_a_piece(monkeypatch):
    cons = new_construction(decks.bundled_deck("z2-m2"))
    counts = census(cons, 2, 8, 3)
    for i, coords in enumerate(_census_points(counts)):
        _, pos, _, levels = _window_reference(cons, coords, 8)
        aper = levels > len(coords)
        pieces = [p for p in _tower_pieces_reference(cons, coords, 8)
                  if len(p.aperiodic_cells) >= 2]
        if pieces:
            break
    first, second = pieces[0].aperiodic_cells[:2]
    assert aper[first] and aper[second]
    assert counts.approximants[i] > 0
    # flip the level read at the second cell for every approximant, so that
    # its symbol leaves the piece constant of the first cell
    levels = cons.level_array(3).copy()
    period = np.array(cons.chain.level(2))
    dom = cons.domains
    box = dom.box_coords(3)
    gammas = box[np.all(box % period == 0, axis=1)]
    spots = pos[second] + gammas
    spots = spots[dom.in_box_arr(spots, 3)]
    idx = _flat(dom, spots, 3)
    levels[idx] = np.where(levels[idx] > 3, levels[idx] - 1, levels[idx] + 1)
    real = cons.level_array
    monkeypatch.setattr(cons, "level_array", lambda N: levels if N == 3 else real(N))
    bad = cons.window(3)
    with pytest.raises(SpecError, match="not constant on a tower piece"):
        _enumerate_fiber_reference(cons, coords, 8, bad)
    # the census refuses the first translate in lex order that the
    # reference table cannot give one symbol
    table = _translate_table_reference(cons, 2, bad)
    gamma = tuple(dom.translates(2, 3)[int(np.argmax(table < 0))].tolist())
    with pytest.raises(ConstructionError, match=re.escape(f"gamma={gamma} ")):
        census(cons, 2, 8, 3)


def test_oracle_shallower_than_the_points_is_refused():
    cons = dihedral()
    with pytest.raises(SpecError, match="shallower"):
        census(cons, 4, 5, 3)
