import random
from dataclasses import replace

import numpy as np
import pytest

from toeplitz_lab import decks
from toeplitz_lab.lattice import SpecError, cube, elt_arrays
from toeplitz_lab.pullback import (
    HomSpec,
    equivariance_check,
    pullback_window,
    section_element,
    section_vector,
    validate_hom,
)
from toeplitz_lab.williams import UNDEFINED, WilliamsParams, generate


def test_validate_hom():
    z2 = decks.bundled_deck("z2-m2").group
    dihedral = decks.bundled_deck("dihedral-m2").group
    swap = decks.bundled_deck("swap-m2").group
    assert validate_hom(HomSpec((1, 0)), z2)[0]
    assert not validate_hom(HomSpec((2, 0)), z2)[0]      # not surjective
    assert not validate_hom(HomSpec((1,)), dihedral)[0]  # w(M_s - I) = -2w
    assert not validate_hom(HomSpec((5,)), dihedral)[0]
    assert validate_hom(HomSpec((1, 1)), swap)[0]
    assert not validate_hom(HomSpec((1, 0)), swap)[0]
    assert not validate_hom(HomSpec((2, 2)), swap)[0]


def test_section():
    for w in ((1,), (1, 1), (3, 5), (4, 7, 9)):
        u = section_vector(HomSpec(w))
        assert sum(a * b for a, b in zip(w, u)) == 1
    with pytest.raises(SpecError):
        section_vector(HomSpec((2, 4)))


def _phi(spec, g):
    """phi(g) = <w, v> for one element g = (v, f)."""
    return sum(a * x for a, x in zip(spec.w, g[0]))


def _pullback(hom, eta, radius, rank=2):
    """pullback_window on the cube of the radius, keyed by lattice part."""
    box = cube(rank, radius)
    return dict(zip(map(tuple, box.tolist()), pullback_window(hom, eta, box).tolist()))


def test_pullback_values():
    eta = generate(WilliamsParams(2, (3, 18, 216)), 300)
    patch = _pullback(HomSpec((1, 1)), eta, 4)
    # the kernel maps to the origin value, whatever the finite part
    assert patch[(2, -2)] == eta.symbol(0)
    # z2 with weight (1, 0): rows constant in the second coordinate
    patch2 = _pullback(HomSpec((1, 0)), eta, 3)
    for a in range(-3, 4):
        vals = {patch2[(a, b)] for b in range(-3, 4)}
        assert len(vals) == 1 and vals == {eta.symbol(a)}


def test_pullback_inherits_periodicity():
    # kernel-direction translates by p_1 preserve the first-level stratum
    hom = HomSpec((1, 0))
    eta = generate(WilliamsParams(2, (3, 18, 216)), 300)
    patch = _pullback(hom, eta, 9)
    for v, sym in patch.items():
        if eta.levels[_phi(hom, (v, 0)) + eta.N] == 1:
            shifted = (v[0] + 3, v[1] - 2)
            if shifted in patch:
                assert patch[shifted] == sym


def _pullback_window_reference(spec, source, v):
    """The scalar read: phi and ZPatch.symbol one element at a time, the
    first element out of reach raising."""
    out = []
    for x in v.tolist():
        n = _phi(spec, (x, 0))
        if abs(n) > source.N:
            raise SpecError(f"window position {tuple(x)} maps outside the source patch")
        s = source.symbol(n)
        out.append(UNDEFINED if s is None else s)
    return out


def test_pullback_window_matches_scalar_reference():
    """One gather equals the scalar read on patches with Undefined cells,
    for windows inside the reach and windows that overrun it."""
    params = WilliamsParams(2, (3, 18, 216))
    patches = (generate(params, 300), generate(params, 12))
    assert (patches[0].symbols == UNDEFINED).any()
    outcomes = set()
    for eta in patches:
        for w, rank in (((1, 1), 2), ((1, 0), 2), ((2, -3), 2), ((1,), 1), ((1, 2, 1), 3)):
            for radius in (2, 4, 9, 13):  # phi reaches N + 1 = 13 at weight (1,)
                v = cube(rank, radius)
                want = _outcome(_pullback_window_reference, HomSpec(w), eta, v)
                got = _outcome(lambda *a: pullback_window(*a).tolist(), HomSpec(w), eta, v)
                assert got == want
                outcomes.add(type(want))
    assert outcomes == {list, str}


def _check_one(spec, group, source, g, window):
    """``equivariance_check`` on a batch of one g: its verdict as a bool."""
    verdicts = equivariance_check(spec, group, source, elt_arrays([g], group.rank), window)
    assert verdicts.shape == (1,)
    return bool(verdicts[0])


def test_equivariance():
    swap = decks.bundled_deck("swap-m2").group
    hom = HomSpec((1, 1))
    eta = generate(WilliamsParams(2, (3, 18, 216)), 800)
    window = [((a, b), f) for a in range(-3, 4) for b in range(-3, 4)
              for f in (0, 1)]
    # kernel elements act trivially on the pullback
    assert _check_one(hom, swap, eta, ((3, -3), 0), window)
    assert _check_one(hom, swap, eta, ((3, 4), 0), window)
    rng = random.Random(2)
    for _ in range(25):
        g = ((rng.randint(-20, 20), rng.randint(-20, 20)), rng.choice((0, 1)))
        assert _check_one(hom, swap, eta, g, window)


def _equivariance_reference(spec, group, source, g, window):
    """The scalar loop: one mul, two phi and two symbol calls per window cell."""
    n0 = _phi(spec, g)
    ginv = group.inv(g)
    for h in window:
        lhs_pos = _phi(spec, group.mul(ginv, h))
        rhs_pos = _phi(spec, h) - n0
        if max(abs(lhs_pos), abs(rhs_pos)) > source.N:
            raise SpecError("window exceeds the source patch reach")
        if source.symbol(lhs_pos) != source.symbol(rhs_pos):
            return False
    return True


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SpecError as exc:
        return f"SpecError: {exc}"


def test_equivariance_matches_scalar_reference():
    # (1, 1) is a homomorphism on swap-m2, so both sides read the same cell
    # and only the reach can fail.  (1, 0) is not: a constant patch with one
    # flipped symbol gives False at the first differing cell, and on the
    # radius-12 patch windows that both differ and overrun come in either order
    swap = decks.bundled_deck("swap-m2").group
    params = WilliamsParams(2, (3, 18, 216))
    eta = generate(params, 300)
    flat = replace(eta, symbols=np.ones_like(eta.symbols))
    flipped = flat.symbols.copy()
    flipped[7 + flat.N] = 2
    patches = (eta, flat, replace(flat, symbols=flipped), generate(params, 12))
    window = [((a, b), f) for a in range(-4, 5) for b in range(-4, 5)
              for f in (0, 1)]
    rng = random.Random(7)
    outcomes = set()
    for _ in range(60):  # 480 draws of g
        for hom in (HomSpec((1, 1)), HomSpec((1, 0))):
            for patch in patches:
                # |phi(g)| up to twice the radius reaches past the patch
                r = patch.N
                g = ((rng.randint(-r, r), rng.randint(-r, r)), rng.choice((0, 1)))
                want = _outcome(_equivariance_reference, hom, swap, patch, g, window)
                assert _outcome(_check_one, hom, swap, patch, g, window) == want
                outcomes.add(want)
    assert outcomes == {True, False, "SpecError: window exceeds the source patch reach"}


def _swap_batch_case():
    """swap-m2, the weight (1, 1), a radius-12 patch and the radius-4
    window: g with |phi(g)| <= 4 stay in reach, larger ones leave it."""
    swap = decks.bundled_deck("swap-m2").group
    window = [((a, b), f) for a in range(-4, 5) for b in range(-4, 5)
              for f in (0, 1)]
    return HomSpec((1, 1)), swap, generate(WilliamsParams(2, (3, 18, 216)), 12), window


def test_equivariance_batch_raises_when_one_g_leaves_the_reach():
    hom, swap, patch, window = _swap_batch_case()
    near = [((1, -1), 0), ((2, 0), 1), ((-3, 1), 0)]
    far = ((20, 3), 1)
    assert _outcome(_equivariance_reference, hom, swap, patch, far, window) == \
        "SpecError: window exceeds the source patch reach"
    for batch in (near + [far], [far] + near, near[:1] + [far] + near[1:]):
        with pytest.raises(SpecError, match="window exceeds the source patch reach"):
            equivariance_check(hom, swap, patch, elt_arrays(batch, 2), window)


def test_equivariance_batch_matches_the_reference_per_g():
    # (1, 0) is not a homomorphism on swap-m2: on a patch with one flipped
    # symbol some g in reach give False, the others True
    hom, swap, patch, window = _swap_batch_case()
    flat = replace(patch, symbols=np.ones_like(patch.symbols))
    flipped = flat.symbols.copy()
    flipped[2 + flat.N] = 2
    rng = random.Random(4)
    for hom, source in ((hom, patch), (HomSpec((1, 0)), replace(flat, symbols=flipped))):
        batch = []
        while len(batch) < 40:
            g = ((rng.randint(-4, 4), rng.randint(-4, 4)), rng.choice((0, 1)))
            if isinstance(_outcome(_equivariance_reference, hom, swap, source, g, window), bool):
                batch.append(g)
        want = [_equivariance_reference(hom, swap, source, g, window) for g in batch]
        got = equivariance_check(hom, swap, source, elt_arrays(batch, 2), window)
        assert got.tolist() == want
    assert set(want) == {True, False}


def test_section_element_identity_part():
    hom = HomSpec((1, 1))
    g = section_element(hom, 5)
    assert g[1] == 0 and _phi(hom, g) == 5
