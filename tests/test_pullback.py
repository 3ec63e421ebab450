import random
from dataclasses import replace

import numpy as np
import pytest

from toeplitz_lab import decks
from toeplitz_lab.lattice import SpecError, cube, elt_arrays
from toeplitz_lab.pullback import (
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
    assert validate_hom((1, 0), z2)[0]
    assert not validate_hom((2, 0), z2)[0]      # not surjective
    assert not validate_hom((1,), dihedral)[0]  # w(M_s - I) = -2w
    assert not validate_hom((5,), dihedral)[0]
    assert validate_hom((1, 1), swap)[0]
    assert not validate_hom((1, 0), swap)[0]
    assert not validate_hom((2, 2), swap)[0]


def test_section():
    for w in ((1,), (1, 1), (3, 5), (4, 7, 9)):
        u = section_vector(w)
        assert sum(a * b for a, b in zip(w, u)) == 1
    with pytest.raises(SpecError):
        section_vector((2, 4))


def _phi(w, g):
    """phi(g) = <w, v> for one element g = (v, f)."""
    return sum(a * x for a, x in zip(w, g[0]))


def _pullback(w, eta, radius, rank=2):
    """pullback_window on the cube of the radius, keyed by lattice part."""
    box = cube(rank, radius)
    return dict(zip(map(tuple, box.tolist()), pullback_window(w, eta, box).tolist()))


def test_pullback_values():
    eta = generate(WilliamsParams(2, (3, 18, 216)), 300)
    patch = _pullback((1, 1), eta, 4)
    # the kernel maps to the origin value, whatever the finite part
    assert patch[(2, -2)] == eta.symbol(0)
    # z2 with weight (1, 0): rows constant in the second coordinate
    patch2 = _pullback((1, 0), eta, 3)
    for a in range(-3, 4):
        vals = {patch2[(a, b)] for b in range(-3, 4)}
        assert len(vals) == 1 and vals == {eta.symbol(a)}


def test_pullback_inherits_periodicity():
    # kernel-direction translates by p_1 preserve the first-level stratum
    w = (1, 0)
    eta = generate(WilliamsParams(2, (3, 18, 216)), 300)
    patch = _pullback(w, eta, 9)
    for v, sym in patch.items():
        if eta.levels[_phi(w, (v, 0)) + eta.N] == 1:
            shifted = (v[0] + 3, v[1] - 2)
            if shifted in patch:
                assert patch[shifted] == sym


def _pullback_window_reference(w, source, v):
    """The scalar read: phi and ZPatch.symbol one element at a time, the
    first element out of reach raising."""
    out = []
    for x in v.tolist():
        n = _phi(w, (x, 0))
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
                want = _outcome(_pullback_window_reference, w, eta, v)
                got = _outcome(lambda *a: pullback_window(*a).tolist(), w, eta, v)
                assert got == want
                outcomes.add(type(want))
    assert outcomes == {list, str}


def _check_one(w, group, source, g, window):
    """``equivariance_check`` on a batch of one g and the window list: its
    verdict as a bool."""
    verdicts = equivariance_check(w, group, source, elt_arrays([g], group.rank),
                                  elt_arrays(window, group.rank))
    assert verdicts.shape == (1,)
    return bool(verdicts[0])


def test_equivariance():
    swap = decks.bundled_deck("swap-m2").group
    w = (1, 1)
    eta = generate(WilliamsParams(2, (3, 18, 216)), 800)
    window = [((a, b), f) for a in range(-3, 4) for b in range(-3, 4)
              for f in (0, 1)]
    # kernel elements act trivially on the pullback
    assert _check_one(w, swap, eta, ((3, -3), 0), window)
    assert _check_one(w, swap, eta, ((3, 4), 0), window)
    rng = random.Random(2)
    for _ in range(25):
        g = ((rng.randint(-20, 20), rng.randint(-20, 20)), rng.choice((0, 1)))
        assert _check_one(w, swap, eta, g, window)


def _equivariance_reference(w, group, source, g, window):
    """The scalar loop: one mul, two phi and two symbol calls per window cell."""
    n0 = _phi(w, g)
    ginv = group.inv(g)
    for h in window:
        lhs_pos = _phi(w, group.mul(ginv, h))
        rhs_pos = _phi(w, h) - n0
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
        for w in ((1, 1), (1, 0)):
            for patch in patches:
                # |phi(g)| up to twice the radius reaches past the patch
                r = patch.N
                g = ((rng.randint(-r, r), rng.randint(-r, r)), rng.choice((0, 1)))
                want = _outcome(_equivariance_reference, w, swap, patch, g, window)
                assert _outcome(_check_one, w, swap, patch, g, window) == want
                outcomes.add(want)
    assert outcomes == {True, False, "SpecError: window exceeds the source patch reach"}


def _swap_batch_case():
    """swap-m2, the weight (1, 1), a radius-12 patch and the radius-4
    window: g with |phi(g)| <= 4 stay in reach, larger ones leave it."""
    swap = decks.bundled_deck("swap-m2").group
    window = [((a, b), f) for a in range(-4, 5) for b in range(-4, 5)
              for f in (0, 1)]
    return (1, 1), swap, generate(WilliamsParams(2, (3, 18, 216)), 12), window


def test_equivariance_batch_raises_when_one_g_leaves_the_reach():
    w, swap, patch, window = _swap_batch_case()
    near = [((1, -1), 0), ((2, 0), 1), ((-3, 1), 0)]
    far = ((20, 3), 1)
    assert _outcome(_equivariance_reference, w, swap, patch, far, window) == \
        "SpecError: window exceeds the source patch reach"
    for batch in (near + [far], [far] + near, near[:1] + [far] + near[1:]):
        with pytest.raises(SpecError, match="window exceeds the source patch reach"):
            equivariance_check(w, swap, patch, elt_arrays(batch, 2), elt_arrays(window, 2))


def test_equivariance_batch_matches_the_reference_per_g():
    # (1, 0) is not a homomorphism on swap-m2: on a patch with one flipped
    # symbol some g in reach give False, the others True
    w, swap, patch, window = _swap_batch_case()
    flat = replace(patch, symbols=np.ones_like(patch.symbols))
    flipped = flat.symbols.copy()
    flipped[2 + flat.N] = 2
    rng = random.Random(4)
    for w, source in ((w, patch), ((1, 0), replace(flat, symbols=flipped))):
        batch = []
        while len(batch) < 40:
            g = ((rng.randint(-4, 4), rng.randint(-4, 4)), rng.choice((0, 1)))
            if isinstance(_outcome(_equivariance_reference, w, swap, source, g, window), bool):
                batch.append(g)
        want = [_equivariance_reference(w, swap, source, g, window) for g in batch]
        got = equivariance_check(w, swap, source, elt_arrays(batch, 2),
                                 elt_arrays(window, 2))
        assert got.tolist() == want
    assert set(want) == {True, False}


def test_section_element_identity_part():
    w = (1, 1)
    g = section_element(w, 5)
    assert g[1] == 0 and _phi(w, g) == 5
