import random

import pytest

from toeplitz_lab import decks
from toeplitz_lab.lattice import SpecError
from toeplitz_lab.pullback import (
    HomSpec,
    equivariance_check,
    pullback_window,
    section_element,
    section_vector,
    validate_hom,
)
from toeplitz_lab.williams import WilliamsParams, generate


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


def test_pullback_values():
    swap = decks.bundled_deck("swap-m2").group
    hom = HomSpec((1, 1))
    eta = generate(WilliamsParams(2, (3, 18, 216)), 300)
    window = [((a, b), f) for a in range(-4, 5) for b in range(-4, 5)
              for f in (0, 1)]
    patch = pullback_window(hom, swap, eta, window)
    # the kernel maps to the origin value for every finite part
    for f in (0, 1):
        assert patch[((2, -2), f)] == eta.symbol(0)
    # z2 with weight (1, 0): rows constant in the second coordinate
    z2 = decks.bundled_deck("z2-m2").group
    hom2 = HomSpec((1, 0))
    patch2 = pullback_window(hom2, z2, eta, [((a, b), 0)
                                             for a in range(-3, 4)
                                             for b in range(-3, 4)])
    for a in range(-3, 4):
        vals = {patch2[((a, b), 0)] for b in range(-3, 4)}
        assert len(vals) == 1 and vals == {eta.symbol(a)}


def test_pullback_inherits_periodicity():
    # kernel-direction translates by p_1 preserve the first-level stratum
    z2 = decks.bundled_deck("z2-m2").group
    hom = HomSpec((1, 0))
    eta = generate(WilliamsParams(2, (3, 18, 216)), 300)
    window = [((a, b), 0) for a in range(-9, 10) for b in range(-9, 10)]
    patch = pullback_window(hom, z2, eta, window)
    for (v, f), sym in patch.items():
        if eta.level(hom.phi((v, f))) == 1:
            shifted = (v[0] + 3, v[1] - 2)
            if ((shifted, 0)) in patch:
                assert patch[(shifted, 0)] == sym


def test_equivariance():
    swap = decks.bundled_deck("swap-m2").group
    hom = HomSpec((1, 1))
    eta = generate(WilliamsParams(2, (3, 18, 216)), 800)
    window = [((a, b), f) for a in range(-3, 4) for b in range(-3, 4)
              for f in (0, 1)]
    # kernel elements act trivially on the pullback
    assert equivariance_check(hom, swap, eta, ((3, -3), 0), window)
    assert equivariance_check(hom, swap, eta, ((3, 4), 0), window)
    rng = random.Random(2)
    for _ in range(25):
        g = ((rng.randint(-20, 20), rng.randint(-20, 20)), rng.choice((0, 1)))
        assert equivariance_check(hom, swap, eta, g, window)


def test_section_element_identity_part():
    hom = HomSpec((1, 1))
    g = section_element(hom, decks.bundled_deck("swap-m2").group, 5)
    assert g[1] == 0 and hom.phi(g) == 5
