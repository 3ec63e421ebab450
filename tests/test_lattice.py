import dataclasses
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from toeplitz_lab import decks
from toeplitz_lab.toeplitz import OUTSIDE, SYMBOL_DTYPE, UNDEFINED
from toeplitz_lab.lattice import (
    DepthExhausted,
    DomainChain,
    GroupSpec,
    SpecError,
    SubgroupChain,
    box_elements,
    check_index_condition,
    corner_count_check,
    cube,
    decompose_right,
    folner_ratio,
    identity_matrix,
    sorted_key_changes,
    unique_rows,
    window_digits,
    window_keys,
)


def dihedral():
    return decks.bundled_deck("dihedral-m2")


def _elt_arrays(elts, rank):
    """Elements as a pair of arrays: lattice parts (n, rank), finite parts (n,)."""
    v = np.array([e[0] for e in elts], dtype=np.int64).reshape(len(elts), rank)
    return v, np.array([e[1] for e in elts], dtype=np.intp)


def z_deck():
    return decks.bundled_deck("williams-m2")


def box_reference(dom, i):
    """The D_i box one point at a time, as tuples in product order: the
    reference for ``DomainChain.box_coords``."""
    return list(product(*(range(-a, b) for a, b in zip(dom.low(i), dom.q2(i)))))


def in_box_reference(dom, v, i):
    """Whether the lattice point v lies in D_i, one coordinate at a time."""
    return all(-a <= x < b for x, a, b in zip(v, dom.low(i), dom.q2(i)))


def rep_reference(dom, v, i):
    """The rep of the lattice point v modulo Gamma_i in D_i, one coordinate
    at a time: the reference for ``DomainChain.rep_arr``."""
    return tuple((x + a) % m - a for x, a, m in zip(v, dom.low(i), dom.chain.level(i)))


def domain_reference(spec, dom, i):
    """D_i R as a list of elements: finite part, then the box order."""
    return [(v, f) for f in range(spec.finite_order) for v in box_reference(dom, i)]


def test_semidirect_product_law():
    spec = dihedral().group
    assert spec.mul(((7,), 1), ((2,), 0)) == ((5,), 1)
    assert spec.mul(((4,), 1), ((0,), 0)) == ((4,), 1)  # right identity
    assert spec.inv(((3,), 1)) == ((3,), 1)
    assert spec.mul(((3,), 1), ((3,), 1)) == spec.identity


def test_group_axioms_sampled():
    rng = random.Random(11)
    for deck in (dihedral(), decks.bundled_deck("swap-m2")):
        spec = deck.group
        elts = [(tuple(rng.randint(-9, 9) for _ in range(spec.rank)),
                 rng.randrange(spec.finite_order)) for _ in range(12)]
        for a in elts:
            assert spec.mul(a, spec.inv(a)) == spec.identity
            assert spec.mul(spec.identity, a) == a
        for a, b, c in zip(elts, elts[1:], elts[2:]):
            assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))


def test_group_validation_rejects_bad_action():
    bad = GroupSpec(rank=1, table=((0, 1), (1, 0)),
                    action=(identity_matrix(1), ((2,),)))
    with pytest.raises(SpecError):
        bad.validate()


def test_subgroup_membership():
    # v is in Gamma_i exactly when its rep modulo Gamma_i is the origin
    deck = dihedral()
    chain, dom = deck.chain, deck.domains
    for i in (1, 2, 3):
        p = chain.level(i)[0]
        for v in range(-3 * p, 3 * p + 1):
            assert (rep_reference(dom, (v,), i) == (0,)) == (v % p == 0), (i, v)
            assert dom.rep_arr(np.array([v]), i).tolist() == list(rep_reference(dom, (v,), i))
    # a nontrivial finite part keeps (5, flip) out of Gamma_1
    assert decompose_right(dom, ((5,), 1), 1) == (((5,), 0), (0,), 1)


def test_chain_validation():
    with pytest.raises(SpecError):
        SubgroupChain(((3,), (9,))).validate(1)  # p^1 must exceed 3
    with pytest.raises(SpecError):
        SubgroupChain(((5,), (11,))).validate(1)  # 5 does not divide 11


def test_chain_moduli_fit_int64_box_arithmetic():
    """A rep (x + q1) % p sums two box coordinates, so a modulus above 2**62
    is refused, naming its level; 2**62 itself is accepted."""
    SubgroupChain(((2 ** 62,),)).validate(1)
    with pytest.raises(SpecError, match=r"level 2 modulus p_2 = \d+ exceeds 2\*\*62"):
        SubgroupChain(((5, 5), (25, 2 ** 63))).validate(2)


def test_decompose_right_examples():
    dom = dihedral().domains
    gamma, d, r = decompose_right(dom, ((7,), 0), 1)
    assert (gamma, d, r) == (((5,), 0), (2,), 0)
    gamma, d, r = decompose_right(dom, ((-3,), 0), 1)
    assert (gamma, d, r) == (((-5,), 0), (2,), 0)
    gamma, d, r = decompose_right(dom, ((7,), 1), 1)
    assert (gamma, d, r) == (((5,), 0), (2,), 1)


def _decompose_right_is_bijective(deck, level, radius):
    """Every element of the window [-radius, radius]^r times F decomposes as
    gamma * (d, 0) * (0, r) with gamma in Gamma_level and d in D_level, the
    product gives it back, and no two elements share a decomposition."""
    spec, dom = deck.group, deck.domains
    seen = set()
    for v in product(range(-radius, radius + 1), repeat=spec.rank):
        for f in range(spec.finite_order):
            g = (v, f)
            gamma, d, r = decompose_right(dom, g, level)
            assert gamma[1] == 0 and all(
                x % p == 0 for x, p in zip(gamma[0], deck.chain.level(level)))
            assert in_box_reference(dom, d, level)
            assert d == rep_reference(dom, v, level)
            back = spec.mul(spec.mul(gamma, (d, 0)), ((0,) * spec.rank, r))
            assert back == g
            key = (gamma, d, r)
            assert key not in seen
            seen.add(key)


def test_decompose_right_is_bijective_on_window():
    _decompose_right_is_bijective(dihedral(), 2, 40)


@pytest.mark.parametrize("name", ["swap-m2", "z2-m2"])
@pytest.mark.parametrize("level", [1, 2])
def test_decompose_right_is_bijective_on_rank_two_windows(name, level):
    _decompose_right_is_bijective(decks.bundled_deck(name), level, 30)


def test_enumerate_domain():
    deck = dihedral()
    spec, dom = deck.group, deck.domains
    v, f = box_elements(dom.box_coords(1), 1)
    assert v[:, 0].tolist() == [-2, -1, 0, 1, 2] and f.tolist() == [0] * 5
    z2 = decks.bundled_deck("z2-m2")
    assert len(box_elements(z2.domains.box_coords(1), 1)[0]) == 25
    v, f = box_elements(dom.box_coords(1), spec.finite_order)
    with_r = [(tuple(x), y) for x, y in zip(v.tolist(), f.tolist())]
    assert len(with_r) == 10
    assert spec.identity in with_r
    # report order: finite part, then lattice coordinates
    assert with_r == sorted(with_r, key=lambda g: (g[1],) + g[0])
    assert with_r == domain_reference(spec, dom, 1)


def test_box_nesting_partition():
    # D_{i+1} is the disjoint union of chain translates of D_i
    deck = dihedral()
    dom, chain = deck.domains, deck.chain
    for i in (1, 2, 3):
        cover = set()
        for g in box_reference(dom, i + 1):
            if g[0] % chain.level(i)[0]:
                continue  # not in Gamma_i
            block = {tuple(x + y for x, y in zip(g, d))
                     for d in box_reference(dom, i)}
            assert not block & cover
            cover |= block
        assert cover == set(box_reference(dom, i + 1))


def test_folner_ratio():
    deck = dihedral()
    spec, dom = deck.group, deck.domains
    assert folner_ratio(spec, dom, 1, spec.identity) == 0
    assert folner_ratio(spec, dom, 1, ((1,), 0)) == Fraction(1, 5)
    # translate by (1, e) leaks (3, e) and (-3, s): two of ten cells
    assert folner_ratio(spec, dom, 1, ((1,), 0)) == _folner_reference(
        spec, dom, 1, ((1,), 0))


def _folner_reference(spec, dom, i, g):
    """|D_i R g \\ D_i R| / |D_i R| by set arithmetic on scalar elements."""
    cells = set(domain_reference(spec, dom, i))
    moved = {spec.mul(x, g) for x in cells}
    return Fraction(len(moved - cells), len(cells))


# the first three levels of a bundled chain with off-centre offsets: the
# finite part does not map these boxes onto themselves, and nested boxes
# share an edge, so a cube around a corner of D_n sticks out of D_(n+s)
OFF_CENTRE = {
    "dihedral-off-centre": ("dihedral-m2", ((3,), (3,), (28,))),
    "swap-off-centre": ("swap-m2", ((3, 2), (3, 22), (28, 22))),
}
BOX_CASES = decks.BUNDLED + tuple(OFF_CENTRE)


def _group_and_boxes(name):
    """The group and boxes of a bundled deck or of an ``OFF_CENTRE`` case."""
    deck_name, offsets = OFF_CENTRE.get(name, (name, None))
    deck = decks.bundled_deck(deck_name)
    if offsets is None:
        return deck.group, deck.domains
    dom = DomainChain(SubgroupChain(deck.chain.moduli[:len(offsets)]), offsets)
    dom.validate()
    return deck.group, dom


@pytest.mark.parametrize("name", BOX_CASES)
def test_folner_ratio_matches_set_arithmetic(name):
    """Levels 1-3, with every finite part on the right: on the swap and
    dihedral groups the cells of each finite part then move differently."""
    spec, dom = _group_and_boxes(name)
    shifts = [(1,) * spec.rank, (3,) + (-2,) * (spec.rank - 1),
              (-7,) + (4,) * (spec.rank - 1)]
    for i in (1, 2, 3):
        for v in shifts:
            for f in range(spec.finite_order):
                got = folner_ratio(spec, dom, i, (v, f))
                assert got == _folner_reference(spec, dom, i, (v, f)), (i, v, f)


def test_folner_ratio_decays():
    deck = dihedral()
    spec, dom = deck.group, deck.domains
    for g in (((1,), 0), ((3,), 1), ((-2,), 1)):
        ratios = [folner_ratio(spec, dom, i, g) for i in (1, 2, 3)]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < Fraction(1, 10)


def test_index_condition():
    z2 = decks.bundled_deck("z2-m2")
    assert check_index_condition(z2.chain, 1)  # index 25 vs about 6.29
    small = SubgroupChain(((4,), (8,)))
    assert not check_index_condition(small, 1)  # index 2
    flat = SubgroupChain(((5,), (5,)))  # not a valid chain, but the test is total
    assert not check_index_condition(flat, 1)


def test_index_condition_agrees_with_float_bound_near_threshold():
    # the float route this exact test replaced: an upper bound on the
    # irrational threshold plus one ulp, then compare with its ceiling
    def float_route(k, i):
        rhs = 1.0 / (1.0 - 2.0 ** (-(0.5 ** (i + 1))))
        return k >= math.ceil(math.nextafter(rhs, math.inf))

    for i in range(1, 14):
        threshold = math.ceil(1.0 / (1.0 - 2.0 ** (-(0.5 ** (i + 1)))))
        for k in range(threshold - 3, threshold + 4):
            chain = SubgroupChain(((1,),) * (i - 1) + ((1,), (k,)))
            assert chain.index_between(i) == k
            assert check_index_condition(chain, i) == float_route(k, i) == \
                (k >= threshold), (i, k)


def test_corner_lemma():
    z2 = decks.bundled_deck("z2-m2")
    ok, count, bound = corner_count_check(z2.domains, 1, 1, (0, 0))
    assert ok and count == (2 * 1 + 1) ** 2  # fully contained
    ok, count, bound = corner_count_check(z2.domains, 1, 2, (-2, -2))
    assert ok and count >= bound
    dih = dihedral()
    ok, count, bound = corner_count_check(dih.domains, 1, 3, (0,))
    assert ok and Fraction(count) >= Fraction(2 * 3 + 1, 2)


def _corner_reference(dom, n, s, d):
    """The corner count by scalar arithmetic: every z of B(d, s) tested
    against the translate gamma + D_(n+s) holding d, gamma = d - rep(d)."""
    rep = rep_reference(dom, d, n + s)
    count = sum(in_box_reference(dom, tuple(a - x + y for a, x, y in zip(z, d, rep)), n + s)
                for z in product(*(range(x - s, x + s + 1) for x in d)))
    bound = Fraction((2 * s + 1) ** len(d), 2 ** len(d))
    return count >= bound, count, bound


@pytest.mark.parametrize("name", BOX_CASES)
def test_corner_count_matches_the_scalar_count(name):
    """Every corner of D_n, the origin, a point next to the lower corner and
    the point just past the upper corner, at several (n, s)."""
    _, dom = _group_and_boxes(name)
    for n, s in ((1, 1), (1, 2), (2, 1)):
        lo, hi = dom.low(n), dom.q2(n)
        points = list(product(*((-a, b - 1) for a, b in zip(lo, hi))))
        points += [(0,) * dom.rank, tuple(1 - a for a in lo), hi]
        for d in points:
            assert corner_count_check(dom, n, s, d) == _corner_reference(dom, n, s, d), \
                (n, s, d)


@pytest.mark.parametrize("name", decks.BUNDLED)
def test_corner_count_over_the_box_and_its_translates(name):
    """The lemma ranges over every d.  Points d of the whole D_(n+s) box
    (up to 400 of them, drawn with a fixed seed), where gamma = 0 though
    rep(d) mod Gamma_n need not be d, and the same points moved into three
    other Gamma_(n+s) translates, where gamma != 0, at several (n, s).  Near
    the edges of D_(n+s) the count is partial, and on the asymmetric boxes
    of the 1-d decks it tells B(d, s) from its mirror image."""
    dom = decks.bundled_deck(name).domains
    rng = np.random.default_rng(0)
    partial = 0
    for n, s in ((1, 1), (1, 2), (2, 1)):
        box = dom.box_coords(n + s)
        if len(box) > 400:
            box = box[np.sort(rng.choice(len(box), 400, replace=False))]
        p = np.array(dom.chain.level(n + s))
        for gamma in (0 * p, p, -2 * p, p * (-1) ** np.arange(dom.rank)):
            for d in map(tuple, (box + gamma).tolist()):
                got = corner_count_check(dom, n, s, d)
                assert got == _corner_reference(dom, n, s, d), (n, s, d)
                partial += got[1] < (2 * s + 1) ** dom.rank
    assert partial > 0


def test_auto_offsets_and_validation():
    deck = dihedral()
    assert deck.domains.q1 == ((2,), (12,), (62,), (312,), (1562,),
                               (7812,), (39062,))
    chain = deck.chain
    with pytest.raises(SpecError):
        DomainChain(chain, ((2,), (13,)) + deck.domains.q1[2:]).validate()


def _auto_two_branch(chain):
    """Reference for ``DomainChain.auto`` as first written, with level 1 a
    case of its own: floor(p/2) there, and deeper the offset closest to p/2
    (the lower on a tie) congruent to the previous offset mod the previous
    modulus, in exact arithmetic."""
    qs = []
    for i, p in enumerate(chain.moduli, start=1):
        if i == 1:
            qs.append(tuple(x // 2 for x in p))
            continue
        row = []
        for x, c, m in zip(p, qs[-1], chain.moduli[i - 2]):
            k = math.floor((Fraction(x, 2) - c) / m)
            row.append(min((c + k * m, c + (k + 1) * m),
                           key=lambda q: (abs(q - Fraction(x, 2)), q)))
        qs.append(tuple(row))
    return tuple(qs)


@st.composite
def chains(draw):
    """Chains of rank 1-3 and depth 1-5: a first modulus 2-40 per axis and
    ratios 2-6 per axis and level, odd and even alike."""
    rank = draw(st.integers(1, 3))
    moduli = [tuple(draw(st.integers(2, 40)) for _ in range(rank))]
    for _ in range(draw(st.integers(0, 4))):
        moduli.append(tuple(p * draw(st.integers(2, 6)) for p in moduli[-1]))
    return SubgroupChain(tuple(moduli))


@pytest.mark.parametrize("name", decks.BUNDLED)
def test_auto_offsets_match_the_two_branch_rule_on_bundled_chains(name):
    chain = decks.bundled_deck(name).chain
    assert DomainChain.auto(chain).q1 == _auto_two_branch(chain)


@settings(max_examples=200, deadline=None)
@given(chains())
def test_auto_offsets_match_the_two_branch_rule(chain):
    assert DomainChain.auto(chain).q1 == _auto_two_branch(chain)


@pytest.mark.parametrize("moduli, offsets", [
    (((2**53 + 3,),), ((2**52 + 1,),)),
    (((2**60 + 3,),), ((2**59 + 1,),)),
    # level 2, congruent to 2 mod 5: p/2 = 5 * 2**58 + 7.5, so + 7 and not + 12
    # (a float p/2 gave 5 * 2**58 + 2)
    (((5,), (5 * (2**59 + 3),)), ((2,), (5 * 2**58 + 7,))),
])
def test_auto_offsets_are_exact_past_float_precision(moduli, offsets):
    """From 2**53 on p/2 is no longer exact in a float, yet the chain takes
    moduli up to 2**62: the offsets are still the closest to p/2, the lower
    on a tie, as the exact reference finds them."""
    chain = SubgroupChain(moduli)
    chain.validate(1)
    assert DomainChain.auto(chain).q1 == offsets == _auto_two_branch(chain)


@pytest.mark.parametrize("name", decks.BUNDLED)
def test_level_zero_is_z_r_with_the_origin_as_box(name):
    """Gamma_0 = Z^r and D_0 = {0}; ``low`` serves the stored offsets above
    it, and levels outside 0 .. depth stay unconfigured."""
    dom = decks.bundled_deck(name).domains
    chain, r = dom.chain, dom.rank
    assert chain.level(0) == (1,) * r
    assert dom.low(0) == (0,) * r and dom.q2(0) == (1,) * r and dom.size(0) == 1
    assert [dom.low(i) for i in range(1, chain.depth + 1)] == list(dom.q1)
    assert dom.box_coords(0).tolist() == [[0] * r]
    for i in range(chain.depth + 1):
        if dom.size(i) <= 20_000:
            assert np.array_equal(dom.box_coords(i), dom.translates(0, i)), i
            assert dom.box_coords(i).tolist() == [list(v) for v in box_reference(dom, i)], i
    for i in (-1, chain.depth + 1):
        with pytest.raises(DepthExhausted, match=f"chain level {i} not configured"):
            chain.level(i)
        with pytest.raises(DepthExhausted, match=f"chain level {i} not configured"):
            dom.low(i)


@pytest.mark.parametrize("name", decks.BUNDLED)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_array_arithmetic_matches_scalar(name, data):
    spec = decks.bundled_deck(name).group
    elt = st.tuples(st.tuples(*[st.integers(-10**6, 10**6)] * spec.rank),
                    st.integers(0, spec.finite_order - 1))
    pairs = data.draw(st.lists(st.tuples(elt, elt), min_size=1, max_size=12))
    a = _elt_arrays([p for p, _ in pairs], spec.rank)
    b = _elt_arrays([q for _, q in pairs], spec.rank)
    v, f = spec.mul_arr(*a, *b)
    assert [(tuple(x), int(y)) for x, y in zip(v.tolist(), f.tolist())] == \
        [spec.mul(p, q) for p, q in pairs]
    v, f = spec.inv_arr(*a)
    assert [(tuple(x), int(y)) for x, y in zip(v.tolist(), f.tolist())] == \
        [spec.inv(p) for p, _ in pairs]
    # a single left factor broadcasts over the right ones
    v, f = spec.mul_arr(*pairs[0][0], *b)
    assert [(tuple(x), int(y)) for x, y in zip(v.tolist(), f.tolist())] == \
        [spec.mul(pairs[0][0], q) for _, q in pairs]
    v, f = spec.inv_arr(*pairs[0][0])
    assert (tuple(v.tolist()), int(f)) == spec.inv(pairs[0][0])


def _powers_group(name, gen, order):
    """Z^r x| Z/order, with 1 acting by the integer matrix gen."""
    mats = [np.linalg.matrix_power(np.array(gen), k) for k in range(order)]
    return GroupSpec(rank=len(gen),
                     table=tuple(tuple((a + b) % order for b in range(order))
                                 for a in range(order)),
                     action=tuple(tuple(map(tuple, m.tolist())) for m in mats), name=name)


def _d4_group():
    """Z^2 x| D_4: index k + 4s acts by R^k S^s, with R the quarter turn and
    S the reflection in the first axis, and (a, s)(b, t) = (a + (-1)^s b, s + t)."""
    R, S = np.array([[0, -1], [1, 0]]), np.array([[1, 0], [0, -1]])
    mats = [np.linalg.matrix_power(R, k) @ np.linalg.matrix_power(S, s)
            for s in (0, 1) for k in range(4)]
    table = tuple(tuple((a + (-1) ** s * b) % 4 + 4 * ((s + t) % 2)
                        for t in (0, 1) for b in range(4))
                  for s in (0, 1) for a in range(4))
    return GroupSpec(rank=2, table=table,
                     action=tuple(tuple(map(tuple, m.tolist())) for m in mats),
                     name="Z^2 x| D_4")


WIDER_GROUPS = {
    "Z^2 x| Z/4": _powers_group("Z^2 x| Z/4", [[0, -1], [1, 0]], 4),
    "Z^2 x| D_4": _d4_group(),
    "Z^3 x| Z/3": _powers_group("Z^3 x| Z/3", [[0, 0, 1], [1, 0, 0], [0, 1, 0]], 3),
}


def _as_elts(v, f):
    return [(tuple(x), int(y)) for x, y in zip(v.tolist(), f.tolist())]


@pytest.mark.parametrize("name", WIDER_GROUPS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_array_law_on_a_wider_group_family(name, data):
    """mul_arr and inv_arr against the check-only references, associativity
    and inverses, beyond the bundled decks: rotations of Z^2 by Z/4, its
    dihedral group D_4 and the cyclic permutation of the axes of Z^3."""
    spec = WIDER_GROUPS[name]
    spec.validate()
    elt = st.tuples(st.tuples(*[st.integers(-10**6, 10**6)] * spec.rank),
                    st.integers(0, spec.finite_order - 1))
    triples = data.draw(st.lists(st.tuples(elt, elt, elt), min_size=1, max_size=12))
    a, b, c = (_elt_arrays([t[i] for t in triples], spec.rank) for i in range(3))
    ab = spec.mul_arr(*a, *b)
    assert _as_elts(*ab) == [spec.mul(x, y) for x, y, _ in triples]
    assert _as_elts(*spec.inv_arr(*a)) == [spec.inv(x) for x, _, _ in triples]
    assert _as_elts(*spec.mul_arr(*ab, *c)) == _as_elts(*spec.mul_arr(*a, *spec.mul_arr(*b, *c)))
    for left, right in ((a, spec.inv_arr(*a)), (spec.inv_arr(*a), a)):
        v, f = spec.mul_arr(*left, *right)
        assert not v.any() and not f.any()


@pytest.mark.parametrize("name,i,j", [("Z^2 x| Z/4", 1, 2), ("Z^2 x| D_4", 1, 2),
                                      ("Z^2 x| D_4", 1, 4)])
def test_swapped_action_matrices_are_not_a_homomorphism(name, i, j):
    spec = WIDER_GROUPS[name]
    action = list(spec.action)
    action[i], action[j] = action[j], action[i]
    with pytest.raises(SpecError, match="not a homomorphism"):
        dataclasses.replace(spec, action=tuple(action)).validate()


def test_the_one_swap_of_z3_is_an_automorphism():
    """Z/3 has one pair of nontrivial elements, and swapping their matrices
    composes the action with the inversion of Z/3: still a homomorphism.
    Giving both the same matrix is not one."""
    spec = WIDER_GROUPS["Z^3 x| Z/3"]
    one, two = spec.action[1:]
    dataclasses.replace(spec, action=(spec.action[0], two, one)).validate()
    with pytest.raises(SpecError, match="not a homomorphism"):
        dataclasses.replace(spec, action=(spec.action[0], one, one)).validate()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3).flatmap(lambda c: st.lists(
    st.lists(st.integers(-4, 4), min_size=c, max_size=c), max_size=20)),
    st.integers(0, 3))
def test_unique_rows_matches_numpy(rows, cols):
    arr = np.array(rows, dtype=np.int64).reshape(len(rows), -1) if rows else \
        np.zeros((0, cols), dtype=np.int64)
    got, inverse = unique_rows(arr)
    want, want_inverse = np.unique(arr, axis=0, return_inverse=True)
    assert got.tolist() == want.tolist()
    assert inverse.tolist() == want_inverse.reshape(-1).tolist()
    assert got.tolist() == [list(r) for r in sorted(set(map(tuple, arr.tolist())))]


def window_key_reference(symbols, width, n):
    """Python-int keys of the windows symbols[q : q + width], q < n: each
    window's base-radix number of its digits symbol - min, cut into chunks
    of as many digits as stay below 2**62, the first digits first.  The
    reference for ``window_keys``."""
    digits = [x - min(symbols[:n + width - 1]) for x in symbols[:n + width - 1]]
    radix = max(digits) + 1
    per_key = min(width, max(d for d in range(1, 64) if radix ** d <= 1 << 62))
    keys = []
    for start in range(0, width, per_key):
        chunk = range(start, min(start + per_key, width))
        keys.append([sum(digits[q + w] * radix ** (chunk[-1] - w) for w in chunk)
                     for q in range(n)])
    return keys, radix ** per_key


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 40), st.integers(1, 60), st.booleans(),
       st.sampled_from([1, 2, 3, 255, 256, 32768]),
       st.sampled_from([0, UNDEFINED, OUTSIDE]), st.randoms(use_true_random=False))
@example(40, 1, True, 32768, OUTSIDE, random.Random(0))  # ten keys a window
@example(9, 50, False, 1 << 16, -(1 << 15), random.Random(1))  # the digits wrap in int16
@example(40, 1, True, 3, 0, random.Random(2))  # 3**39 < 2**62 < 3**40: one key short of 40
def test_window_keys_count_the_distinct_windows(width, n, square, radix, low, rnd):
    """The positions where the sorted keys change are the distinct windows
    that ``unique_rows`` of the window rows finds, with symbols below zero
    (UNDEFINED, OUTSIDE) and radices up to 32,768, where a window of more
    than four cells takes several keys, and 65,536, where ``window_digits``
    wraps in int16; ``square`` puts as many windows as the width.  The first
    and last symbols span the whole radix."""
    n = width if square else n
    if width + n == 2:  # one symbol: its radix is 1
        radix = 1
    symbols = np.array([rnd.randrange(low, low + radix) for _ in range(n + width - 1)],
                       dtype=SYMBOL_DTYPE)
    symbols[0], symbols[-1] = low, low + radix - 1
    digits, got_radix = window_digits(symbols)
    assert got_radix == radix
    assert digits.tolist() == [x - low for x in symbols.tolist()]
    assert digits.dtype == np.min_scalar_type(radix - 1)
    keys, sentinel = window_keys(digits, radix, width, n)
    if radix == 1 << 15:  # four digits a key: 2**60 <= 2**62 < 2**75
        assert len(keys) == -(-width // 4)
    rows = np.lib.stride_tricks.sliding_window_view(symbols, width)
    first, new = sorted_key_changes(keys)
    assert int(new.sum()) == len(unique_rows(rows)[0])
    assert new[0] and len(new) == n
    want, want_sentinel = window_key_reference(symbols.tolist(), width, n)
    assert [key.tolist() for key in keys] == want
    assert sentinel == want_sentinel
    assert all(key.dtype == np.min_scalar_type(sentinel) for key in keys)
    assert first.tolist() == sorted(want[0])


@pytest.mark.parametrize("rank,radius", [(1, 0), (1, 3), (2, 2), (3, 1)])
def test_cube_lists_the_box_in_product_order(rank, radius):
    box = cube(rank, radius)
    span = range(-radius, radius + 1)
    assert box.tolist() == [list(v) for v in product(span, repeat=rank)]
    assert box.dtype == np.int64
    with pytest.raises(ValueError, match="read-only"):
        box[0, 0] = 0


def test_cube_refuses_a_negative_radius():
    with pytest.raises(SpecError, match="window radius must be non-negative, got -1"):
        cube(2, -1)
