import gc
import hashlib
import re
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_lattice import box_reference, rep_reference

from toeplitz_lab import decks, measures
from toeplitz_lab.lattice import (
    DepthExhausted,
    DomainChain,
    GroupSpec,
    SpecError,
    SubgroupChain,
    identity_matrix,
)
from toeplitz_lab.measures import fresh_count
from toeplitz_lab.periods import per_set_exact
from toeplitz_lab.toeplitz import BETA, LEVEL_DTYPE, OUTSIDE, SYMBOL_DTYPE, Construction
from toeplitz_lab.verify import (
    check_fresh_dual,
    check_strata_partition,
    claim_pass,
    fresh_dual,
)


def dihedral():
    return decks.construction(decks.bundled_deck("dihedral-m2"))


def new_construction(deck, domains=None):
    """The deck's construction built afresh, not the cached
    ``decks.construction``; on other boxes when ``domains`` is given."""
    return Construction(deck.group, domains or deck.domains, deck.m)


def z2():
    return decks.construction(decks.bundled_deck("z2-m2"))


def _fresh_cells(cons, n):
    """The level-n fresh cells of the tiled mask as sorted lattice points."""
    cells = np.argwhere(cons.fresh_bool(n).reshape(cons.chain.level(n)))
    return [tuple(c) for c in (cells - np.array(cons.domains.q1[n - 1])).tolist()]


def _values(cons, points, f):
    """(symbol, level) of the array at (v, f) for each lattice point v."""
    levels = cons.levels_at(np.array(points, dtype=np.int64))
    return list(zip(cons.symbol_table()[f, levels].tolist(), levels.tolist()))


def _cells(cons, N):
    """(symbol, level) of every element (v, f) of the D_N R box."""
    box = cons.domains.box_coords(N).tolist()
    return {(tuple(v), f): cell for f in range(cons.group.finite_order)
            for v, cell in zip(box, _values(cons, box, f))}


def _period_set(cons, N, i, alpha):
    """The elements of the D_N R box in the Gamma_i-periodic part of eta
    that reads alpha (``per_set_exact``, one sample per finite part)."""
    box = cons.domains.box_coords(N)
    F = cons.group.finite_order
    points = (np.broadcast_to(box, (F,) + box.shape),
              np.repeat(np.arange(F)[:, None], len(box), axis=1))
    mask = per_set_exact(cons, points, i, np.full(F, alpha))
    return {(tuple(v), f) for f in range(F) for v in box[mask[f]].tolist()}


def test_fresh_cells_base_cases():
    cons = dihedral()
    # level 0 has the origin alone: level 1 claims just the origin of D_1
    assert cons.levels_at(cons.domains.box_coords(1)).tolist() == [2, 2, 1, 2, 2]
    assert _fresh_cells(cons, 1) == [(-2,), (-1,), (1,), (2,)]


@pytest.mark.parametrize("name", decks.BUNDLED)
def test_level_zero_is_the_origin_fresh_at_level_zero(name):
    """The tiling starts from D_0, the origin, fresh at level 0; levels
    outside 0 .. depth stay unconfigured."""
    cons = decks.construction(decks.bundled_deck(name))
    assert cons.level_array(0).tolist() == [1] and cons.level_array(0).dtype == LEVEL_DTYPE
    assert cons.fresh_bool(0).tolist() == [True]
    assert fresh_count(cons, 0) == 1
    for N in (-1, cons.depth + 1):
        with pytest.raises(DepthExhausted, match=f"configured level 0..{cons.depth}, got {N}"):
            cons.level_array(N)


@pytest.mark.parametrize("name", decks.BUNDLED)
def test_every_level_is_byte_wide(name):
    """Every group-construction level is stored as LEVEL_DTYPE: the level
    arrays at every configured level, one byte a cell (z2-m2 at level 5,
    the largest, is 9,765,625 bytes; 19,531,250 at two bytes a cell), the
    claim rule on a translate grid, the levels of points, the class tables
    and the first claims of the claim pass."""
    cons = decks.construction(decks.bundled_deck(name))
    dom = cons.domains
    for N in range(cons.depth + 1):
        lvl = cons.level_array(N)
        assert lvl.dtype == LEVEL_DTYPE and lvl.nbytes == dom.size(N), N
    assert cons.first_claims(np.ix_(*dom.translate_axes(1, 3)), 2, 3).dtype == LEVEL_DTYPE
    assert cons.levels_at(dom.box_coords(2)).dtype == LEVEL_DTYPE
    assert measures.class_levels(cons, 1, 3).dtype == LEVEL_DTYPE
    assert claim_pass(cons, 3)[1].dtype == LEVEL_DTYPE


def test_a_chain_deeper_than_a_level_cell_holds_is_refused():
    """Levels run to depth + 1, so a chain of depth 255 would need a level
    that LEVEL_DTYPE cannot hold; the construction refuses it before reading
    its moduli."""
    deck = decks.bundled_deck("williams-m2")
    chain = SubgroupChain(tuple((4 << i,) for i in range(255)))
    domains = DomainChain(chain, tuple((2 << i,) for i in range(255)))
    with pytest.raises(SpecError, match="chain depth 255 leaves levels past 255"):
        new_construction(deck, domains)


@pytest.mark.parametrize("name", decks.BUNDLED)
def test_first_claims_on_a_translate_grid_reads_the_translated_fresh_cells(name):
    """On the open grid of the Gamma_n translates of the D_N box, the claim
    rule over levels n+1 .. N gives each gamma the level that ``levels_at``
    gives gamma + c, for the first and the last level-n fresh cell c."""
    cons = decks.construction(decks.bundled_deck(name))
    dom = cons.domains
    for N in range(1, cons.depth + 1):
        if dom.size(N) > 400_000:
            break
        for n in range(N + 1):
            grid = cons.first_claims(np.ix_(*dom.translate_axes(n, N)), n + 1, N)
            gammas = dom.translates(n, N)
            assert grid.dtype == LEVEL_DTYPE and grid.size == len(gammas)
            fresh = dom.box_coords(n)[cons.fresh_bool(n)]
            for c in (fresh[0], fresh[-1]):
                want = cons.levels_at(gammas + c)
                assert np.array_equal(grid.ravel(), want), (name, n, N, c)


def test_fresh_cells_dual_routes_small():
    cons = dihedral()
    sizes, agreed = fresh_dual(cons, 4)
    assert agreed
    for n in (1, 2, 3, 4):
        by_points = cons.levels_at(cons.domains.box_coords(n)) == n + 1
        assert np.array_equal(by_points, cons.fresh_bool(n))
        assert int(by_points.sum()) == sizes[n] == fresh_count(cons, n)


def _level_array_per_cell(cons, N):
    """Reference: the rep route over the whole (cells x r) coordinate box,
    one rep, in-box test and flat index per cell, each level fed by the
    fresh masks of its own lower boxes."""
    dom = cons.domains
    fresh: dict[int, np.ndarray] = {}
    for K in range(1, N + 1):
        coords = dom.box_coords(K)
        lvl = np.zeros(len(coords), dtype=np.int16)
        r1 = dom.rep_arr(coords, 1)
        lvl[np.all(r1 == 0, axis=1)] = 1
        for l in range(2, K + 1):
            rl = dom.rep_arr(coords, l)
            inside = dom.in_box_arr(rl, l - 1)
            hit = np.zeros(len(coords), dtype=bool)
            if inside.any():
                hit[inside] = fresh[l - 1][np.ravel_multi_index(
                    tuple((rl[inside] + dom.q1[l - 2]).T), dom.chain.level(l - 1))]
            lvl[(lvl == 0) & hit] = l
        lvl[lvl == 0] = K + 1
        fresh[K] = lvl == K + 1
    return lvl


def _levels_by_claims(cons, N):
    """The level array of the D_N box read off the claim pass: the first
    level that claims a cell, N + 1 where none does."""
    count, first = claim_pass(cons, N)
    return np.where(count == 0, N + 1, first).ravel()


def test_tiled_level_array_matches_rep_route_on_bundled_decks():
    """The tiling against the claim pass at every configured level, in
    ascending order (so each level's claims read tiled masks that already
    matched), and against the self-fed per-cell reference up to level 4."""
    for name in decks.BUNDLED:
        cons = decks.construction(decks.bundled_deck(name))
        for N in range(1, cons.depth + 1):
            tiled = cons.level_array(N)
            assert tiled.dtype == LEVEL_DTYPE
            assert np.array_equal(tiled, _levels_by_claims(cons, N)), (name, N)
            if N <= 4:
                assert np.array_equal(tiled, _level_array_per_cell(cons, N)), (name, N)


def test_claim_pass_counts_every_claim_and_keeps_the_first(monkeypatch):
    """On the tiled masks no cell of the D_3 box has two claims, and the
    first claim is its level.  With the origin marked level-1 fresh, level 2
    also claims Gamma_2, which level 1 claims already: the pass counts both
    claims on those cells and keeps level 1."""
    cons = z2()
    count, first = claim_pass(cons, 3)
    levels = cons.level_array(3).reshape(count.shape)
    assert count.max() == 1
    assert np.array_equal(np.where(count == 0, 4, first), levels)
    assert (first[count == 0] == 0).all()

    fresh_bool = Construction.fresh_bool

    def origin_fresh(self, n):
        mask = fresh_bool(self, n)
        if n == 1:
            mask = mask.copy()
            mask[mask.size // 2] = True  # the origin of the 5 x 5 box D_1
        return mask

    monkeypatch.setattr(Construction, "fresh_bool", origin_fresh)
    count, first = claim_pass(cons, 3)
    gamma2 = np.all(cons.domains.box_coords(3) % 25 == 0, axis=1).reshape(count.shape)
    assert np.array_equal(count == 2, gamma2) and count.max() == 2
    assert (first[gamma2] == 1).all()
    assert np.array_equal(first[~gamma2], np.where(levels < 4, levels, 0)[~gamma2])


# every bundled deck (the group construction of a 1-d deck too) and z2-idx
CLASS_DECKS = decks.BUNDLED + ("z2-idx",)


def construction_named(name):
    """The construction of a bundled deck, or of "z2-idx": z2-m2 on the
    chain 5, 15, 60, 300, 2100 per axis (ratios 3, 4, 5, 7) with auto
    offsets, which meets the index condition at every level."""
    if name != "z2-idx":
        return decks.construction(decks.bundled_deck(name))
    deck = decks.bundled_deck("z2-m2")
    chain = SubgroupChain(tuple((p, p) for p in (5, 15, 60, 300, 2100)))
    return new_construction(deck, DomainChain.auto(chain))


@st.composite
def shifted_constructions(draw):
    """Chains of rank 1-3 and depth 2-3 whose deeper offsets are the previous
    offsets shifted by a drawn multiple of the previous modulus, so the boxes
    are off centre in ways ``DomainChain.auto`` never produces.

    ``DomainChain.validate`` wants both level-i offsets above i, so a ratio
    and shift multiple are drawn only from the pairs that keep them there;
    ratio 3 with the middle multiple always does."""
    rank = draw(st.integers(1, 3))
    moduli = [tuple(draw(st.integers(4, 7)) for _ in range(rank))]
    offsets = [tuple(draw(st.integers(2, p - 2)) for p in moduli[0])]
    for level in range(2, 2 + draw(st.integers(1, 2))):
        pairs = []
        for p, q in zip(moduli[-1], offsets[-1]):
            # the new lower and upper offsets are q + t*p and (c-1-t)*p + p-q
            ok = [(c, t) for c in (2, 3) for t in range(c)
                  if q + t * p > level and (c - 1 - t) * p + p - q > level]
            pairs.append(draw(st.sampled_from(ok)))
        offsets.append(tuple(q + t * p for p, q, (_, t) in
                             zip(moduli[-1], offsets[-1], pairs)))
        moduli.append(tuple(p * c for p, (c, _) in zip(moduli[-1], pairs)))
    chain = SubgroupChain(tuple(moduli))
    group = GroupSpec(rank=rank, table=((0,),), action=(identity_matrix(rank),))
    return Construction(group, DomainChain(chain, tuple(offsets)), 2)


@settings(max_examples=40, deadline=None)
@given(shifted_constructions())
def test_tiled_level_array_matches_rep_route_on_shifted_chains(cons):
    for N in range(1, cons.depth + 1):
        tiled = cons.level_array(N)
        assert np.array_equal(tiled, _levels_by_claims(cons, N)), N
        assert np.array_equal(tiled, _level_array_per_cell(cons, N)), N
        assert int((tiled == N + 1).sum()) == fresh_count(cons, N)
        # a cell of D_N that no level up to N claims is its own rep modulo
        # Gamma_(N+1) and lies in D_N, so levels_at needs no clipping at N+1
        levels = cons.levels_at(cons.domains.box_coords(N))
        assert levels.dtype == LEVEL_DTYPE and np.array_equal(levels, tiled), N


# Histogram and SHA-256 of the comma-joined levels of ``_pinned_points``, as
# the set-based point evaluation (a frozenset of fresh cells per level, read
# off the level arrays) gave them.
LEVELS_AT_PINS = {
    "dihedral-m2": ({1: 366, 2: 332, 3: 771, 4: 102, 5: 85, 6: 80, 7: 49, 8: 215},
                    "5690a533e80b9c185a042d0697e5c68d9eb1bc14eb320739c90bf655e7ad5076"),
    "swap-m2": ({1: 86, 2: 65, 3: 970, 4: 41, 5: 34, 6: 804},
                "b0a2b85a3092a05ed930225c49cb2cf90c1029423db8a799fafff34b41ad0ecf"),
    "williams-m2": ({1: 344, 2: 279, 3: 739, 4: 29, 5: 47, 6: 562},
                    "30d6210c4c424a1bd79e40a3095c1d186aba6c0fe9424dd64558a374e322e00e"),
    "williams-m3": ({1: 340, 2: 289, 3: 742, 4: 24, 5: 43, 6: 562},
                    "4cbde82eb5835247cca7e4d9c906ae747d8b7e3d3c1794dce1ce0a27fcbaf00f"),
    "z2-m2": ({1: 80, 2: 76, 3: 955, 4: 40, 5: 28, 6: 821},
              "d2bf71e2722614ac6e1608370049b8ccd7636968f9d1dfcef680f43b5bc9cde6"),
}


def _pinned_points(deck, seed):
    """1,000 seeded points of the D_2 box, then 1,000 of the D_depth box."""
    dom = deck.domains
    rng = np.random.default_rng(seed)
    return np.concatenate([
        rng.integers(-np.array(dom.q1[lvl - 1]), np.array(dom.q2(lvl)),
                     size=(1000, deck.group.rank))
        for lvl in (2, deck.chain.depth)])


@pytest.mark.parametrize("index,name", list(enumerate(decks.BUNDLED)))
def test_levels_at_matches_pinned_point_levels(index, name):
    deck = decks.bundled_deck(name)
    levels = decks.construction(deck).levels_at(_pinned_points(deck, 1000 + index))
    hist, digest = LEVELS_AT_PINS[name]
    assert dict(Counter(levels.tolist())) == hist
    assert hashlib.sha256(",".join(map(str, levels.tolist())).encode()).hexdigest() == digest


def _deep_z2():
    """z2-m2 with the chain Gamma_i = 5^i Z^2 extended to i = 10."""
    deck = decks.bundled_deck("z2-m2")
    chain = SubgroupChain(tuple((5 ** i, 5 ** i) for i in range(1, 11)))
    return new_construction(deck, DomainChain.auto(chain))


def _balanced_digit_levels(points, depth):
    """1 + the index of the first all-zero balanced base-5 digit vector of
    each point, or depth + 1 when none of its first ``depth`` digits is."""
    rest = points.copy()
    out = np.full(len(points), depth + 1, dtype=np.int16)
    for i in range(depth):
        digit = (rest + 2) % 5 - 2
        first = (out == depth + 1) & np.all(digit == 0, axis=1)
        out[first] = i + 1
        rest = (rest - digit) // 5
    return out


def test_levels_at_depth_ten_matches_balanced_digits(monkeypatch):
    def refuse(self, n):
        raise AssertionError("levels_at must not build a level array or fresh mask")

    cons = _deep_z2()
    monkeypatch.setattr(Construction, "level_array", refuse)
    monkeypatch.setattr(Construction, "fresh_bool", refuse)
    half = (5 ** 10 - 1) // 2  # D_10 is [-half, half] per axis
    points = np.random.default_rng(10).integers(-half, half + 1, size=(100_000, 2))
    levels = cons.levels_at(points)
    assert np.array_equal(levels, _balanced_digit_levels(points, 10))
    assert set(levels.tolist()) == set(range(1, 12))


def test_levels_at_names_the_first_unclaimed_point():
    cons = _deep_z2()
    # 4882813 = 5^10 - (5^10 - 1)/2 has ten balanced digits -2 and lies just
    # outside D_10, so no level claims the last two points; the first is named
    points = np.array([[0, 0], [4882812, 1], [4882813, 1], [4882813, 2]])
    with pytest.raises(DepthExhausted, match=re.escape("(4882813, 1) is not covered")):
        cons.levels_at(points)


def test_level_array_builds_no_coordinates(monkeypatch):
    def refuse(self, i):
        raise AssertionError("the tiled stratification needs no coordinates")

    cons = new_construction(decks.bundled_deck("z2-m2"))
    monkeypatch.setattr(DomainChain, "box_coords", refuse)
    assert len(cons.level_array(3)) == cons.domains.size(3)
    assert int(cons.fresh_bool(2).sum()) == fresh_count(cons, 2)


def test_rep_route_shares_nothing_with_the_tiling(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("the rep route must not read the tiled stratification")

    for name, N in (("z2-m2", 4), ("swap-m2", 3), ("dihedral-m2", 6)):
        deck = decks.bundled_deck(name)
        expected = new_construction(deck).level_array(N)
        with monkeypatch.context() as patch:
            for method in ("level_array", "fresh_bool"):
                patch.setattr(Construction, method, refuse)
            cons = new_construction(deck)
            by_points = cons.levels_at(cons.domains.box_coords(N))
        assert np.array_equal(by_points, expected), name


@pytest.mark.parametrize("swap", [False, True], ids=["one-cell", "count-kept"])
def test_fresh_dual_fails_on_a_flipped_tiled_cell(swap, monkeypatch):
    """One cell of the tiled level-2 mask flipped (or a fresh and a filled
    cell swapped, so the count still matches the closed form): the rep route
    of level 2 reads only the level-1 mask, so it disagrees, and the
    fresh-dual row of the acceptance table fails."""
    fresh_bool = Construction.fresh_bool

    def flipped(self, n):
        mask = fresh_bool(self, n)
        if n == 2:
            mask = mask.copy()
            cells = [np.argmax(mask), np.argmin(mask)] if swap else [0]
            mask[cells] = ~mask[cells]
        return mask

    monkeypatch.setattr(Construction, "fresh_bool", flipped)
    for name in ("z2-m2", "dihedral-m2"):
        cons = decks.construction(decks.bundled_deck(name))
        assert fresh_dual(cons, 1)[1] is True
        sizes, agreed = fresh_dual(cons, 2)
        assert agreed is False
        assert (sizes[2] == fresh_count(cons, 2)) is swap
        assert not check_fresh_dual(name).passed


@pytest.mark.parametrize("name", decks.BUNDLED)
def test_cached_arrays_are_read_only(name):
    """One stray in-place write to a cached array, or to a count kept from
    one, would corrupt every later reader, so each one refuses it."""
    cons = decks.construction(decks.bundled_deck(name))
    N = min(cons.depth, 3)
    win = cons.window(N)
    cached = [cons.symbol_table(), *cons.group._arrays,
              *(cons.domains.box_coords(i) for i in range(1, N + 1)),
              *(cons.domains.translates(i, N) for i in range(1, N + 1)),
              *(cons.level_array(i) for i in range(1, cons.depth + 1)),
              *(cons.fresh_bool(i) for i in range(1, cons.depth + 1)),
              *(win.symbol_array(f) for f in range(cons.group.finite_order)),
              measures._level_counts(cons, N), measures.class_levels(cons, 1, N)]
    for arr in cached:
        corner = (0,) * arr.ndim
        with pytest.raises(ValueError, match="read-only"):
            arr[corner] = arr[corner]


@pytest.mark.parametrize("name", ["dihedral-m2", "z2-m2"])
def test_cached_arrays_go_with_their_instance(name):
    """The cached arrays live on their instance: repeated calls return the
    same object, and a dropped construction, window or domain chain is freed
    with its arrays."""
    deck = decks.bundled_deck(name)
    domains = DomainChain(deck.chain, deck.domains.q1)
    cons = new_construction(deck, domains)
    win = cons.window(3)
    for read in (lambda: cons.level_array(3), lambda: cons.fresh_bool(2),
                 cons.symbol_table, lambda: win.symbol_array(0),
                 lambda: domains.box_coords(2)):
        assert read() is read()
    refs = [weakref.ref(x) for x in (cons, win, domains, win.symbol_array(0))]
    del cons, win, domains, read
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_normal_variant_requires_trivial_finite_part():
    """A deck file's "variant" is checked when the deck loads: "normal"
    needs a trivial F, and no other name than the two is known.  The
    construction reads the marker off F alone, and a deck shows the variant
    its group implies."""
    dihedral, z2 = decks.bundled_deck("dihedral-m2"), decks.bundled_deck("z2-m2")
    doc = decks.deck_to_config(dihedral)
    assert doc["variant"] == "virtually"
    with pytest.raises(SpecError, match="normal variant is only supported for trivial F"):
        decks.deck_from_config({**doc, "variant": "normal"})
    with pytest.raises(SpecError, match="unknown variant 'twisted'"):
        decks.deck_from_config({**doc, "variant": "twisted"})
    assert Construction(dihedral.group, dihedral.domains, 2).alphabet == (BETA, 1, 2)
    assert Construction(z2.group, z2.domains, 2).alphabet == (1, 2)
    trivial = decks.deck_from_config({**decks.deck_to_config(z2), "variant": "virtually"})
    assert decks.deck_to_config(trivial)["variant"] == "normal"


def test_eta_values_first_strata():
    cons = dihedral()
    assert _values(cons, [(0,)], 0) == [(1, 1)]      # alpha_1 on the subgroup
    assert _values(cons, [(0,)], 1) == [(BETA, 1)]   # marker on the other rep
    for f in (0, 1):
        assert _values(cons, _fresh_cells(cons, 1), f) == [(2, 2)] * 4


def test_eta_value_deep_stratum():
    cons = dihedral()
    spec = cons.group
    # gamma in Gamma_2 \ Gamma_3 times a level-1 fresh cell lands in stratum 2
    v, f = spec.mul(spec.mul(((25,), 0), ((1,), 0)), ((0,), 1))
    assert _values(cons, [v], f) == [(2, 2)]


def test_eta_value_depth_exhaustion():
    cons = dihedral()
    depth = cons.depth
    fresh_top = _fresh_cells(cons, depth)[0][0]
    p_top = cons.chain.level(depth)[0]
    # a nontrivial chain translate of a top-level fresh cell sits in a deeper
    # stratum than the configured prefix can name
    with pytest.raises(DepthExhausted, match=re.escape(f"({fresh_top + p_top},)")):
        cons.levels_at(np.array([[fresh_top + p_top]]))


def test_alphabets():
    assert dihedral().alphabet == (BETA, 1, 2)
    assert z2().alphabet == (1, 2)
    win = z2().window(2)
    assert BETA not in set(win.symbol_array(0).tolist())


@pytest.mark.parametrize("name", decks.BUNDLED)
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_symbol_table_matches_symbol_from_level(name, m):
    """The array-built symbol table against its check-only per-cell
    reference, on every level a level array holds and every finite part."""
    deck = decks.bundled_deck(name)
    cons = Construction(deck.group, deck.domains, m)
    table = cons.symbol_table()
    assert table.dtype == SYMBOL_DTYPE
    assert table.tolist() == [[cons.symbol_from_level(l, f) for l in range(cons.depth + 2)]
                              for f in range(cons.group.finite_order)]


def test_symbol_box_reads_outside_past_the_window():
    """A symbol box half outside the window reads OUTSIDE there, the value
    the oracles' ``symbols_at`` and ``ZPatch.at`` read out of reach, and the
    window's own symbols inside, as SYMBOL_DTYPE; a box that misses the
    window reads OUTSIDE throughout."""
    cons = decks.construction(decks.bundled_deck("swap-m2"))
    win, dom = cons.window(2), cons.domains
    p, low = dom.chain.level(2), -np.array(dom.low(2))  # the window's low corner
    box = win.symbol_box(low - 3, low + 4)  # three cells past the window per axis
    assert box.dtype == SYMBOL_DTYPE and box.shape == (2, 8, 8)
    assert (box[:, :3] == OUTSIDE).all() and (box[:, :, :3] == OUTSIDE).all()
    for f in range(2):
        assert np.array_equal(box[f, 3:, 3:], win.symbol_array(f).reshape(p)[:5, :5])
    high = low + np.array(p) - 1
    assert (win.symbol_box(high + 1, high + 2) == OUTSIDE).all()


def test_translate_constancy():
    # eta is constant on gamma + fresh(1) x R for every gamma of Gamma_1 in
    # the level-3 box, with the plain symbol alpha_2 at gamma = 0
    cons = dihedral()
    box = cons.domains.box_coords(3)
    gammas = box[box[:, 0] % 5 == 0]
    cells = np.array(_fresh_cells(cons, 1))
    levels = cons.levels_at((gammas[:, None, :] + cells).reshape(-1, 1))
    symbols = cons.symbol_table()[:, levels].reshape(2, len(gammas), len(cells))
    constant = symbols.transpose(1, 0, 2).reshape(len(gammas), -1)
    assert (constant == constant[:, :1]).all()
    assert set(constant[:, 0].tolist()) == {1, 2}
    assert constant[np.flatnonzero(gammas[:, 0] == 0)[0], 0] == 2


def test_rep_factorization_of_period_sets():
    # Per cap D_n R = (Per cap D_n) R for the plain symbols, n <= 4.  The
    # level-1 stratum is the lone exception: it splits by finite part into
    # the first symbol and the marker, so the factorization holds verbatim
    # on the strata from level 2 up and fails on level 1 exactly.
    cons = dihedral()
    for n in (2, 3, 4):
        level1 = {g for g, (_, lvl) in _cells(cons, n).items() if lvl == 1}
        for alpha in (1, 2):
            per = _period_set(cons, n, n, alpha)
            base = {g[0] for g in per if g[1] == 0}
            rebuilt = {(v, f) for v in base for f in (0, 1)}
            if alpha == cons.alpha(1):
                assert rebuilt - per == {g for g in level1 if g[1] != 0}
                assert per - {g for g in level1 if g[1] == 0} == \
                    rebuilt - level1
            else:
                assert per == rebuilt


def test_essentiality_spot_check():
    # shifting by anything in D_2 R outside Gamma_1 changes some level-1
    # period class on a window
    cons = dihedral()
    spec = cons.group
    read = {g: sym for g, (sym, _) in _cells(cons, 3).items()}.get
    for w in box_reference(cons.domains, 2):
        for f in (0, 1):
            g = (w, f)
            if f == 0 and w[0] % 5 == 0:
                continue  # inside Gamma_1
            witness = False
            for alpha in cons.alphabet:
                exact = _period_set(cons, 3, 1, alpha)
                for h in exact:
                    val = read(spec.mul(spec.inv(g), h))
                    if val is not None and val != alpha:
                        witness = True
                        break
                if witness:
                    break
            assert witness, (w, f)


def test_williams_reduction_level_sets_are_residue_classes():
    # with r = 1 and trivial F both constructions stratify by residue classes
    deck = decks.bundled_deck("williams-m2")
    cons = decks.construction(deck)
    for l in (1, 2, 3):
        p = deck.chain.level(l)[0]
        residues = {}
        for (v, _), (_, lvl) in _cells(cons, 3).items():
            residues.setdefault(v[0] % p, set()).add(lvl == l)
        classes = {r for r, flags in residues.items() if flags == {True}}
        mixed = [r for r, flags in residues.items() if len(flags) > 1]
        assert not mixed
        assert len(classes) == fresh_count(cons, l - 1)

    from toeplitz_lab.williams import generate
    eta = generate(deck.williams, 3 * deck.williams.periods[2])
    p2 = deck.williams.periods[1]
    flags = {}
    for n in range(-2 * p2 * 6, 2 * p2 * 6):
        flags.setdefault(n % p2, set()).add(eta.levels[n + eta.N] == 2)
    assert all(len(v) == 1 for v in flags.values())


def _strata_partition_reference(cons, N):
    """The strata-partition details one cell at a time: claims from sets of
    fresh cells taken from the tiled ``fresh_bool``, the level from
    ``levels_at``, symbols through ``symbol_from_level``."""
    dom = cons.domains
    zero = (0,) * cons.group.rank
    fresh = [{zero}] + [set(_fresh_cells(cons, n)) for n in range(1, N + 1)]
    cells = box_reference(dom, N)
    levels = cons.levels_at(np.array(cells, dtype=np.int64)).tolist()
    bad = undefined = total = 0
    for v, lvl in zip(cells, levels):
        claims = [l for l in range(1, N + 1) if rep_reference(dom, v, l) in fresh[l - 1]]
        if v in fresh[N]:
            claims.append(N + 1)
        total += 1
        if len(claims) != 1:
            bad += 1
            continue
        if lvl != claims[0] or any(
                cons.symbol_from_level(lvl, f) not in cons.alphabet
                for f in range(cons.group.finite_order)):
            undefined += 1
    return {"cells": total * cons.group.finite_order,
            "multi_or_unclaimed": bad, "undefined": undefined}


@pytest.mark.parametrize("name", decks.BUNDLED)
@pytest.mark.parametrize("N", [2, 3])
def test_strata_partition_matches_cell_loop(name, N):
    res = check_strata_partition(name, N)
    want = _strata_partition_reference(decks.construction(decks.bundled_deck(name)), N)
    assert res.details == want
    assert res.passed


@pytest.mark.parametrize("name,N", [("z2-m2", 5), ("swap-m2", 5), ("dihedral-m2", 7)])
def test_strata_partition_at_full_depth(name, N):
    res = check_strata_partition(name, N)
    cons = decks.construction(decks.bundled_deck(name))
    assert N == cons.depth
    assert res.passed
    assert res.details == {"cells": cons.domains.size(N) * cons.group.finite_order,
                           "multi_or_unclaimed": 0, "undefined": 0}


def test_strata_partition_fails_on_a_dropped_fresh_cell(monkeypatch):
    fresh_bool = Construction.fresh_bool

    def dropped(self, n):
        mask = fresh_bool(self, n)
        if n == 1:
            mask = mask.copy()
            mask[np.argmax(mask)] = False
        return mask

    monkeypatch.setattr(Construction, "fresh_bool", dropped)
    res = check_strata_partition("z2-m2")
    assert not res.passed and res.details["multi_or_unclaimed"] > 0
