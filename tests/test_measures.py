import math
import re
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from test_lattice import box_reference
from test_toeplitz import CLASS_DECKS, construction_named, new_construction

from toeplitz_lab import decks, measures, verify
from toeplitz_lab.lattice import SpecError, int_det, unique_rows, vec_add
from toeplitz_lab.periods import census
from toeplitz_lab.toeplitz import BETA, LEVEL_DTYPE, Construction, ConstructionError


def dihedral():
    return decks.construction(decks.bundled_deck("dihedral-m2"))


def z2():
    return decks.construction(decks.bundled_deck("z2-m2"))


def test_marker_mass():
    cons = dihedral()
    assert measures.marker_mass_closed(cons) == Fraction(1, 10)
    for n in (1, 2, 3, 4):
        assert measures.mu_freq_counted(cons, n)[BETA] == Fraction(1, 10)
    # first-level frequencies: the step symbol eats the fresh cells
    f1 = measures.mu_freq_counted(cons, 1)
    assert f1[2] >= Fraction(8, 10)
    assert f1[1] == Fraction(1, 10)
    assert sum(f1.values()) == 1


def test_no_marker_without_reps():
    f = measures.mu_freq_counted(z2(), 2)
    assert BETA not in f
    assert sum(f.values()) == 1


def test_counted_equals_closed_frequencies():
    for cons in (dihedral(), z2()):
        for n in (1, 2, 3, 4):
            assert measures.mu_freq_counted(cons, n) == \
                measures.mu_freq_closed(cons, n)


def test_density_product_examples():
    cons = dihedral()
    c = measures.density_product_check(cons, 0)
    assert c.counted == c.closed == Fraction(1, 5)
    c = measures.density_product_check(cons, 1)
    assert c.counted == c.closed == Fraction(9, 25)  # 1 - (4/5)(1 - 5/25)
    densities = [measures.periodic_density_closed(cons, n) for n in (1, 2, 3, 4)]
    assert all(a <= b for a, b in zip(densities, densities[1:]))


def test_transition_matrix_shape():
    cons = dihedral()
    q = 5
    assert measures.transition_matrix(cons, 2) == ((q, 1), (0, q - 1))
    assert measures.transition_matrix(cons, 1) == ((q - 1, 0), (1, q))
    for n in (1, 2, 3):
        assert measures.transition_det(cons, n) != 0


def test_transition_identities():
    for cons in (dihedral(), z2()):
        assert measures.verify_transition(cons, 1, 4)
        assert measures.verify_transition(cons, 2, 4)
        assert measures.verify_projection(cons, 4)
        assert measures.transition_chain_check(cons, 3, 4)


def _with_m(cons, m):
    """The construction on the same group and chain with m plain symbols."""
    return Construction(cons.group, cons.domains, m)


def _dense(mat, vec):
    return [sum(Fraction(a) * x for a, x in zip(row, vec)) for row in mat]


@pytest.mark.parametrize("name", CLASS_DECKS)
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_closed_forms_match_the_dense_matrices(name, m):
    """A_n and A_0 applied through their closed forms, and det A_n, equal the
    dense matrices' products and determinant, on a vector of distinct
    entries so that every column counts."""
    cons = _with_m(construction_named(name), m)
    vec = tuple(Fraction(7 * j + 2, 3 * j + 11) for j in range(m))
    for n in (1, 2, 3):
        A = measures.transition_matrix(cons, n)
        assert list(measures._apply_transition(cons, n, vec)) == _dense(A, vec), n
        assert measures.transition_det(cons, n) == int_det(A), n
    assert measures._apply_projection(cons, vec) == \
        _dense(measures.projection_matrix(cons), vec)


def test_identities_hold_on_a_wider_alphabet():
    """The transition, chain and projection identities on z2-m2 and
    dihedral-m2 with m = 3 and 4, and a perturbed cell vector is refused."""
    for cons in (dihedral(), z2()):
        for m in (3, 4):
            other = _with_m(cons, m)
            assert measures.verify_transition(other, 1, 4)
            assert measures.verify_transition(other, 2, 4)
            assert measures.verify_projection(other, 4)
            assert measures.transition_chain_check(other, 3, 4)
    vec = measures.mu_cell_vector(z2(), 2, 4)
    bent = (vec[0] + Fraction(1, 625), vec[1] - Fraction(1, 625))
    assert measures._apply_transition(z2(), 1, bent) != measures.mu_cell_vector(z2(), 1, 4)


def test_projection_matrix_examples():
    cons = dihedral()
    A0 = measures.projection_matrix(cons)
    assert A0 == ((9, 1), (0, 8), (1, 1))
    cells = cons.domains.size(1) * cons.group.finite_order
    for j in range(2):
        assert sum(row[j] for row in A0) == cells  # columns sum to |D_1 R|
    flat = measures.projection_matrix(z2())
    assert all(x == 0 for x in flat[-1])  # no marker row without reps


def test_simplex_vertices():
    cons = dihedral()
    for N in (2, 3, 4):
        verts = measures.simplex_vertices(cons, N)
        assert len(verts) == 2
        for v in verts:
            assert sum(v) == 1
            assert v[-1] == Fraction(1, 10)  # marker coordinate is level-1 fixed
        d = measures.periodic_density_closed(cons, N)
        gap = verts[0][0] - verts[1][0]
        assert gap == (1 - d) == verts[1][1] - verts[0][1]


def test_closed_frequencies_favour_the_next_step_symbol():
    # mu_n leaves its free mass to the symbol filled at step n+1, so on the
    # two-symbol dihedral deck even levels favour 1 and odd levels favour 2
    cons = dihedral()
    for n in (2, 3, 4, 5):
        mu = measures.mu_freq_closed(cons, n)
        lead, other = (1, 2) if n % 2 == 0 else (2, 1)
        assert mu[lead] > mu[other]
        assert mu[BETA] == Fraction(1, 10)
    for n in (2, 4):
        mu = measures.mu_freq_closed(cons, n)
        assert mu[1] - mu[2] >= 1 - 2 * measures.periodic_density_closed(cons, n)


def test_dominant_class_mass_values():
    cons = dihedral()
    mass, bound = measures.dominant_class_mass(cons, 1, 1, 2)
    assert mass == Fraction(21, 25) and bound == Fraction(1, 50)
    mass, bound = measures.dominant_class_mass(cons, 1, 1, 3)
    assert mass == Fraction(461, 625) and mass >= bound
    with pytest.raises(SpecError):
        measures.dominant_class_mass(cons, 1, 2, 2)  # needs s > k


def _class_symbols(cons, n, N):
    """(gamma, class symbol) for every gamma in Gamma_n inside the D_N box,
    from the class table."""
    gammas = map(tuple, cons.domains.translates(n, N).tolist())
    syms = cons.symbol_table()[0][measures.class_levels(cons, n, N)]
    return list(zip(gammas, syms.tolist()))


def test_cell_symbols_constancy_and_counts():
    cons = dihedral()
    cells = _class_symbols(cons, 1, 3)
    assert len(cells) == 25
    from collections import Counter
    hist = Counter(sym for _, sym in cells)
    assert hist == {1: 4, 2: 21}


def _fresh_cells(cons, n):
    """The level-n fresh cells of the tiled mask as sorted lattice points."""
    cells = np.argwhere(cons.fresh_bool(n).reshape(cons.chain.level(n)))
    return [tuple(c) for c in (cells - np.array(cons.domains.q1[n - 1])).tolist()]


def _recount(cons, n, N):
    """(gamma, class symbol) by point evaluation of every cell of every class."""
    out = []
    cells = np.array(_fresh_cells(cons, n))
    for gamma in box_reference(cons.domains, N):
        if any(x % p for x, p in zip(gamma, cons.chain.level(n))):
            continue  # not in Gamma_n
        syms = set(cons.symbol_table()[:, cons.levels_at(cells + gamma)].ravel().tolist())
        assert len(syms) == 1, gamma
        out.append((gamma, syms.pop()))
    return out


def test_cell_symbols_match_point_recount():
    swap = decks.construction(decks.bundled_deck("swap-m2"))
    for cons, pairs in ((dihedral(), ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4))),
                        (z2(), ((1, 2), (1, 3), (2, 3))),
                        (swap, ((1, 2), (1, 3)))):
        for n, N in pairs:
            assert _class_symbols(cons, n, N) == _recount(cons, n, N), (n, N)


GROUP_DECKS = ("z2-m2", "swap-m2", "dihedral-m2")


def _class_levels_reference(cons, n, N):
    """Class levels by cutting the level-N array into one p^n block per
    translate (block axes first, in lex order of the translate), gathering
    every class row at the level-n fresh cells and reducing it by min and
    max."""
    p, P = cons.chain.level(n), cons.chain.level(N)
    rank = len(p)
    split = [x for a, b in zip(p, P) for x in (b // a, a)]
    blocks = cons.level_array(N).reshape(split).transpose(
        tuple(range(0, 2 * rank, 2)) + tuple(range(1, 2 * rank, 2)))
    fresh = cons.fresh_bool(n)
    cells = blocks[..., fresh.reshape(p)].reshape(-1, np.count_nonzero(fresh))
    lo, hi = cells.min(axis=1), cells.max(axis=1)
    assert (lo > 1).all() and (lo == hi).all()
    return lo


@pytest.mark.parametrize("name", GROUP_DECKS)
def test_level_counts_match_bincount(name):
    cons = decks.construction(decks.bundled_deck(name))
    for n in range(1, cons.depth + 1):
        want = np.bincount(cons.level_array(n), minlength=n + 2)
        assert measures._level_counts(cons, n).tolist() == want.tolist(), n


@pytest.mark.parametrize("value", ["zero", "past-top"])
def test_level_counts_refuse_a_level_outside_the_range(monkeypatch, value):
    cons = new_construction(decks.bundled_deck("z2-m2"))
    n, flat = 3, 4321
    fns = (measures.mu_freq_counted, measures.periodic_density_counted)
    for fn in fns:  # the clean array is counted, and its counts are kept
        fn(cons, n)
    bad = cons.level_array(n).copy()
    assert bad.dtype == LEVEL_DTYPE and bad.flags.writeable
    bad[flat] = 0 if value == "zero" else n + 2
    monkeypatch.setattr(cons, "level_array", lambda N: bad)
    msg = f"level {bad[flat]} at flat index {flat} of the level-{n} array is outside 1..{n + 1}"
    # the identities read the served array; the counter refuses it directly too
    for call in [partial(fn, cons, n) for fn in fns] + [partial(measures._count_levels, n, bad)]:
        with pytest.raises(ConstructionError, match=re.escape(msg)):
            call()


def test_identities_count_each_level_array_once(monkeypatch):
    cons = new_construction(decks.bundled_deck("z2-m2"))
    counted, built = [], []
    count_levels, class_table = measures._count_levels, measures._class_table

    def counting(n, lvl):
        counted.append(n)
        return count_levels(n, lvl)

    def building(cons, n, N, levels, fresh):
        built.append((n, N))
        return class_table(cons, n, N, levels, fresh)

    monkeypatch.setattr(measures, "_count_levels", counting)
    monkeypatch.setattr(measures, "_class_table", building)
    N = 5
    assert measures.mu_freq_counted(cons, N) == measures.mu_freq_closed(cons, N)
    for n in range(N):
        assert measures.density_product_check(cons, n).equal
    assert measures.verify_projection(cons, N)
    for n in range(1, N - 1):
        assert measures.verify_transition(cons, n, N)
    assert sorted(counted) == [1, 2, 3, 4, 5]
    assert sorted(built) == [(1, N), (2, N), (3, N), (4, N)]


def _refuse(self, *args):
    raise AssertionError("the claim rule reads no level array or fresh mask")


@pytest.mark.parametrize("name", CLASS_DECKS)
def test_class_levels_match_gathered_rows(name, monkeypatch):
    """The claim rule's table equals the class rows gathered off the tiled
    array at every (n, N), and it is built with the level arrays and fresh
    masks refused."""
    cons = construction_named(name)
    for N in range(2, cons.depth + 1):
        for n in range(1, N):
            got = measures.class_levels(cons, n, N)
            want = _class_levels_reference(cons, n, N)
            assert got.dtype == want.dtype and np.array_equal(got, want), (n, N)
    with monkeypatch.context() as patch:
        for method in ("level_array", "fresh_bool"):
            patch.setattr(Construction, method, _refuse)
        claimed = {(n, N): cons.first_claims(
                       np.ix_(*cons.domains.translate_axes(n, N)), n + 1, N).ravel()
                   for N in range(2, cons.depth + 1) for n in range(1, N)}
    for (n, N), table in claimed.items():
        assert np.array_equal(table, measures.class_levels(cons, n, N)), (n, N)


@pytest.mark.parametrize("name", GROUP_DECKS)
def test_class_levels_at_their_own_level_and_shallower(name):
    """At N = n the one class is D_n itself, at level n + 1, named by the
    zero translate; a shallower box is refused."""
    cons = decks.construction(decks.bundled_deck(name))
    for n in range(1, cons.depth + 1):
        assert measures.class_levels(cons, n, n).tolist() == [n + 1], n
        assert cons.domains.translates(n, n).tolist() == [[0] * cons.group.rank], n
    with pytest.raises(SpecError, match="level-2 box is shallower than the level-3"):
        measures.class_levels(cons, 3, 2)


def _corrupt(monkeypatch, cons, N, cells):
    """Serve a copy of the level-N array with the given (cell, level) changes."""
    bad = cons.level_array(N).copy()
    for v, level in cells:
        flat = int(np.ravel_multi_index(np.add(v, cons.domains.q1[N - 1]),
                                         cons.domains.chain.level(N)))
        bad[flat] = level if bad[flat] != level else level + 1
    real = cons.level_array
    monkeypatch.setattr(cons, "level_array", lambda M: bad if M == N else real(M))


# (1, 3) has 625 classes of 24 fresh cells, (3, 4) has 25 classes of 13,824
PAIRS = ((1, 3), (3, 4))


@pytest.mark.parametrize("level", [1, 3])
def test_corrupted_level_array_names_the_witness(monkeypatch, level):
    for (n, N), index in zip(PAIRS, (37, 11)):
        cons = new_construction(decks.bundled_deck("z2-m2"))
        gamma, _ = _class_symbols(cons, n, N)[index]
        cell = _fresh_cells(cons, n)[5]
        _corrupt(monkeypatch, cons, N, [(vec_add(gamma, cell), level)])
        for fn in (measures.class_levels, measures.mu_cell_vector):
            with pytest.raises(ConstructionError, match=re.escape(f"gamma={gamma} ")):
                fn(cons, n, N)


@pytest.mark.parametrize("n,N", PAIRS)
def test_the_first_disagreeing_class_is_named(monkeypatch, n, N):
    """A cell at the marker level has no priority: it is one more
    disagreement, and the first class in lex order that holds one is named."""
    cons = new_construction(decks.bundled_deck("z2-m2"))
    classes = _class_symbols(cons, n, N)
    early, late = classes[2][0], classes[20][0]
    cells = _fresh_cells(cons, n)
    _corrupt(monkeypatch, cons, N, [(vec_add(early, cells[-1]), 3),
                                    (vec_add(late, cells[-1]), 1)])
    with pytest.raises(ConstructionError, match=re.escape(f"gamma={early} ")):
        measures.class_levels(cons, n, N)


@pytest.mark.parametrize("n,N", PAIRS)
def test_a_constant_class_at_a_wrong_level_is_refused(monkeypatch, n, N):
    """Every fresh cell of one translate moved to the same wrong level, at
    least 2: the class is still constant, but not at the level the claim rule
    gives it, so the class table, the cell vector and the census refuse it,
    naming that gamma."""
    cons = new_construction(decks.bundled_deck("z2-m2"))
    gamma, _ = _class_symbols(cons, n, N)[7]
    right = int(measures.class_levels(cons, n, N)[7])
    wrong = 2 if right != 2 else 3
    _corrupt(monkeypatch, cons, N, [(vec_add(gamma, cell), wrong)
                                    for cell in _fresh_cells(cons, n)])
    for fn in (measures.class_levels, measures.mu_cell_vector,
               lambda cons, n, N: census(cons, n, 0, N)):
        with pytest.raises(ConstructionError, match=re.escape(f"gamma={gamma} ")):
            fn(cons, n, N)


def test_complexity_profile():
    flat = np.zeros(1000, dtype=np.int16)
    prof = measures.complexity_profile(flat, [2, 3, 4])
    assert [c for _, c, _ in prof] == [1, 1, 1]
    with pytest.raises(SpecError, match=re.escape(
            "radius 5: a window of width 11 has 10 placements in a sequence of "
            "length 20, fewer than the 100 a profile needs")):
        measures.complexity_profile(flat[:20], [5])
    with pytest.raises(SpecError, match=re.escape(
            "radius 50: a window of width 101 has 0 placements in a sequence of "
            "length 21, fewer than the 100 a profile needs")):
        measures.complexity_profile(flat[:21], [50])
    rng = np.random.default_rng(1)
    noisy = rng.integers(0, 2, size=2000).astype(np.int16)
    prof = measures.complexity_profile(noisy, [2])
    assert prof[0][1] == 32  # all length-5 words occur


def test_complexity_profile_matches_unique_rows_on_the_check_inputs(monkeypatch):
    """On the inputs of criterion 12, the ``williams-m2`` prefix and the
    seeded control at radii 2-8, each count is that of the distinct rows of
    the sliding windows by ``unique_rows``."""
    calls = []
    profile = measures.complexity_profile

    def spy(symbols, radii):
        calls.append((np.array(symbols), list(radii)))
        return profile(symbols, radii)

    monkeypatch.setattr(measures, "complexity_profile", spy)
    verify.check_complexity("williams-m2")
    assert len(calls) == 2
    for symbols, radii in calls:
        assert radii == list(range(2, 9))
        want = []
        for s in radii:
            windows = np.lib.stride_tricks.sliding_window_view(symbols, 2 * s + 1)
            count = len(unique_rows(windows)[0])
            want.append((s, count, math.log2(count) / (2 * s + 1)))
        assert profile(symbols, radii) == want


def test_fresh_count_matches_enumeration():
    for cons in (dihedral(), z2()):
        for n in (1, 2, 3):
            levels = cons.levels_at(cons.domains.box_coords(n))
            assert measures.fresh_count(cons, n) == np.count_nonzero(levels == n + 1)
