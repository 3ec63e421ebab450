import random
import re
import time
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from toeplitz_lab import decks, independence, verify
from toeplitz_lab.independence import (
    _first_true_index,
    _in_search_order,
    _pack,
    _packed_masks,
    _site_translates,
    Certificate,
    CertificateWindowError,
    Cylinder,
    GOracle,
    PullbackOracle,
    ZOracle,
    check_certificate,
    entropy_bounds_bits,
    find_independence_set,
    g_candidates,
    regional_witness_from_certificate,
    transport_certificate,
    z_candidates,
)
from toeplitz_lab.lattice import SpecError, search_key
from toeplitz_lab.pullback import HomSpec, section_element, section_vector
from toeplitz_lab.toeplitz import OUTSIDE, SYMBOL_DTYPE, Construction, EtaWindow
from toeplitz_lab.williams import generate


def wdeck():
    return decks.bundled_deck("williams-m2")


def build_oracle(margin=433):
    wp = wdeck().williams
    eta = generate(wp, 2 * wp.periods[3] + wp.periods[2] + 50)
    return ZOracle(eta, margin=margin)


def symbol_cylinders(k):
    return [Cylinder.single_site(1, s) for s in range(k)]


def test_z_oracle_margin_must_leave_a_grid():
    """A margin outside 0 .. N - 1 is refused by name.  Margin 0 keeps the
    whole patch as the grid and reads only the shift 0; margin N - 1 keeps
    three cells and reads every shift up to N - 1."""
    eta = generate(wdeck().williams, 2000)
    for margin in (-1, -5, eta.N, eta.N + 1):
        with pytest.raises(SpecError, match=f"got {margin}$"):
            ZOracle(eta, margin=margin)
    whole, narrow = ZOracle(eta, margin=0), ZOracle(eta, margin=eta.N - 1)
    assert len(whole.grid[1]) == 2 * eta.N + 1
    assert narrow.grid[0].ravel().tolist() == [-1, 0, 1]
    assert whole.site_bits([[0, 0]], 1) == _pack(eta.symbols == 1)
    for oracle, shift in ((whole, 1), (whole, -1), (narrow, eta.N), (narrow, -eta.N)):
        with pytest.raises(CertificateWindowError):
            oracle.site_bits([[shift, 0]], 1)
    for shift in (eta.N - 1, 1 - eta.N):
        want = eta.symbols[shift - 1 + eta.N:shift + 2 + eta.N] == 1
        assert narrow.site_bits([[shift, 0]], 1) == _pack(want)
    res = find_independence_set(symbol_cylinders(2), 2, ZOracle(eta, margin=5),
                                z_candidates(40), wdeck().group)
    assert res.status == "found" and res.steps == 2


def test_cylinder_validation():
    with pytest.raises(SpecError):
        Cylinder((), ())
    with pytest.raises(SpecError):
        Cylinder((((0,), 0),), (1, 2))


def test_single_cylinder_always_independent():
    oracle = build_oracle()
    spec = wdeck().group
    res = find_independence_set(symbol_cylinders(1), 4, oracle,
                                z_candidates(30), spec)
    assert res.status == "found" and res.certificate.size == 4
    assert check_certificate(res.certificate, oracle, spec)


def test_pair_search_and_reverify_on_larger_window():
    deck = wdeck()
    oracle = build_oracle()
    res = find_independence_set(symbol_cylinders(2), 2, oracle,
                                z_candidates(deck.williams.periods[2]),
                                deck.group)
    assert res.status == "found"
    # soundness: a fresh, larger oracle accepts the same certificate
    bigger = ZOracle(generate(deck.williams,
                              3 * deck.williams.periods[3]), margin=500)
    assert check_certificate(res.certificate, bigger, deck.group)


def test_witnesses_missing_window_raise():
    deck = wdeck()
    oracle = build_oracle()
    res = find_independence_set(symbol_cylinders(2), 2, oracle,
                                z_candidates(40), deck.group)
    tiny = ZOracle(generate(deck.williams, 60), margin=10)
    with pytest.raises(CertificateWindowError):
        check_certificate(res.certificate, tiny, deck.group)


def test_tampered_certificate_fails():
    deck = wdeck()
    oracle = build_oracle()
    res = find_independence_set(symbol_cylinders(2), 2, oracle,
                                z_candidates(40), deck.group)
    cert = res.certificate
    # swapping the cylinder patterns invalidates every recorded witness
    swapped = (cert.cylinders[1], cert.cylinders[0])
    bad = Certificate(swapped, cert.independence_set, cert.witnesses)
    assert not check_certificate(bad, oracle, deck.group)


def test_pigeonhole_none_and_budget_exhaustion():
    deck = wdeck()
    oracle = build_oracle()
    bad = symbol_cylinders(3)  # one more than the alphabet carries
    res = find_independence_set(bad, 1, oracle, z_candidates(30), deck.group)
    assert res.status == "none"
    res2 = find_independence_set(symbol_cylinders(2), 3, oracle,
                                 z_candidates(400), deck.group, max_steps=3)
    assert res2.status == "exhausted" and res2.certificate is None


def test_search_order_is_canonical():
    deck = wdeck()
    oracle = build_oracle()
    res = find_independence_set(symbol_cylinders(2), 2, oracle,
                                z_candidates(40), deck.group)
    J = res.certificate.independence_set
    assert J[0] == ((0,), 0)  # the first feasible candidate in canonical order


def test_certificate_json_roundtrip():
    deck = wdeck()
    oracle = build_oracle()
    res = find_independence_set(symbol_cylinders(2), 2, oracle,
                                z_candidates(40), deck.group)
    clone = Certificate.from_json(res.certificate.to_json())
    assert clone == res.certificate
    assert check_certificate(clone, oracle, deck.group)


def test_group_deck_search():
    deck = decks.bundled_deck("dihedral-m2")
    cons = decks.construction(deck)
    oracle = GOracle(cons.window(3))
    cyls = [Cylinder.single_site(1, 1), Cylinder.single_site(1, 2)]
    res = find_independence_set(cyls, 2, oracle, g_candidates(deck.group, 12),
                                deck.group)
    assert res.status == "found"
    assert check_certificate(res.certificate, oracle, deck.group)


@pytest.mark.parametrize("name", ["z2-m2", "dihedral-m2", "swap-m2"])
def test_group_site_values_match_pointwise_reads(name):
    """site_bits of the translates of sampled shifts a against eta read
    through levels_at: finite part h reads the core moved by the lattice
    part of (0, h) a, at that translate's finite part, and bit i is set
    where grid cell i reads the symbol.  Shifts that move the core out of
    the window are refused."""
    cons = decks.construction(decks.bundled_deck(name))
    spec, dom = cons.group, cons.domains
    win = cons.window(3)
    oracle = GOracle(win)
    rng = random.Random(3)
    refused = 0
    for _ in range(40):
        a = (tuple(rng.randint(-60, 60) for _ in range(spec.rank)),
             rng.randrange(spec.finite_order))
        moved = _translates(spec, a)
        want = []
        inside = True
        for *v, fpart in moved:
            pos = oracle.core + np.asarray(v)
            if not dom.in_box_arr(pos, win.N).all():
                inside = False
                break
            want.extend(cons.symbol_table()[fpart, cons.levels_at(pos)].tolist())
        for sym in (0, *cons.alphabet):
            if not inside:
                with pytest.raises(CertificateWindowError):
                    oracle.site_bits(moved, sym)
                continue
            bits = oracle.site_bits(moved, sym)
            assert [bits >> i & 1 for i in range(len(want))] == \
                [int(x == sym) for x in want]
            assert bits >> len(want) == 0
        refused += not inside
    assert 0 < refused < 40


def _translates(spec, a):
    """What site_bits reads for a shift a, by the check-only reference: the
    translate (0, h) a for every finite part h, as a row [v_1, .., v_r, f]."""
    zero = (0,) * spec.rank
    return [[*v, f] for v, f in (spec.mul((zero, h), a) for h in range(spec.finite_order))]


def _z_oracle(name):
    deck = decks.bundled_deck(name)
    wp = deck.williams
    p3, p4 = wp.periods[2], wp.periods[3]
    return ZOracle(generate(wp, 2 * p4 + p3 + 50), margin=p3 + 1), deck.group, 1000


def _pullback_oracle(name):
    group = decks.bundled_deck(name).group
    eta = generate(wdeck().williams, 500)
    return PullbackOracle(HomSpec((1, 1)), group, eta, radius=6), group, 300


def _g_oracle(name):
    cons = decks.construction(decks.bundled_deck(name))
    return GOracle(cons.window(3)), cons.group, 60


# name -> (oracle, group, reach of the sampled shifts)
ORACLE_CASES = {
    "z:williams-m2": lambda: _z_oracle("williams-m2"),
    "z:williams-m3": lambda: _z_oracle("williams-m3"),
    "pullback:z2-m2": lambda: _pullback_oracle("z2-m2"),
    "pullback:swap-m2": lambda: _pullback_oracle("swap-m2"),
    "g:z2-m2": lambda: _g_oracle("z2-m2"),
    "g:swap-m2": lambda: _g_oracle("swap-m2"),
    "g:dihedral-m2": lambda: _g_oracle("dihedral-m2"),
}


def _readable(oracle, v, f):
    """Whether the oracle's window holds each element, stated per oracle type
    apart from the oracles' code: the 1-d patch [-N, N], the window box, and
    the source patch under phi."""
    if isinstance(oracle, ZOracle):
        return np.abs(v[:, 0]) <= oracle.patch.N
    if isinstance(oracle, GOracle):
        return oracle.cons.domains.in_box_arr(v, oracle.win.N)
    return np.abs(v @ np.array(oracle.hom.w)) <= oracle.source.N


def _grid_read(oracle, spec, a):
    """symbols_at at every grid element times a, and whether the window holds
    each of them."""
    v, f = spec.mul_arr(*oracle.grid, np.array(a[0]), a[1])
    return oracle.symbols_at(v, f), _readable(oracle, v, f)


def _shift_reader(oracle, spec):
    """The search reference's read of one shift a: the symbols at every grid
    element times a, or None where the window does not hold them all.

    A GOracle's window box is read once through symbols_at (so through
    ``levels_at``, never the window arrays), and each shift gathers from that
    read by its own ``mul_arr`` and flat index; other oracles read each shift
    through symbols_at."""
    if not isinstance(oracle, GOracle):
        def read(a):
            got, inside = _grid_read(oracle, spec, a)
            return got if inside.all() else None
        return read
    dom, N = oracle.cons.domains, oracle.win.N
    box, F = dom.box_coords(N), spec.finite_order
    syms = oracle.symbols_at(np.tile(box, (F, 1)),
                             np.repeat(np.arange(F), len(box))).reshape(F, -1)
    low = np.array(dom.q1[N - 1])

    def read(a):
        v, f = spec.mul_arr(*oracle.grid, np.array(a[0]), a[1])
        if not _readable(oracle, v, f).all():
            return None
        return syms[f, np.ravel_multi_index(tuple((v + low).T), dom.chain.level(N))]
    return read


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_site_values_match_symbols_at(case):
    """The search's read site_bits of the translates of a shift a is the
    re-check's read symbols_at at every grid element times a, compared with
    sym and packed (bit i for grid cell i); site_bits refuses a shift exactly
    when the window does not hold every such element, and symbols_at reads
    OUTSIDE exactly on the elements it does not hold."""
    oracle, spec, reach = ORACLE_CASES[case]()
    rng = random.Random(5)
    refused = 0
    for _ in range(40):
        a = (tuple(rng.randint(-reach, reach) for _ in range(spec.rank)),
             rng.randrange(spec.finite_order))
        got, readable = _grid_read(oracle, spec, a)
        assert got.dtype == SYMBOL_DTYPE
        assert np.array_equal(got == OUTSIDE, ~readable)
        inside = readable.all()
        moved = _translates(spec, a)
        for sym in (0, 1, 2, 3):
            if not inside:
                with pytest.raises(CertificateWindowError):
                    oracle.site_bits(moved, sym)
                continue
            want = int.from_bytes(np.packbits(got == sym, bitorder="little").tobytes(),
                                  "little")
            assert oracle.site_bits(moved, sym) == want
        refused += not inside
    assert 0 < refused < 40


@pytest.mark.parametrize("name,w", [("z2-m2", (2, -3)), ("swap-m2", (1, 1))])
def test_pullback_site_bits_refuse_exactly_the_shifts_leaving_the_source(name, w):
    """A shift a = n u (u the section vector, so phi(a) = n, and phi((0, h) a)
    = n for every h under these weights) reads the source at phi(grid) + n,
    which spans [-reach, reach] + n with reach = 6 (|w_1| + |w_2|).
    site_bits refuses it exactly when that leaves [-N, N], and otherwise
    reads what ``ZPatch.symbol`` reads cell by cell."""
    group = decks.bundled_deck(name).group
    eta = generate(wdeck().williams, 500)
    oracle = PullbackOracle(HomSpec(w), group, eta, radius=6)
    reach = 6 * sum(map(abs, w))
    phi = (oracle.grid[0] @ np.array(w)).tolist()
    assert max(phi) == reach
    u = section_vector(HomSpec(w))
    edge = eta.N - reach
    for n in (0, *range(edge - 2, edge + 3), *range(-edge - 2, -edge + 3)):
        moved = _translates(group, (tuple(n * x for x in u), 1 % group.finite_order))
        for sym in (0, 1):
            if abs(n) > edge:
                with pytest.raises(CertificateWindowError):
                    oracle.site_bits(moved, sym)
                continue
            bits = oracle.site_bits(moved, sym)
            assert [bits >> i & 1 for i in range(len(phi))] == \
                [int(eta.symbol(x + n) == sym) for x in phi]
            assert bits >> len(phi) == 0


@pytest.mark.parametrize("name", decks.BUNDLED)
def test_site_translates_match_the_reference(name):
    """The search's products: row [c][s] holds the translates (0, h) g^-1 s of
    candidate g = cand[c] and site s = sites[s], by the check-only reference."""
    spec = decks.bundled_deck(name).group
    rng = random.Random(11)

    def draw():
        return (tuple(rng.randint(-50, 50) for _ in range(spec.rank)),
                rng.randrange(spec.finite_order))
    cand, sites = [draw() for _ in range(7)], [draw() for _ in range(3)]
    assert _site_translates(spec, cand, sites) == \
        [[_translates(spec, spec.mul(spec.inv(g), s)) for s in sites] for g in cand]
    assert _site_translates(spec, [], sites) == []


def _z_certificate():
    oracle = build_oracle()
    res = find_independence_set(symbol_cylinders(2), 2, oracle,
                                z_candidates(40), wdeck().group)
    return res.certificate, oracle, wdeck().group


def _g_certificate():
    deck = decks.bundled_deck("z2-m2")
    oracle = GOracle(decks.construction(deck).window(3))
    cyls = [Cylinder.single_site(2, s) for s in (1, 2)]
    res = find_independence_set(cyls, 2, oracle, g_candidates(deck.group, 8),
                                deck.group)
    return res.certificate, oracle, deck.group


def _pullback_certificate():
    cert, zo, _ = _z_certificate()
    swap = decks.bundled_deck("swap-m2").group
    po = PullbackOracle(HomSpec((1, 1)), swap, zo.patch, radius=4)
    return transport_certificate(HomSpec((1, 1)), swap, cert, po), po, swap


CERTIFICATE_CASES = {"z": _z_certificate, "g": _g_certificate,
                     "pullback": _pullback_certificate}


@pytest.mark.parametrize("case", CERTIFICATE_CASES)
def test_first_failing_read_decides_the_recheck(case, monkeypatch):
    """Reads run per assignment in product order; the first failing read
    decides, whether a mismatch (False) or a miss (raises, naming the
    witness), and a missing witness fails only after the reads before it.
    Every re-check reads the oracle once."""
    cert, oracle, spec = CERTIFICATE_CASES[case]()
    assert cert.size == 2 and len(cert.cylinders) == 2
    far = ((10 ** 6,) * spec.rank, 0)
    calls = []
    read = oracle.symbols_at
    monkeypatch.setattr(oracle, "symbols_at", lambda v, f: calls.append(1) or read(v, f))

    def check(changes):
        """Re-check the certificate with some witnesses replaced (None
        deletes one)."""
        wits = {a: h for a, h in {**cert.witnesses, **changes}.items() if h is not None}
        before = len(calls)
        try:
            return check_certificate(Certificate(cert.cylinders, cert.independence_set,
                                                 wits), oracle, spec)
        finally:
            assert len(calls) == before + 1

    w = cert.witnesses
    assert check({})
    # the witness of (2, 1) reads cylinder 2 where (1, 1) needs cylinder 1
    assert check({(1, 1): w[(2, 1)], (2, 2): far}) is False
    with pytest.raises(CertificateWindowError, match=re.escape(str(far))):
        check({(1, 1): far, (2, 2): w[(1, 2)]})
    assert check({(2, 2): None}) is False
    assert check({(1, 1): None}) is False  # no read comes before it
    with pytest.raises(CertificateWindowError, match=re.escape(str(far))):
        check({(1, 1): far, (2, 2): None})


@pytest.mark.parametrize("case", ["z", "pullback"])
def test_undefined_cell_is_a_wrong_witness_not_a_window_miss(case):
    """A witness whose first read lands on an Undefined cell inside a 1-d
    window fails the re-check (False); one whose read leaves the window
    still raises.  The williams-m2 search patch (N = 21,218) leaves cell
    -19,217 Undefined."""
    cert, oracle, spec = CERTIFICATE_CASES[case]()
    patch, hom = (oracle.patch, HomSpec((1,))) if case == "z" else (oracle.source, oracle.hom)
    n = -19217
    assert patch.N == 21218 and patch.symbol(n) is None
    # the first read of assignment (1, 1) is h g^-1 at g = J[0]: phi of it is
    # phi(h) - phi(g), for the cylinders' single site at the identity
    g = cert.independence_set[0]
    assert all(c.shape == (spec.identity,) for c in cert.cylinders)

    def moved(target):
        h = section_element(hom, target + sum(a * x for a, x in zip(hom.w, g[0])))
        wits = {**cert.witnesses, (1, 1): h}
        return Certificate(cert.cylinders, cert.independence_set, wits)

    assert check_certificate(moved(n), oracle, spec) is False
    with pytest.raises(CertificateWindowError, match="outside the window"):
        check_certificate(moved(patch.N + 1), oracle, spec)


def test_group_recheck_reads_no_window_array(monkeypatch):
    """check_certificate on a GOracle goes through Construction.levels_at:
    it passes with the window's level and symbol arrays made unreadable."""
    cert, oracle, spec = _g_certificate()

    def unreadable(*args, **kwargs):
        raise RuntimeError("window array read during the re-check")

    monkeypatch.setattr(Construction, "level_array", unreadable)
    monkeypatch.setattr(EtaWindow, "symbol_array", unreadable)
    with pytest.raises(RuntimeError):
        oracle.win.symbol_array(0)
    assert check_certificate(Certificate.from_json(cert.to_json()), oracle, spec)


def test_transport_preserves_size():
    wm2 = wdeck()
    z2 = decks.bundled_deck("z2-m2")
    hom = HomSpec((1, 0))
    eta = generate(wm2.williams, 2 * wm2.williams.periods[3] + 500)
    zo = ZOracle(eta, margin=433)
    res = find_independence_set(symbol_cylinders(2), 3, zo,
                                z_candidates(wm2.williams.periods[2]),
                                wm2.group)
    po = PullbackOracle(hom, z2.group, eta, radius=4)
    out = transport_certificate(hom, z2.group, res.certificate, po)
    assert out.size == res.certificate.size == 3
    # a singleton transports trivially
    single = find_independence_set(symbol_cylinders(2), 1, zo,
                                   z_candidates(wm2.williams.periods[2]),
                                   wm2.group).certificate
    assert transport_certificate(hom, z2.group, single, po).size == 1


def test_regional_witness_replay():
    deck = wdeck()
    oracle = build_oracle()
    res = find_independence_set(symbol_cylinders(2), 2, oracle,
                                z_candidates(60), deck.group)
    g0 = regional_witness_from_certificate(res.certificate, oracle, deck.group)
    g, h = res.certificate.independence_set[:2]
    assert g0 == deck.group.mul(h, deck.group.inv(g))


def test_entropy_bounds():
    lo, hi = entropy_bounds_bits(2, 2)
    assert lo == hi == 1.0
    lo, hi = entropy_bounds_bits(2, 16)
    assert lo == 1.0 and hi == 4.0
    with pytest.raises(AssertionError):
        entropy_bounds_bits(5, 2)
    # decided on the integers: their log2 floats are equal
    with pytest.raises(AssertionError):
        entropy_bounds_bits(2**53 + 1, 2**53)


# -- the search against its numpy reference -------------------------------------


def _find_independence_set_reference(cylinders, target_size, oracle, candidates,
                                     spec, max_steps=independence.MAX_STEPS,
                                     deadline=None):
    """``find_independence_set`` with witness masks as ``np.packbits`` arrays
    (most significant bit first) read through ``symbols_at`` by
    ``_shift_reader``, a table keyed by assignment tuples, and every candidate
    tried at every node: the search before masks became int bitsets and nodes
    got pools."""
    cylinders = tuple(cylinders)
    k = len(cylinders)
    cand = sorted(set(candidates), key=search_key)
    mask_memo = {}
    reads = {}
    read = _shift_reader(oracle, spec)

    def site_read(a):
        if a not in reads:
            reads[a] = read(a)
        if reads[a] is None:
            raise CertificateWindowError(a)
        return reads[a]

    def masks_for(g):
        if g not in mask_memo:
            ginv = spec.inv(g)
            out = []
            for cyl in cylinders:
                mask = None
                for site, sym in zip(cyl.shape, cyl.pattern):
                    m = site_read(spec.mul(ginv, site)) == sym
                    mask = m if mask is None else (mask & m)
                out.append(np.packbits(mask))
            mask_memo[g] = out
        return mask_memo[g]

    gv, gf = oracle.grid
    root = np.packbits(np.ones(len(gf), dtype=bool))
    steps = 0
    out_of_time = False

    def dfs(start, chosen, table):
        nonlocal steps, out_of_time
        if len(chosen) == target_size:
            return chosen, table
        for idx in range(start, len(cand)):
            steps += 1
            if steps > max_steps or (deadline is not None and time.monotonic() > deadline):
                out_of_time = True
                return None
            g = cand[idx]
            try:
                gm = masks_for(g)
            except CertificateWindowError:
                continue
            new_table = {}
            ok = True
            for assign, bits in table.items():
                for j in range(1, k + 1):
                    merged = bits & gm[j - 1]
                    if not merged.any():
                        ok = False
                        break
                    new_table[assign + (j,)] = merged
                if not ok:
                    break
            if not ok:
                continue
            hit = dfs(idx + 1, chosen + [g], new_table)
            if hit is not None or out_of_time:
                return hit
        return None

    hit = dfs(0, [], {(): root})
    if hit is None:
        return ("exhausted" if out_of_time else "none"), None, steps
    chosen, table = hit
    witnesses = {}
    for assign, bits in table.items():
        byte = int(np.nonzero(bits)[0][0])
        off = next(o for o in range(8) if int(bits[byte]) & (0x80 >> o))
        i = byte * 8 + off
        witnesses[assign] = (tuple(int(x) for x in gv[i]), int(gf[i]))
    return "found", Certificate(cylinders, tuple(chosen), witnesses), steps


def _group_case(name, level, target, radius=15, **kw):
    deck = decks.bundled_deck(name)
    spec = deck.group
    oracle = GOracle(decks.construction(deck).window(level))
    cyls = [Cylinder.single_site(spec.rank, s) for s in (1, 2)]
    return (cyls, target, oracle, g_candidates(spec, radius), spec), kw


def _z_case(name, target, k=None, **kw):
    deck = decks.bundled_deck(name)
    wp = deck.williams
    p3, p4 = wp.periods[2], wp.periods[3]
    oracle = ZOracle(generate(wp, 2 * p4 + p3 + 50), margin=p3 + 1)
    cyls = [Cylinder.single_site(1, s) for s in range(k or deck.m)]
    return (cyls, target, oracle, z_candidates(p3), deck.group), kw


def _pattern_case(target):
    """Two cylinders on one 13-site shape: the windows of two williams-m2
    positions that read differently around them."""
    deck = wdeck()
    wp = deck.williams
    p1, p2, p3, p4 = wp.periods[:4]
    eta = generate(wp, 2 * p4 + p3 + 100)
    oracle = ZOracle(eta, margin=p3 + p2 + 2)
    shape = tuple(((n,), 0) for n in range(-p1, p1 + 1))
    patterns = []
    for g in range(7, 7 + p4, p2):
        if all(eta.symbol(g + n) is not None for n in range(-p2, p2 + 1)):
            pattern = tuple(eta.symbol(g + s[0][0]) for s in shape)
            if pattern not in patterns:
                patterns.append(pattern)
    cyls = [Cylinder(shape, pattern) for pattern in patterns[:2]]
    return (cyls, target, oracle, z_candidates(p3), deck.group), {}


def _pullback_case(target):
    wm2, z2 = wdeck(), decks.bundled_deck("z2-m2")
    eta = generate(wm2.williams, 2 * wm2.williams.periods[3] + 500)
    oracle = PullbackOracle(HomSpec((1, 1)), z2.group, eta, radius=6)
    cyls = [Cylinder.single_site(2, s) for s in (0, 1)]
    return (cyls, target, oracle, g_candidates(z2.group, 5), z2.group), {}


SEARCH_CASES = {
    "z2-m2:w3:4": lambda: _group_case("z2-m2", 3, 4),
    "swap-m2:w3:4": lambda: _group_case("swap-m2", 3, 4),
    "dihedral-m2:w3:5": lambda: _group_case("dihedral-m2", 3, 5),
    "dihedral-m2:w4:4": lambda: _group_case("dihedral-m2", 4, 4),
    "williams-m2:z:4": lambda: _z_case("williams-m2", 4),
    "williams-m3:z:3": lambda: _z_case("williams-m3", 3),
    "williams-m2:z:pigeonhole": lambda: _z_case("williams-m2", 1, k=3),
    "williams-m2:z:patterns:3": lambda: _pattern_case(3),
    "pullback:z2-m2:3": lambda: _pullback_case(3),
    "z2-m2:w3:max-steps-3": lambda: _group_case("z2-m2", 3, 4, max_steps=3),
    # window(2) refuses 120 of the 162 radius-40 shifts, between the others
    "dihedral-m2:w2:refusals:2": lambda: _group_case("dihedral-m2", 2, 2, radius=40),
    "dihedral-m2:w2:refusals:3": lambda: _group_case("dihedral-m2", 2, 3, radius=40),
    # the other two of the four benchmark searches
    "z2-m2:w4:5": lambda: _group_case("z2-m2", 4, 5),
    "dihedral-m2:w4:5": lambda: _group_case("dihedral-m2", 4, 5),
}
# budgets that end dihedral-m2:w3:5 (184,832 steps, "none") inside runs of
# candidates its pools skip (2, 50, 5,000), on a pool member (1) and on the
# last step of the root (184,831)
SEARCH_CASES.update({
    f"dihedral-m2:w3:5:max-steps-{n}":
        (lambda n=n: _group_case("dihedral-m2", 3, 5, max_steps=n))
    for n in (1, 2, 50, 5_000, 184_831)})
EXPECTED_STATUS = {"dihedral-m2:w3:5": "none", "williams-m2:z:pigeonhole": "none",
                   "z2-m2:w3:max-steps-3": "exhausted",
                   "dihedral-m2:w2:refusals:3": "none",
                   **{case: "exhausted" for case in SEARCH_CASES if ":w3:5:max-steps-" in case}}
# the step counts the benchmark pins for its four searches
PINNED_STEPS = {"z2-m2:w4:5": 7_376, "dihedral-m2:w3:5": 184_832,
                "dihedral-m2:w4:5": 189_327, "williams-m3:z:3": 8_576}


@pytest.mark.parametrize("case", SEARCH_CASES)
def test_search_matches_numpy_reference(case):
    args, kw = SEARCH_CASES[case]()
    res = find_independence_set(*args, **kw)
    status, cert, steps = _find_independence_set_reference(*args, **kw)
    assert (res.status, res.steps) == (status, steps)
    assert res.status == EXPECTED_STATUS.get(case, "found")
    if res.status == "exhausted":
        assert res.steps == kw["max_steps"] + 1
    if case in PINNED_STEPS:
        assert res.steps == PINNED_STEPS[case]
    if cert is None:
        assert res.certificate is None
    else:
        assert res.certificate.to_json() == cert.to_json()


def test_refusal_cases_have_refused_and_accepted_shifts():
    (cyls, _, oracle, cands, spec), _ = _group_case("dihedral-m2", 2, 3, radius=40)
    reads = [[(0, cyl.pattern[0])] for cyl in cyls]  # the one site, the identity
    refused = 0
    for moved in _site_translates(spec, cands, [spec.identity]):
        try:
            _packed_masks(oracle, reads, moved)
        except CertificateWindowError:
            refused += 1
    assert 0 < refused < len(cands)


@pytest.mark.parametrize("name,target,builds", [
    ("z2-m2", None, 2), ("dihedral-m2", None, 2),
    ("williams-m2", 3, 17), ("williams-m3", None, 6)])
def test_masks_are_built_on_demand(name, target, builds, monkeypatch):
    """The searches of the acceptance table stop after a few of their 865 to
    961 candidates, and build the masks of just those: no candidate is built
    before a node reaches it."""
    built = []

    def counted(oracle, reads, moved):
        built.append(repr(moved))
        return _packed_masks(oracle, reads, moved)

    monkeypatch.setattr(independence, "_packed_masks", counted)
    search = verify.independence_search(decks.bundled_deck(name), target)
    assert search.result.status == "found"
    assert len(built) == builds == search.result.steps


@pytest.mark.parametrize("max_steps", [2, 50])
def test_a_budget_ends_mask_builds_at_its_stop(max_steps, monkeypatch):
    """A search that its budget ends builds the masks of no candidate past
    the step it stops at: each pull from a pool ends at the first candidate
    the budget cannot reach, with the status and steps unchanged."""
    built = []

    def counted(oracle, reads, moved):
        built.append(repr(moved))
        return _packed_masks(oracle, reads, moved)

    monkeypatch.setattr(independence, "_packed_masks", counted)
    args, kw = _group_case("dihedral-m2", 3, 5, max_steps=max_steps)
    res = find_independence_set(*args, **kw)
    assert (res.status, res.steps) == ("exhausted", max_steps + 1)
    assert len(built) == max_steps


def test_refused_shifts_are_built_once(monkeypatch):
    """A shift whose masks leave the window is refused once, not on every
    visit: 162 candidates, 120 of them refused, in 5,717 steps."""
    built = []

    def counted(oracle, reads, moved):
        built.append(repr(moved))
        return _packed_masks(oracle, reads, moved)

    monkeypatch.setattr(independence, "_packed_masks", counted)
    args, kw = _group_case("dihedral-m2", 2, 3, radius=40)
    res = find_independence_set(*args, **kw)
    assert (res.status, res.steps) == ("none", 5_717)
    assert len(built) <= 162 and len(set(built)) == len(built)


class _ArrayOracle:
    """An oracle whose every shift reads the same drawn values."""

    def __init__(self, vals):
        self.vals = np.asarray(vals, dtype=np.int16)
        self.grid = (np.arange(len(vals))[:, None], np.zeros(len(vals), dtype=np.intp))

    def site_bits(self, moved, sym):
        return _pack(self.vals == sym)


# one cylinder reading symbol 1 at its one site, moved nowhere
ONE_READ, UNMOVED = [[(0, 1)]], [[[0, 0]]]


@given(st.lists(st.booleans(), min_size=1, max_size=300)
       .filter(lambda m: len(m) % 8 and any(m)))
def test_int_masks_and_first_true_index_match_flatnonzero(mask):
    """Bit i of a witness mask is grid cell i, with nothing set past the grid,
    also when the grid is not a whole number of bytes."""
    bits, = _packed_masks(_ArrayOracle(mask), ONE_READ, UNMOVED)
    assert bits >> len(mask) == 0
    assert [bool(bits >> i & 1) for i in range(len(mask))] == mask
    assert _first_true_index(bits) == int(np.flatnonzero(mask)[0])


def test_first_true_index_refuses_an_empty_mask():
    """An empty mask drops its candidate when it is built, and the witness
    read refuses one."""
    assert _packed_masks(_ArrayOracle([0] * 13), ONE_READ, UNMOVED) is None
    assert _packed_masks(_ArrayOracle([1] * 13), ONE_READ * 2, UNMOVED) == [(1 << 13) - 1] * 2
    with pytest.raises(AssertionError, match="empty mask"):
        _first_true_index(0)


def test_a_candidate_stops_at_its_first_empty_mask():
    """Once a cylinder's mask is empty the candidate is dropped, and the
    cylinders after it are not read: the m single-site cylinders of a 1-d
    deck cost a candidate a few site reads, not m."""
    oracle = _ArrayOracle([1] * 13)
    calls = []
    oracle.site_bits = lambda moved, sym: calls.append(sym) or _pack(oracle.vals == sym)
    assert _packed_masks(oracle, [[(0, 1)], [(0, 2)], [(0, 1)]], UNMOVED) is None
    assert calls == [1, 2]


@pytest.mark.parametrize("deck_name", decks.BUNDLED)
def test_candidates_come_in_search_order(deck_name):
    """``g_candidates`` and ``z_candidates`` at radii 0, 1 and 15 against
    the scalar sort key, and shuffled lists with duplicates put in order by
    the search, which keeps the caller's tuples."""
    spec = decks.bundled_deck(deck_name).group
    rng = random.Random(deck_name)
    for radius in (0, 1, 15):
        axes = [range(-radius, radius + 1)] * spec.rank
        elts = [(v, f) for f in range(spec.finite_order) for v in product(*axes)]
        want = sorted(set(elts), key=search_key)
        assert g_candidates(spec, radius) == want
        assert z_candidates(radius) == sorted({((n,), 0) for n in range(-radius, radius + 1)},
                                              key=search_key)
        # equal elements as distinct tuples
        copies = [(tuple(list(v)), f) for v, f in rng.sample(elts, len(elts) // 3 + 1)]
        shuffled = elts + copies
        rng.shuffle(shuffled)
        got = _in_search_order(shuffled, spec.rank)
        assert got == want
        first = {e: e for e in reversed(shuffled)}  # each element's first tuple
        assert all(g is first[g] for g in got)
