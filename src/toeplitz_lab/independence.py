"""Combinatorial independence certificates and sequence-entropy bounds.

A tuple of cylinders (A_1, ..., A_k) has independence set J when every
assignment s: J -> {1..k} is realized by one point: here points are orbit
translates sigma^{h^-1} eta, so the witness condition reads
eta(h g^-1 f) = pattern_{s(g)}(f) for every g in J and site f of A_{s(g)}.

Candidates come as an element array in any order: the search sorts them
once into canonical order (``lattice.search_order``), drops repeats and walks
them in that order; its step counter is the deterministic "search time"
reported in summaries.  Witness masks are Python int bitsets over the
oracle's witness grid: bit i stands for grid cell i, so extending an
assignment by one candidate is one integer AND and a truth test.
Only the search multiplies: it forms every (0, h) g^-1 s once, and each
oracle reads a site's translates as such a bitset (site_bits), from a
whole-patch bitset per symbol or a box slice of the window's comparison
with the symbol, made once per finite part and symbol.  The grid and the
candidates are element arrays; an element tuple is built only for a
witness or a member of J that a certificate names.

A candidate that fails at a node fails at every node below it, since the
masks there only shrink.  So each node tests only its pool, the candidates
after its choice that passed its parent, drawn from one lazy stream in
candidate order; masks are built when the first node reaches a candidate,
which is dropped at its first empty mask.  Almost every test fails, so a
node ANDs a candidate into its smallest table entries first; the witnesses
of a found set are read from its table rebuilt in product order.
Steps still count every candidate after the parent's choice, tested or not.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from itertools import product, tee

import numpy as np

from .lattice import (Elt, EltArr, GroupSpec, SpecError, Vec, box_elements, cube,
                      elt_arrays, instance_cache, search_order)
from .toeplitz import OUTSIDE, SYMBOL_DTYPE, EtaWindow
from .williams import ZPatch
from .pullback import section_element

MAX_STEPS = 2_000_000  # default step budget of a search


@dataclass(frozen=True)
class Cylinder:
    """A clopen pattern constraint: shape -> symbol."""

    shape: tuple[Elt, ...]
    pattern: tuple[int, ...]

    def __post_init__(self):
        if not self.shape or len(self.shape) != len(self.pattern):
            raise SpecError("cylinder needs one symbol per shape site")

    @staticmethod
    def single_site(rank: int, sym: int) -> "Cylinder":
        """The symbol sym at the identity."""
        return Cylinder((((0,) * rank, 0),), (sym,))


@dataclass(frozen=True)
class Certificate:
    cylinders: tuple[Cylinder, ...]
    independence_set: tuple[Elt, ...]
    witnesses: dict  # assignment tuple (1-based cylinder ids) -> witness Elt

    @property
    def size(self) -> int:
        return len(self.independence_set)

    def to_json(self) -> str:
        def elt(e: Elt):
            return [list(e[0]), e[1]]

        doc = {
            "cylinders": [
                {"shape": [elt(s) for s in c.shape], "pattern": list(c.pattern)}
                for c in self.cylinders
            ],
            "independence_set": [elt(g) for g in self.independence_set],
            "witnesses": [
                {"assignment": list(a), "witness": elt(h)}
                for a, h in sorted(self.witnesses.items())
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Certificate":
        doc = json.loads(text)

        def elt(x) -> Elt:
            return tuple(x[0]), x[1]

        cyls = tuple(
            Cylinder(tuple(elt(s) for s in c["shape"]), tuple(c["pattern"]))
            for c in doc["cylinders"])
        jset = tuple(elt(g) for g in doc["independence_set"])
        wits = {tuple(w["assignment"]): elt(w["witness"]) for w in doc["witnesses"]}
        return Certificate(cyls, jset, wits)


class CertificateWindowError(RuntimeError):
    """A witness needs evaluations outside the oracle window."""


# -- oracles -------------------------------------------------------------------
# An oracle's witness grid is an element array (lattice parts (n, r), finite
# parts (n,)), finite part first.  site_bits(moved, sym) reads a shift a from
# its translates moved[h] = (0, h) a, rows [v_1, .., v_r, f]: the grid cells i
# with eta(grid[i] a) == sym as an int bitset (bit i for cell i), refusing with
# CertificateWindowError a shift that moves the grid out of the window.
# symbols_at reads any batch of elements for the re-check: OUTSIDE where the
# window does not hold the element, UNDEFINED on a cell it holds but leaves
# empty.  The 1-d oracles read their patch through ZPatch.at.


def _pack(mask: np.ndarray) -> int:
    """A boolean array as an int bitset: bit i is mask[i]."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


class ZOracle:
    """Occurrence oracle over a 1-d window of the classical construction.

    The grid is [-(N - margin), N - margin], so a shift is readable when
    |shift| <= margin; symbols == s is packed over the whole patch once per
    symbol, and a site's bitset is that int shifted down by margin + shift."""

    def __init__(self, patch: ZPatch, margin: int):
        if not 0 <= margin < patch.N:
            raise SpecError(f"margin must lie in 0 .. {patch.N - 1} for a patch "
                            f"of radius {patch.N}, got {margin}")
        self.patch = patch
        self.margin = margin
        reach = patch.N - margin
        self.grid = (np.arange(-reach, reach + 1, dtype=np.int64)[:, None],
                     np.zeros(2 * reach + 1, dtype=np.intp))
        self._low = (1 << (2 * reach + 1)) - 1
        self._patch_bits: dict[int, int] = {}

    def symbols_at(self, v: np.ndarray, f: np.ndarray) -> np.ndarray:
        return self.patch.at(v[:, 0])

    def site_bits(self, moved: list, sym: int) -> int:
        shift = moved[0][0]
        if abs(shift) > self.margin:
            raise CertificateWindowError(f"shift {shift} leaves the oracle window")
        if sym not in self._patch_bits:
            self._patch_bits[sym] = _pack(self.patch.symbols == sym)
        return (self._patch_bits[sym] >> (self.margin + shift)) & self._low


class GOracle:
    """Occurrence oracle over a box window of the group construction.

    The grid is the core box D_(N-1) once per finite part h.  Grid cell
    (v, h) times a is v + (0, h) a, so finite part h reads the core moved by
    that translate: a box slice of ``symbol_array(f) == sym`` at the
    translate's finite part f, compared once per (f, sym) the search reads."""

    def __init__(self, win: EtaWindow):
        self.win = win
        self.cons = win.cons
        spec, dom = win.spec, win.cons.domains
        # the core keeps one level of margin inside the window
        if win.N < 2:
            raise SpecError("oracle window too shallow for a safe core")
        self.core = dom.box_coords(win.N - 1)
        self.grid = box_elements(self.core, spec.finite_order)
        self._box = dom.chain.level(win.N)
        self._core_box = dom.chain.level(win.N - 1)
        # window-array index of the core's low corner, per axis
        self._corner = tuple(a - b for a, b in zip(dom.low(win.N), dom.low(win.N - 1)))

    def symbols_at(self, v: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Read through ``Construction.levels_at``, not the window arrays
        that site_bits serves from."""
        out = np.full(len(f), OUTSIDE, dtype=SYMBOL_DTYPE)
        inside = self.cons.domains.in_box_arr(v, self.win.N)
        out[inside] = self.cons.symbol_table()[f[inside], self.cons.levels_at(v[inside])]
        return out

    @instance_cache
    def _equal(self, fpart: int, sym: int) -> np.ndarray:
        """symbol_array(fpart) == sym, shaped as the window box."""
        return (self.win.symbol_array(fpart) == sym).reshape(self._box)

    def site_bits(self, moved: list, sym: int) -> int:
        parts = []
        for *v, f in moved:
            box = []
            for c, s, w, p in zip(self._corner, v, self._core_box, self._box):
                if not 0 <= c + s <= p - w:
                    raise CertificateWindowError("shifted core leaves the oracle window")
                box.append(slice(c + s, c + s + w))
            parts.append(self._equal(f, sym)[tuple(box)])
        return _pack(parts[0] if len(parts) == 1 else np.concatenate(parts))


class PullbackOracle:
    """Oracle for phi* eta over G, phi = <w, .>, served by a 1-d source window."""

    def __init__(self, w: Vec, group: GroupSpec, source: ZPatch, radius: int):
        self.w = np.array(w, dtype=np.int64)
        self.source = source
        self.grid = box_elements(cube(group.rank, radius), group.finite_order)
        self._phi = self.grid[0] @ self.w

    def symbols_at(self, v: np.ndarray, f: np.ndarray) -> np.ndarray:
        return self.source.at(v @ self.w)

    def site_bits(self, moved: list, sym: int) -> int:
        shifts = np.array(moved, dtype=np.int64)[:, :-1] @ self.w
        got = self.source.at(self._phi + np.repeat(shifts, len(self._phi) // len(shifts)))
        if (got == OUTSIDE).any():
            raise CertificateWindowError("pullback sites leave the source window")
        return _pack(got == sym)


# -- certificate checking ------------------------------------------------------


def _read_products(oracle, spec: GroupSpec, reads: list) -> np.ndarray:
    """oracle.symbols_at every h g^-1 site of a list of (h, g, site): one
    inv_arr, two mul_arr and one oracle read."""
    v, f = elt_arrays([e for r in reads for e in r], spec.rank)
    hg = spec.mul_arr(v[0::3], f[0::3], *spec.inv_arr(v[1::3], f[1::3]))
    return oracle.symbols_at(*spec.mul_arr(*hg, v[2::3], f[2::3]))


def check_certificate(cert: Certificate, oracle, spec: GroupSpec) -> bool:
    """Re-verify every witness from scratch; window misses raise, mismatches
    (an Undefined cell among them) return False.

    The reads are listed per assignment in product order, then per element
    g of J, then per site of the assigned cylinder, and made in one
    oracle.symbols_at call; the first read that fails decides.  A missing
    witness returns False once every read listed before it has passed.

    symbols_at shares no mask or site_bits code with the search, so a
    certificate the search built wrongly cannot pass it the same way.  On a
    group deck it evaluates eta through ``Construction.levels_at`` and reads
    no window level or symbol array.
    """
    k = len(cert.cylinders)
    J = cert.independence_set
    reads, want = [], []
    complete = True
    for assignment in product(range(1, k + 1), repeat=len(J)):
        h = cert.witnesses.get(assignment)
        if h is None:
            complete = False
            break
        for g, j in zip(J, assignment):
            cyl = cert.cylinders[j - 1]
            reads.extend((h, g, site) for site in cyl.shape)
            want.extend(cyl.pattern)
    got = _read_products(oracle, spec, reads)
    bad = np.flatnonzero(got != want)
    if len(bad) and got[bad[0]] == OUTSIDE:
        raise CertificateWindowError(
            f"witness {reads[bad[0]][0]} needs a value outside the window")
    return complete and not len(bad)


# -- search --------------------------------------------------------------------


@dataclass
class SearchResult:
    status: str                     # "found" | "none" | "exhausted"
    certificate: Certificate | None
    steps: int


def _site_translates(spec: GroupSpec, cand: EltArr, sites: list[Elt]) -> list:
    """``out[c][s][h]`` is (0, h) g^-1 s for g = row c of cand and s = sites[s],
    as a row [v_1, .., v_r, f]: one inv_arr, two mul_arr calls and one tolist."""
    sv, sf = elt_arrays(sites, spec.rank)
    av, af = spec.mul_arr(*(x[:, None] for x in spec.inv_arr(*cand)), sv, sf)
    tv, tf = spec.mul_arr(0, np.arange(spec.finite_order), av[:, :, None], af[:, :, None])
    return np.concatenate([tv, tf[..., None]], axis=-1).tolist()


def _packed_masks(oracle, reads, moved: list) -> list[int] | None:
    """Witness masks of one candidate, one per cylinder j: the AND of the
    site bitsets of its (site index s, symbol) pairs ``reads[j]``, read from
    the site's translates ``moved[s]``; None at the first empty mask."""
    out = []
    for pairs in reads:
        mask = -1
        for s, sym in pairs:
            mask &= oracle.site_bits(moved[s], sym)
        if not mask:
            return None
        out.append(mask)
    return out


def _first_true_index(mask: int) -> int:
    """Lowest grid index in a witness bitset."""
    if not mask:
        raise AssertionError("empty mask")
    return (mask & -mask).bit_length() - 1


def find_independence_set(cylinders, target_size: int, oracle,
                          candidates: EltArr, spec: GroupSpec,
                          max_steps: int = MAX_STEPS,
                          deadline: float | None = None) -> SearchResult:
    """Backtracking search for an independence set of the target size.

    The candidates, an element array in any order, are tried in search order
    with repeats dropped; "none" reports a window-complete failure,
    "exhausted" that a budget ended the search.  A node's steps are the
    candidates after the one that made it; it tests only those in its pool
    and counts the others without testing them.  A target size below 1 or
    an empty cylinder list is refused with SpecError.
    """
    cylinders = tuple(cylinders)
    k = len(cylinders)
    if target_size < 1:
        raise SpecError(f"independence set size must be at least 1, got {target_size}")
    if not k:
        raise SpecError("a search needs at least one cylinder")
    order = search_order(*candidates)
    cv, cf = candidates[0][order], candidates[1][order]
    new = np.ones(len(cf), dtype=bool)  # each row unequal to its predecessor
    new[1:] = (cf[1:] != cf[:-1]) | (cv[1:] != cv[:-1]).any(axis=1)
    cv, cf = cv[new], cf[new]
    index = {s: i for i, s in enumerate(dict.fromkeys(s for c in cylinders for s in c.shape))}
    reads = [[(index[s], sym) for s, sym in zip(c.shape, c.pattern)] for c in cylinders]
    moved = _site_translates(spec, (cv, cf), list(index))
    root = (1 << len(oracle.grid[1])) - 1
    steps = 0
    out_of_time = False
    horizon = max_steps  # the last candidate the pulling node can still step to
    tail = len(cf) - 1, None  # a node's last step, counted when its pool runs out

    def readable():
        """(index, masks) of every candidate whose masks stay in the window and
        are not empty, in order, built when a node first reaches it; ends past
        the horizon, where the budget would end the search anyway."""
        for idx, row in enumerate(moved):
            if idx > horizon:
                return
            try:
                masks = _packed_masks(oracle, reads, row)
            except CertificateWindowError:
                continue
            if masks is not None:
                yield idx, masks

    def advance(n: int) -> bool:
        """Count n more steps; False, with the step a one-by-one count
        stops at, when the budget runs out on one of them.  The node loop
        counts the common case itself: no deadline and n steps in budget."""
        nonlocal steps, out_of_time
        if n and deadline is not None and time.monotonic() > deadline:
            steps += 1
        elif steps + n > max_steps:
            steps = max_steps + 1
        else:
            steps += n
            return True
        out_of_time = True
        return False

    # A node's table holds the witness masks of its prefix's k^len(chosen)
    # assignments.  A candidate that empties an entry also empties the
    # entries refining it, so a child's pool is the rest of its parent's
    # stream that fits the parent, shared with the parent through tee.
    # Almost every test fails, mostly on a small entry, so fits reads the
    # entries smallest first (probe) and a child's table refines them in
    # that order.  A last-level node tests few candidates (about 4.6 on
    # dihedral-m2 window(4)), so it reads that order without sorting.
    def dfs(pool, last: int, chosen: list[tuple[int, list[int]]], table: list[int]):
        nonlocal horizon, steps
        if len(chosen) == target_size:
            return chosen
        probe = table if len(chosen) == target_size - 1 else sorted(table, key=int.bit_count)

        def fits(item) -> bool:
            masks = item[1]
            for bits in probe:
                for m in masks:
                    if not bits & m:
                        return False
            return True

        pool = filter(fits, pool)
        while True:
            horizon = last + max_steps - steps
            idx, masks = next(pool, tail)
            if deadline is None and idx <= horizon:
                steps += idx - last
            elif not advance(idx - last):
                return None
            if masks is None:
                return None
            last = idx
            pool, rest = tee(pool)
            hit = dfs(rest, idx, chosen + [(idx, masks)],
                      [bits & m for bits in probe for m in masks])
            if hit is not None or out_of_time:
                return hit

    chosen = dfs(readable(), -1, [], [root])
    if chosen is None:
        status = "exhausted" if out_of_time else "none"
        return SearchResult(status, None, steps)
    # the witness table in product order: extending by g lists assign + (j,)
    table = [root]
    for _, masks in chosen:
        table = [bits & m for bits in table for m in masks]
    gv, gf = oracle.grid
    witnesses = {}
    for assign, bits in zip(product(range(1, k + 1), repeat=target_size), table):
        i = _first_true_index(bits)
        witnesses[assign] = tuple(gv[i].tolist()), int(gf[i])
    jset = tuple((tuple(cv[i].tolist()), int(cf[i])) for i, _ in chosen)
    cert = Certificate(cylinders, jset, witnesses)
    if not check_certificate(cert, oracle, spec):
        raise AssertionError("fresh certificate failed its own re-check")
    return SearchResult("found", cert, steps)


def transport_certificate(w: Vec, group: GroupSpec, cert: Certificate,
                          oracle) -> Certificate:
    """Pull a certificate over Z back through the surjection <w, .>: G -> Z.

    Shapes and the independence set are mapped through the fixed section;
    the result is re-verified against the pulled-back oracle and any failure
    is a fatal oracle inconsistency.
    """
    def lift(n: int) -> Elt:
        return section_element(w, n)

    cyls = tuple(
        Cylinder(tuple(lift(s[0][0]) for s in c.shape), c.pattern)
        for c in cert.cylinders)
    jset = tuple(lift(g[0][0]) for g in cert.independence_set)
    wits = {a: lift(h[0][0]) for a, h in cert.witnesses.items()}
    out = Certificate(cyls, jset, wits)
    if not check_certificate(out, oracle, group):
        raise AssertionError("transported certificate failed re-verification")
    return out


# -- regional proximality and entropy bounds -----------------------------------


def regional_witness_from_certificate(cert: Certificate, oracle,
                                      spec: GroupSpec) -> Elt:
    """Replay of the independence-to-proximality argument at window scale.

    Returns g0 = h g^-1 such that the shifted realizations of every cylinder
    fall together into the first cylinder's neighborhood.
    """
    if cert.size < 2:
        raise SpecError("need an independence set with two elements")
    g, h = cert.independence_set[0], cert.independence_set[1]
    k = len(cert.cylinders)
    v, f = spec.mul_arr(h[0], h[1], *spec.inv_arr(g[0], g[1]))
    g0 = tuple(v.tolist()), int(f)
    rest = [1] * (cert.size - 2)
    target = cert.cylinders[0]
    reads = [(cert.witnesses[tuple([i, 1] + rest)], h, site)
             for i in range(1, k + 1) for site in target.shape]
    got = _read_products(oracle, spec, reads)
    if ((got < 0) | (got != list(target.pattern) * k)).any():
        raise AssertionError("replayed witness left the target cylinder")
    return g0


def entropy_bounds_bits(max_certified: int, fiber_bound: int) -> tuple[float, float]:
    """(log2 of the largest certified tuple size, log2 of the fiber bound),
    refused when the certified size exceeds the bound, compared as integers."""
    if max_certified > fiber_bound:
        raise AssertionError("certified lower bound exceeded the fiber bound")
    return math.log2(max_certified), math.log2(fiber_bound)


def z_candidates(radius: int) -> EltArr:
    """Every element of Z with |n| <= radius, as an element array."""
    return box_elements(cube(1, radius), 1)


def g_candidates(spec: GroupSpec, radius: int) -> EltArr:
    """Every element with lattice part in the cube of the radius, as an
    element array (``lattice.box_elements``)."""
    return box_elements(cube(spec.rank, radius), spec.finite_order)
