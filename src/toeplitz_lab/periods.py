"""Period sets, odometer coding, tower decompositions and fiber enumeration.

A truncated odometer point is the tuple of right-coset representatives
(t_1, ..., t_K) with t_i in D_i R and Gamma_i t_{i+1} = Gamma_i t_i.  Points
of the subshift over those coords are approximated by orbit translates
sigma^{h^{-1}} eta with h in the coset Gamma_K t_K; such a point reads
x(w) = eta(h w).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .lattice import (
    Elt,
    EltArr,
    GroupSpec,
    SpecError,
    Vec,
    canon_key,
    coset_rep,
    unique_rows,
)
from .toeplitz import Construction, EtaWindow


@dataclass(frozen=True)
class OdometerCoords:
    """Compatible coset representatives, reps[i-1] in D_i R."""

    reps: tuple[Elt, ...]

    @property
    def depth(self) -> int:
        return len(self.reps)

    def rep(self, i: int) -> Elt:
        return self.reps[i - 1]


def code_orbit_point(cons: Construction, g: Elt, depth: int) -> OdometerCoords:
    """Coset representative of Gamma_i g at every level i <= depth."""
    reps = tuple(coset_rep(cons.group, cons.domains, g, i)
                 for i in range(1, depth + 1))
    return OdometerCoords(reps)


def coords_compatible(cons: Construction, coords: OdometerCoords) -> bool:
    spec, chain = cons.group, cons.chain
    for i in range(1, coords.depth):
        step = spec.mul(coords.rep(i + 1), spec.inv(coords.rep(i)))
        if not chain.member(step, i):
            return False
    return True


def all_coords_at_depth(cons: Construction, depth: int) -> list[OdometerCoords]:
    """Every truncated odometer point of the given depth, canonical order."""
    out = []
    dom = cons.domains
    for v in dom.enumerate_box(depth):
        for f in range(cons.group.finite_order):
            out.append(code_orbit_point(cons, (v, f), depth))
    out.sort(key=lambda c: canon_key(c.rep(depth)))
    return out


# -- period sets --------------------------------------------------------------


def per_set_exact(win: EtaWindow, i: int, alpha: int | None = None) -> set[Elt]:
    """Positions of D_N R captured by level <= i, from the stratification
    (check-only).

    This is the exact reference that tests compare ``per_set_empirical``
    against: it reads the period set straight off the level array, while
    the production route tests the visible Gamma-orbit of every position.
    """
    out: set[Elt] = set()
    for g, sym, lvl in win.items():
        if lvl <= i and (alpha is None or sym == alpha):
            out.add(g)
    return out


def per_set_empirical(spec: GroupSpec, get_arr, positions: EltArr, gammas: EltArr,
                      alpha: int | None = None) -> np.ndarray:
    """Mask of the positions whose whole visible Gamma-orbit of translates
    reads one symbol.

    ``get_arr`` reads symbols over arrays, -1 where a cell cannot be read.
    Tests only the translates gamma^-1 g that fall inside the patch, so the
    result is a superset of the true period set restricted to the window.
    """
    pv, pf = positions
    base = get_arr(pv, pf)
    ok = base >= 0 if alpha is None else base == alpha
    iv, i_f = spec.inv_arr(*gammas)
    vals = get_arr(*spec.mul_arr(iv[:, None], i_f[:, None], pv[None], pf[None]))
    return ok & np.all((vals < 0) | (vals == base), axis=0)


def subgroup_elements_in_window(cons: Construction, i: int, level: int) -> list[Elt]:
    """Gamma_i elements whose vector lies in the level box, canonical order."""
    dom = cons.domains
    axes = (range(-(a // p) * p, b, p) for p, a, b in
            zip(cons.chain.level(i), dom.q1[level - 1], dom.q2(level)))
    return [(v, 0) for v in product(*axes)]


def shifted_get(spec: GroupSpec, get_arr, g: Elt):
    """Array accessor of sigma^g x from an array accessor of x."""
    gv, gf = spec.inv(g)

    def get(v: np.ndarray, f: np.ndarray) -> np.ndarray:
        return get_arr(*spec.mul_arr(gv, gf, v, f))

    return get


def conjugation_identity_check(spec: GroupSpec, get_arr, g: Elt, gammas: EltArr,
                               alpha: int, core: EltArr) -> bool:
    """Window check of Per(sigma^g x, Gamma, a) = g Per(x, g^-1 Gamma g, a).

    Both sides are computed empirically with the translate families the
    window supports; they are compared on the given core positions.  The
    right side is tested at g^-1 h for each core position h, so its mask is
    indexed by the core like the left side's.
    """
    left = per_set_empirical(spec, shifted_get(spec, get_arr, g), core, gammas, alpha)
    gv, gf = spec.inv(g)
    conj = spec.mul_arr(*spec.mul_arr(gv, gf, *gammas), *g)
    core_right = spec.mul_arr(gv, gf, *core)
    right = per_set_empirical(spec, get_arr, core_right, conj, alpha)
    return bool(np.array_equal(left, right))


# -- tower pieces and the aperiodic part --------------------------------------


@dataclass(frozen=True)
class TowerPiece:
    """One nested union of domain translates meeting the window.

    Translate towers merge upward: every cell's stage-j translate lies in a
    unique stage-(j+1) translate, so a piece is keyed by its deepest-stage
    entry while shallow stages may list several merged sub-translates.
    """

    top_gamma: Vec
    stage_gammas: tuple[tuple[Vec, ...], ...]  # distinct entries per stage
    cells: tuple[int, ...]     # indices into the window cell list
    aperiodic_cells: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class WindowData:
    """Vectorized window bookkeeping for one truncated odometer point."""

    cons: Construction
    coords: OdometerCoords
    radius: int
    cells: tuple[Elt, ...]              # window cells w, canonical order
    ucoords: np.ndarray = field(repr=False)  # lattice offset of each cell
    pos: np.ndarray = field(repr=False)      # lattice part of t_K w per cell
    fparts: np.ndarray = field(repr=False)   # finite part of t_K w per cell
    levels: np.ndarray = field(repr=False)   # stratum level of the coset rep
    gamma_top: np.ndarray = field(repr=False)  # Gamma_K part of t_K w per cell

    @property
    def depth(self) -> int:
        return self.coords.depth

    def aperiodic_mask(self) -> np.ndarray:
        return self.levels > self.depth

    def forced_symbols(self) -> np.ndarray:
        """Symbols on the captured part; -1 on the aperiodic part."""
        out = self.cons.symbol_table()[self.fparts, self.levels]
        out[self.aperiodic_mask()] = -1
        return out


@lru_cache(maxsize=16)
def _window_cells(rank: int, finite_order: int,
                  radius: int) -> tuple[tuple[Elt, ...], np.ndarray]:
    """The window cells B(0, radius) R in canonical order, and the lattice
    box B(0, radius) they repeat once per finite part."""
    axes = [np.arange(-radius, radius + 1, dtype=np.int64)] * rank
    grids = np.meshgrid(*axes, indexing="ij")
    box = np.stack([g.ravel() for g in grids], axis=-1)
    box.flags.writeable = False
    rows = [tuple(row) for row in box.tolist()]
    return tuple((row, f) for f in range(finite_order) for row in rows), box


def window_data(cons: Construction, coords: OdometerCoords, radius: int) -> WindowData:
    """Evaluate t_K w over the window B(0, radius) R and stratify the reps."""
    if radius < 0:
        raise SpecError(f"window radius must be non-negative, got {radius}")
    spec, dom = cons.group, cons.domains
    K = coords.depth
    tv, tf = coords.rep(K)
    cells, box = _window_cells(spec.rank, spec.finite_order, radius)
    mat = np.array(spec.action[tf], dtype=np.int64)
    pos = np.tile(box @ mat.T + np.asarray(tv, dtype=np.int64), (spec.finite_order, 1))
    ucoords = np.tile(box, (spec.finite_order, 1))
    fparts = np.repeat(np.asarray(spec.table[tf], dtype=np.int64), len(box))

    rep = dom.rep_arr(pos, K)
    levels = cons.level_array(K)[dom.flat_arr(rep, K)].astype(np.int16)
    return WindowData(cons, coords, radius, cells, ucoords, pos, fparts,
                      levels, pos - rep)


@lru_cache(maxsize=1)
def _shared_window_data(cons: Construction, coords: OdometerCoords,
                        radius: int) -> WindowData:
    """window_data of the last point asked for.  A census asks enumerate_fiber
    and then tower_pieces about the same point; the second call reuses it."""
    return window_data(cons, coords, radius)


def aperiodic_positions(cons: Construction, coords: OdometerCoords,
                        radius: int, depth: int | None = None) -> set[Elt]:
    """Window positions not captured by any configured level <= depth."""
    data = window_data(cons, coords, radius)
    k = coords.depth if depth is None else depth
    if k > coords.depth:
        raise SpecError("aperiodic depth exceeds the coords depth")
    if k == coords.depth:
        mask = data.aperiodic_mask()
    else:
        sub = OdometerCoords(coords.reps[:k])
        mask = window_data(cons, sub, radius).aperiodic_mask()
    return {data.cells[i] for i in np.nonzero(mask)[0]}


def tower_pieces(cons: Construction, coords: OdometerCoords, base_level: int,
                 radius: int) -> list[TowerPiece]:
    """Decompose the window into the nested translate towers of the coords.

    Pieces are keyed by the deepest-level translate; the recorded chains are
    checked to merge consistently (a shallow translate determines the deeper
    ones).
    """
    if not 1 <= base_level <= coords.depth:
        raise SpecError("base level out of range")
    data = _shared_window_data(cons, coords, radius)
    dom = cons.domains
    stage_gammas = []
    for j in range(base_level, coords.depth + 1):
        dj, fj = coords.rep(j)
        mat = np.array(cons.group.action[fj], dtype=np.int64)
        pos_j = data.ucoords @ mat.T + np.asarray(dj, dtype=np.int64)
        rep_j = dom.rep_arr(pos_j, j)
        stage_gammas.append(pos_j - rep_j)

    # one id per distinct translate of each stage, ids in lexicographic order
    uniq = [unique_rows(stage) for stage in stage_gammas]

    # merging must be monotone upward: a stage-j translate determines the
    # stage-(j+1) translate containing it, so there are exactly as many
    # distinct (lo, hi) pairs as distinct lo translates
    for (lo, lo_id), (hi, hi_id) in zip(uniq, uniq[1:]):
        if len(np.unique(lo_id * len(hi) + hi_id)) != len(lo):
            raise SpecError("tower translates do not merge consistently")

    keys, piece = uniq[-1]
    cells_of = np.split(np.argsort(piece, kind="stable"),
                        np.cumsum(np.bincount(piece))[:-1])
    # distinct (piece, translate) codes come sorted by piece, then translate
    stages = []
    for rows, ids in uniq:
        codes = np.unique(piece * len(rows) + ids)
        stages.append(np.split(rows[codes % len(rows)],
                               np.searchsorted(codes // len(rows), np.arange(1, len(keys)))))

    aper = data.aperiodic_mask()
    return [TowerPiece(
        top_gamma=tuple(key),
        stage_gammas=tuple(tuple(map(tuple, stage[pid].tolist())) for stage in stages),
        cells=tuple(cells.tolist()),
        aperiodic_cells=tuple(cells[aper[cells]].tolist()),
    ) for pid, (key, cells) in enumerate(zip(keys.tolist(), cells_of))]


# -- fiber enumeration --------------------------------------------------------


@dataclass(frozen=True)
class FiberPatch:
    cells: tuple[Elt, ...]
    symbols: tuple[int, ...]
    piece_constants: tuple[int, ...]


@dataclass(frozen=True)
class FiberResult:
    coords: OdometerCoords
    patches: tuple[FiberPatch, ...]
    piece_count: int
    aperiodic_piece_count: int
    candidate_count: int
    approximant_count: int

    @property
    def count(self) -> int:
        return len(self.patches)


def enumerate_fiber(cons: Construction, coords: OdometerCoords, radius: int,
                    oracle: EtaWindow) -> FiberResult:
    """Admissible window patches over one truncated odometer point.

    Candidates pair the forced periodic part with one plain symbol per tower
    piece on the aperiodic part; a candidate is kept when some orbit
    approximant of the coords realizes it inside the oracle window.
    """
    data = _shared_window_data(cons, coords, radius)
    aper = np.nonzero(data.aperiodic_mask())[0]
    keys, cell_piece = unique_rows(data.gamma_top)
    # aperiodic pieces in piece order, the first aperiodic cell of each, and
    # the slot of every aperiodic cell's piece among them
    aper_pieces, first = np.unique(cell_piece[aper], return_index=True)
    slot = np.searchsorted(aper_pieces, cell_piece[aper])

    gammas = _approximants(cons, coords.depth, data.pos, oracle.N)
    lvls = oracle.levels[cons.domains.flat_arr(
        data.pos[aper] + gammas[:, None, :], oracle.N)]
    syms = cons.symbol_table()[data.fparts[aper], lvls]
    consts = syms[:, first]
    if not np.array_equal(syms, consts[:, slot]):
        raise SpecError("approximant not constant on a tower piece")

    forced = data.forced_symbols()
    patches = []
    # unique rows come in lexicographic order, the order of sorted tuples
    for row in unique_rows(consts)[0]:
        syms_w = forced.copy()
        syms_w[aper] = row[slot]
        patches.append(FiberPatch(data.cells, tuple(syms_w.tolist()),
                                  tuple(row.tolist())))
    return FiberResult(
        coords=coords,
        patches=tuple(patches),
        piece_count=len(keys),
        aperiodic_piece_count=len(aper_pieces),
        candidate_count=cons.m ** len(aper_pieces),
        approximant_count=len(gammas),
    )


def _approximants(cons: Construction, K: int, pos: np.ndarray, N: int) -> np.ndarray:
    """Gamma_K vectors gamma with every window position pos + gamma inside
    the D_N box, in lexicographic order.

    Per axis these are the multiples of p_K in [max(-q1, -q1 - lo),
    min(q2, q2 - hi)), with lo and hi the extremes of the window positions:
    gamma itself lies in the box, and so do both ends of the window.
    """
    dom = cons.domains
    axes = []
    for p, a, b, lo, hi in zip(cons.chain.level(K), dom.q1[N - 1], dom.q2(N),
                               pos.min(axis=0).tolist(), pos.max(axis=0).tolist()):
        start, stop = max(-a, -a - lo), min(b, b - hi)
        axes.append(np.arange(-(-start // p) * p, stop, p, dtype=np.int64))
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)
