"""Period sets, odometer coding, tower decompositions and fiber enumeration.

A truncated odometer point is the tuple of right-coset representatives
(t_1, ..., t_K) with t_i in D_i R and Gamma_i t_{i+1} = Gamma_i t_i.  Points
of the subshift over those coords are approximated by orbit translates
sigma^{h^{-1}} eta with h in the coset Gamma_K t_K; such a point reads
x(w) = eta(h w).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import (
    Elt,
    GroupSpec,
    SpecError,
    Vec,
    canon_key,
    coset_rep,
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
    """Positions of D_N R captured by level <= i, from the stratification."""
    out: set[Elt] = set()
    for g, sym, lvl in win.items():
        if lvl <= i and (alpha is None or sym == alpha):
            out.add(g)
    return out


def per_set_empirical(spec: GroupSpec, patch_get, positions, gammas,
                      alpha: int | None = None) -> set[Elt]:
    """Positions whose whole visible Gamma-orbit of translates reads one symbol.

    Tests only the translates gamma^-1 g that fall inside the patch, so the
    result is a superset of the true period set restricted to the window.
    """
    out: set[Elt] = set()
    inv_gammas = [spec.inv(t) for t in gammas]
    for g in positions:
        base = patch_get(g)
        if base is None or (alpha is not None and base != alpha):
            continue
        ok = True
        for ig in inv_gammas:
            val = patch_get(spec.mul(ig, g))
            if val is not None and val != base:
                ok = False
                break
        if ok:
            out.add(g)
    return out


def subgroup_elements_in_window(cons: Construction, i: int, level: int) -> list[Elt]:
    """Gamma_i elements whose vector lies in the level box, canonical order."""
    out = []
    for v in cons.domains.enumerate_box(level):
        if cons.chain.member_vec(v, i):
            out.append((v, 0))
    return out


def shifted_get(spec: GroupSpec, patch_get, g: Elt):
    """Accessor of sigma^g x from an accessor of x."""
    ginv = spec.inv(g)

    def get(h: Elt):
        return patch_get(spec.mul(ginv, h))

    return get


def conjugation_identity_check(spec: GroupSpec, patch_get, g: Elt,
                               gammas: list[Elt], alpha: int,
                               core: list[Elt]) -> bool:
    """Window check of Per(sigma^g x, Gamma, a) = g Per(x, g^-1 Gamma g, a).

    Both sides are computed empirically with the translate families the
    window supports; they are compared on the given core positions.
    """
    left = per_set_empirical(spec, shifted_get(spec, patch_get, g), core,
                             gammas, alpha)
    conj = [spec.mul(spec.mul(spec.inv(g), t), g) for t in gammas]
    core_right = [spec.mul(spec.inv(g), h) for h in core]
    right_raw = per_set_empirical(spec, patch_get, core_right, conj, alpha)
    right = {spec.mul(g, h) for h in right_raw}
    return left == set(core) & right


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
    cells: list[Elt]                    # window cells w, canonical order
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
        out = np.full(len(self.cells), -1, dtype=np.int16)
        captured = ~self.aperiodic_mask()
        for idx in np.nonzero(captured)[0]:
            out[idx] = self.cons.symbol_from_level(
                int(self.levels[idx]), int(self.fparts[idx]))
        return out


def window_data(cons: Construction, coords: OdometerCoords, radius: int) -> WindowData:
    """Evaluate t_K w over the window B(0, radius) R and stratify the reps."""
    if radius < 0:
        raise SpecError(f"window radius must be non-negative, got {radius}")
    spec, dom = cons.group, cons.domains
    K = coords.depth
    t = coords.rep(K)
    tv, tf = t
    r = spec.rank
    axes = [np.arange(-radius, radius + 1, dtype=np.int64)] * r
    grids = np.meshgrid(*axes, indexing="ij")
    box = np.stack([g.ravel() for g in grids], axis=-1)
    mat = np.array(cons.group.action[tf], dtype=np.int64)
    pos_box = box @ mat.T + np.asarray(tv, dtype=np.int64)

    cells: list[Elt] = []
    pos_rows = []
    u_rows = []
    fparts = []
    for fw in range(spec.finite_order):
        fpart = spec.table[tf][fw]
        for row in box.tolist():
            cells.append((tuple(row), fw))
        pos_rows.append(pos_box)
        u_rows.append(box)
        fparts.append(np.full(len(box), fpart, dtype=np.int64))
    pos = np.concatenate(pos_rows, axis=0)
    ucoords = np.concatenate(u_rows, axis=0)
    fpart_arr = np.concatenate(fparts)

    rep = dom.rep_arr(pos, K)
    lvl_arr = cons.level_array(K)
    levels = lvl_arr[dom.flat_arr(rep, K)].astype(np.int16)
    gamma_top = pos - rep
    return WindowData(cons, coords, radius, cells, ucoords, pos, fpart_arr,
                      levels, gamma_top)


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
    data = window_data(cons, coords, radius)
    dom = cons.domains
    stage_gammas = []
    for j in range(base_level, coords.depth + 1):
        dj, fj = coords.rep(j)
        mat = np.array(cons.group.action[fj], dtype=np.int64)
        pos_j = data.ucoords @ mat.T + np.asarray(dj, dtype=np.int64)
        rep_j = dom.rep_arr(pos_j, j)
        stage_gammas.append(pos_j - rep_j)

    # merging must be monotone upward: a stage-j translate determines the
    # stage-(j+1) translate containing it
    for lo, hi in zip(stage_gammas, stage_gammas[1:]):
        seen: dict[Vec, Vec] = {}
        for a, b in zip(map(tuple, lo.tolist()), map(tuple, hi.tolist())):
            if seen.setdefault(a, b) != b:
                raise SpecError("tower translates do not merge consistently")

    top = stage_gammas[-1]
    keys = [tuple(row) for row in top.tolist()]
    groups: dict[Vec, list[int]] = {}
    for idx, key in enumerate(keys):
        groups.setdefault(key, []).append(idx)

    aper = data.aperiodic_mask()
    pieces = []
    for key in sorted(groups):
        cells = groups[key]
        stages = tuple(
            tuple(sorted({tuple(stage[i].tolist()) for i in cells}))
            for stage in stage_gammas)
        pieces.append(TowerPiece(
            top_gamma=key,
            stage_gammas=stages,
            cells=tuple(cells),
            aperiodic_cells=tuple(i for i in cells if aper[i]),
        ))
    return pieces


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
    spec, dom = cons.group, cons.domains
    K = coords.depth
    data = window_data(cons, coords, radius)
    aper = data.aperiodic_mask()
    forced = data.forced_symbols()

    keys = [tuple(row) for row in data.gamma_top.tolist()]
    piece_ids = sorted(set(keys))
    piece_of = {k: i for i, k in enumerate(piece_ids)}
    cell_piece = np.array([piece_of[k] for k in keys])
    aper_pieces = sorted({int(cell_piece[i]) for i in np.nonzero(aper)[0]})

    candidate_count = cons.m ** len(aper_pieces)

    # orbit approximants h = gamma t_K with the whole translated window inside
    # the oracle box
    N_or = oracle.N
    lvl_or = oracle.levels
    lo = data.pos.min(axis=0)
    hi = data.pos.max(axis=0)
    box = dom.box_coords(N_or)
    member = np.all(box % np.array(cons.chain.level(K), dtype=np.int64) == 0, axis=1)
    safe = dom.in_box_arr(box + lo, N_or) & dom.in_box_arr(box + hi, N_or)
    gammas = box[member & safe]

    piece_cells = {pid: np.nonzero((cell_piece == pid) & aper)[0]
                   for pid in aper_pieces}
    realized: dict[tuple[int, ...], None] = {}
    for gv in gammas:
        shifted = data.pos + gv
        lvls = lvl_or[dom.flat_arr(shifted, N_or)]
        consts = []
        for pid in aper_pieces:
            idx = piece_cells[pid]
            syms = {cons.symbol_from_level(int(lvls[i]), int(data.fparts[i]))
                    for i in idx}
            if len(syms) != 1:
                raise SpecError("approximant not constant on a tower piece")
            consts.append(syms.pop())
        realized.setdefault(tuple(consts))

    patches = []
    for consts in sorted(realized):
        syms = forced.copy()
        for pid, c in zip(aper_pieces, consts):
            syms[(cell_piece == pid) & aper] = c
        patches.append(FiberPatch(tuple(data.cells), tuple(int(s) for s in syms),
                                  tuple(consts)))
    return FiberResult(
        coords=coords,
        patches=tuple(patches),
        piece_count=len(piece_ids),
        aperiodic_piece_count=len(aper_pieces),
        candidate_count=candidate_count,
        approximant_count=len(gammas),
    )


def classify_cell(cons: Construction, patch_get, n: int, window: EtaWindow,
                  translates: list[Elt] | None = None) -> tuple[Elt, int]:
    """Locate the unique v in D_n R with sigma^v x in the level-n class of the
    array, and read the constant symbol on the fresh cells.

    Membership in the class means the whole visible periodic pattern matches:
    the symbol schedule repeats cyclically, so deeper strata shadow single
    translates and the test must range over subgroup translates too.  The
    patch accessor must cover v^-1 Gamma_n (D_n R union fresh(n) R) for the
    supplied translates.
    """
    spec, dom = cons.group, cons.domains
    if translates is None:
        level = min(n + 1, cons.depth)
        translates = subgroup_elements_in_window(cons, n, level)
    per_pattern = {g: sym for g, sym, lvl in window.items() if lvl <= n}
    shifts = [spec.inv(t) for t in translates]
    candidates = []
    for v in ((vec, f) for f in range(spec.finite_order)
              for vec in dom.enumerate_box(n)):
        vinv = spec.inv(v)
        ok = True
        for g, sym in per_pattern.items():
            for tinv in shifts:
                val = patch_get(spec.mul(vinv, spec.mul(tinv, g)))
                if val != sym:  # unreadable positions disqualify the candidate
                    ok = False
                    break
            if not ok:
                break
        if ok:
            candidates.append(v)
    if len(candidates) != 1:
        raise SpecError(f"cell classification found {len(candidates)} candidates")
    v = candidates[0]
    vinv = spec.inv(v)
    vals = set()
    for cell in sorted(cons.fresh_cells(n)):
        for f in range(spec.finite_order):
            val = patch_get(spec.mul(vinv, (cell, f)))
            if val is not None:
                vals.add(val)
    if len(vals) != 1:
        raise SpecError("fresh-cell values are not constant; window too small "
                        "or point outside the modeled subshift")
    return v, vals.pop()
