"""Period sets, and the tower pieces and fibers of odometer points.

A truncated odometer point is the tuple of right-coset representatives
(t_1, ..., t_K) with t_i in D_i R and Gamma_i t_{i+1} = Gamma_i t_i.  Points
of the subshift over it are approximated by orbit translates sigma^{h^{-1}}
eta with h in the coset Gamma_K t_K; such a point reads x(w) = eta(h w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures
from .lattice import EltArr, SpecError, box_elements, cube, product_grid, unique_rows
from .toeplitz import OUTSIDE, SYMBOL_DTYPE, UNDEFINED, Construction, EtaWindow


# (point, window cell) pairs per census batch and (fiber key, approximant)
# pairs per fiber evaluation: 512 KB per int64 array
_CHUNK_CELLS = 1 << 16


# -- period sets --------------------------------------------------------------


def per_set_exact(cons: Construction, points: EltArr, i: int,
                  alphas: np.ndarray) -> np.ndarray:
    """Masks of the points in the Gamma_i-periodic part of eta that reads
    alphas[s], for a batch of samples, from the stratification: eta is
    constant on the coset Gamma_i w exactly when w has level <= i.  Points
    are lattice parts (S, C, r) and finite parts (S, C); returns (S, C)
    booleans.  Levels come from ``Construction.levels_at`` and symbols from
    ``symbol_table``, never from a window array, so this exact period set
    shares no array with ``per_set_empirical``, which approximates it."""
    pv, pf = points
    levels = cons.levels_at(pv.reshape(-1, cons.group.rank)).reshape(pf.shape)
    return (levels <= i) & (cons.symbol_table()[pf, levels] == alphas[:, None])


def per_set_empirical(win: EtaWindow, outer: EltArr, gammas: EltArr, core: EltArr,
                      alphas: np.ndarray) -> np.ndarray:
    """Masks of the core positions h whose whole visible Gamma-orbit reads
    alphas[s], for a batch of points x_s(w) = eta(a_s w) of the window,
    a_s = outer[s]: x_s(h) is alphas[s] and each x_s(gamma^-1 h) is alphas[s]
    or cannot be read.

    ``outer`` holds one element per sample, lattice parts (S, r) and finite
    parts (S,); the K lattice translates ``gammas``, (K, r) and (K,), and the
    C cells ``core``, (C, r) and (C,), are shared by the samples.  Returns
    (S, C) booleans.  Tests only the translates that fall inside the window,
    so each row is a superset of the exact period set (``per_set_exact``)
    restricted to it.  A gamma with a nonzero finite part raises SpecError.

    With a_s = (a_v, f) and a_s h = (w, f'), the read x_s(gamma^-1 h) is eta
    at (w - M_f gamma, f').  So whether a cell (w, f') agrees with every
    visible translate depends on f alone: one ``EtaWindow.symbol_box`` call
    reads the box B of the cells a_s h, clipped to the window and widened by
    the largest M_f gamma, each finite part f of a sample makes one shifted
    comparison per gamma over B, and each (sample, cell) gathers one entry:
    the cell's symbol where it agrees, UNDEFINED where it does not, and
    OUTSIDE where it lies outside the window.
    """
    spec = win.spec
    F = spec.finite_order
    ov, of = outer
    if gammas[1].any():
        k = int(np.argmax(gammas[1] != 0))
        raise SpecError(f"gamma {tuple(gammas[0][k].tolist())} has finite part "
                        f"{int(gammas[1][k])}: the translates must be lattice elements")
    out = np.zeros((len(of), len(core[1])), dtype=bool)
    if out.size == 0:
        return out
    fparts = np.arange(F)[:, None]
    # M_f h_v and f h_f for every finite part f, shapes (|F|, C, r), (|F|, C)
    cell_v, cell_f = spec.mul_arr(0, fparts, *core)
    # the read offsets -M_f gamma, shape (|F|, K, r)
    offsets = -spec.mul_arr(0, fparts, gammas[0], 0)[0]
    used = np.zeros(F, dtype=bool)
    used[of] = True
    low = ov.min(axis=0) + cell_v[used].min(axis=(0, 1))
    high = ov.max(axis=0) + cell_v[used].max(axis=(0, 1))
    dom = win.cons.domains
    q1 = np.array(dom.low(win.N))
    clip_low = np.maximum(low, -q1)
    clip_high = np.minimum(high, np.array(dom.chain.level(win.N)) - q1 - 1)
    if np.any(clip_low > clip_high):
        return out  # no cell a_s h lies in the window
    pad_low = offsets[used].min(axis=(0, 1), initial=0)
    pad_high = offsets[used].max(axis=(0, 1), initial=0)
    syms = win.symbol_box(clip_low + pad_low, clip_high + pad_high)
    ext = clip_high - clip_low + 1

    def at(shift):
        return syms[(slice(None),) + tuple(slice(int(a), int(a + e))
                                           for a, e in zip(shift - pad_low, ext))]

    own = at(0)
    # the entries over the clipped box and a ring of OUTSIDE around it, where
    # the cells a_s h outside the window land
    codes = np.full((F, F) + tuple((ext + 2).tolist()), OUTSIDE, dtype=SYMBOL_DTYPE)
    inner = tuple(slice(1, int(e) + 1) for e in ext)
    for f in np.flatnonzero(used):
        agree = np.ones(own.shape, dtype=bool)
        for shift in offsets[f]:
            seen = at(shift)
            agree &= (seen == own) | (seen < 0)  # OUTSIDE cannot be read
        codes[(f, slice(None)) + inner] = np.where(agree, own, UNDEFINED)
    idx = (fparts * F + cell_f)[of]
    for k, e in enumerate(ext.tolist()):
        x = cell_v[..., k][of] + (ov[:, k] - clip_low[k] + 1)[:, None]
        idx = idx * (e + 2) + np.clip(x, 0, e + 1, out=x)
    return codes.ravel()[idx] == alphas[:, None]


# -- tower pieces, the aperiodic part and fibers -------------------------------


# the block coordinate of a missing piece slot in a fiber key
_NO_BLOCK = np.iinfo(np.int64).min


class _Batch:
    """Window bookkeeping of a batch of odometer points of one depth K,
    given by the lattice parts (points, r) and finite parts (points,) of
    their deepest reps t_K.

    Row i is a point and column u a cell of the lattice box B(0, radius).
    With t_K = (d, f), a window cell (u, g) sits at t_K (u, g) = (d + M_f u,
    f g), so its lattice part, its translate and its level do not depend on
    g.  Lattice parts are kept one coordinate per array.  Cell u lies in the
    Gamma_K translate p_K (low[i] + unravel(code[i, u], ext)) of D_K, so the
    codes of one point sort like its translates, and its tower pieces are
    its distinct codes.

    Only stage K is built.  A census point has t_j = (rep of d mod Gamma_j,
    f) at every stage j, and the chain has p_j | p_(j+1) and q1^(j+1) = q1^j
    + c p_j for an integer c (``DomainChain.validate``).  So per axis the
    stage-(j+1) translate index of a position x, floor((x + q1^(j+1)) /
    p_(j+1)), is floor((s_j + c) / (p_(j+1) / p_j)) with s_j its stage-j
    index: every stage-j translate of the window lies in one stage-(j+1)
    translate, and the lower stages add nothing to the pieces.
    """

    def __init__(self, cons: Construction, reps_v: np.ndarray, reps_f: np.ndarray,
                 depth: int, radius: int):
        spec, K = cons.group, depth
        self.cons, self.depth = cons, K
        # M_f u for every finite part f, shape (|F|, r, window box)
        moved, _ = spec.mul_arr(0, np.arange(spec.finite_order)[:, None],
                                cube(spec.rank, radius), 0)
        moved = np.ascontiguousarray(moved.transpose(0, 2, 1))
        self.pos = [moved[reps_f, k] + reps_v[:, k, None] for k in range(spec.rank)]
        low, code, ext = [], 0, []
        flat = 0  # of the rep of each position in the D_K box
        for x, a, m in zip(self.pos, cons.domains.low(K), cons.chain.level(K)):
            rem = x + a
            s = rem // m
            rem -= s * m  # np.divmod takes twice as long
            low.append(s.min(axis=1))
            s -= low[-1][:, None]
            ext.append(int(s.max()) + 1)
            code = code * ext[-1] + s
            flat = flat * m + rem
        self.low, self.code, self.ext = np.stack(low, axis=-1), code, tuple(ext)
        self.aperiodic = cons.level_array(K)[flat] > K

    def units(self, point, codes) -> np.ndarray:
        """Translates of the given codes of the given points, in units of p_K."""
        return np.stack(np.unravel_index(codes, self.ext), axis=-1) + self.low[point]

    def pieces(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Flags (points, codes): the translates that hold a cell of the
        window, or of the masked part of it."""
        size = math.prod(self.ext)
        key = self.code + size * np.arange(len(self.code))[:, None]
        seen = np.zeros(len(key) * size, dtype=bool)
        seen[key if mask is None else key[mask]] = True
        return seen.reshape(len(key), size)

    def fiber_keys(self, N: int, aperiodic: np.ndarray) -> np.ndarray:
        """One row per point holding everything its fiber inside the D_N box
        depends on (``_fiber_counts``), given the flags of its aperiodic pieces
        (``pieces(self.aperiodic)``): its approximant range, ``first`` then
        ``last`` per axis, then the block coordinates of its aperiodic pieces
        in the D_N box, in code order, with ``_NO_BLOCK`` in the slots past
        its last piece.

        The approximants of a point are the gamma in Gamma_K that keep gamma
        and the whole window inside the D_N box: per axis the multiples of
        p_K in [max(-q1, -q1 - lo), min(q2, q2 - hi)), with lo and hi the
        extremes of the window positions, that is gamma / p_K in [first,
        last].  Block b of the D_N box holds the translate b p_K - (q1^N -
        q1^K).
        """
        dom, K = self.cons.domains, self.depth
        p = np.array(self.cons.chain.level(K))
        a, b = np.array(dom.low(N)), np.array(dom.q2(N))
        low = np.stack([x.min(axis=1) for x in self.pos], axis=-1)
        high = np.stack([x.max(axis=1) for x in self.pos], axis=-1)
        first = -(np.minimum(a, a + low) // p)
        last = (np.minimum(b, b - high) - 1) // p
        pt, code = np.nonzero(aperiodic)
        count = np.bincount(pt, minlength=len(aperiodic))
        slot = np.arange(len(pt)) - (np.cumsum(count) - count)[pt]
        blocks = np.full((len(aperiodic), int(count.max(initial=0)), len(p)), _NO_BLOCK)
        blocks[pt, slot] = self.units(pt, code) + (a - np.array(dom.low(K))) // p
        return np.concatenate([first, last, blocks.reshape(len(aperiodic), -1)], axis=1)


def _fiber_counts(cons: Construction, depth: int, N: int, table: np.ndarray,
                  keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fiber count and the number of approximants of each key row
    (``_Batch.fiber_keys``), given the symbol of every Gamma_K translate of
    D_K inside the D_N box (``census``).

    A fiber count is the number of distinct rows of aperiodic piece
    constants that the key's approximants realize: under gamma an aperiodic
    piece, a Gamma_K translate tau + D_K, reads the table entry of tau +
    gamma.  The count reads the key and the table alone.  One grid covers
    the approximants of every key, with a mask per key.
    """
    p = np.array(cons.chain.level(depth))
    r = len(p)
    first, last = keys[:, :r], keys[:, r:2 * r]
    blocks = keys[:, 2 * r:].reshape(len(keys), -1, r)
    real = blocks[..., 0] != _NO_BLOCK
    grid = product_grid([np.arange(lo, hi + 1) for lo, hi in
                         zip(first.min(axis=0), last.max(axis=0))])
    valid = np.all((grid >= first[:, None]) & (grid <= last[:, None]), axis=-1)

    nb = np.array(cons.chain.level(N)) // p
    at = np.clip(np.where(real[..., None], blocks, 0)[:, None] + grid[None, :, None],
                 0, nb - 1)
    flat = at[..., 0]
    for j in range(1, r):
        flat = flat * nb[j] + at[..., j]
    syms = np.where(real[:, None], table[flat], 0)[valid]
    rows = unique_rows(np.column_stack([np.nonzero(valid)[0], syms]))[0]
    return np.bincount(rows[:, 0], minlength=len(keys)), valid.sum(axis=1)


# -- the census -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Census:
    """The odometer points of one depth K in canonical order (finite part,
    then the lattice part of t_K), and their counts.  The fiber counts and
    approximants are read inside the D_N box of an oracle level N, and are
    None when ``census`` is given none, and so is ``groups``."""

    reps: np.ndarray                 # lattice parts of t_1 .. t_K, (points, K, r)
    fparts: np.ndarray               # the finite part shared by t_1 .. t_K
    pieces: np.ndarray               # tower pieces meeting the window
    aperiodic_pieces: np.ndarray     # pieces that hold an aperiodic cell
    fibers: np.ndarray | None        # realized patches, given an oracle level
    approximants: np.ndarray | None  # orbit approximants, given an oracle level
    groups: int | None               # distinct fiber keys evaluated, given one


def census(cons: Construction, depth: int, radius: int, N: int | None = None) -> Census:
    """Tower pieces, aperiodic pieces and, given an oracle level N, the fiber
    count of every odometer point of the given depth.

    The point (t_1, .., t_K) with t_K = (v, f) has t_i = (rep of v mod
    Gamma_i, f).  Its tower pieces are the Gamma_K translates that hold a
    cell of its window B(0, radius) R, each lower-stage translate lying in
    one of them (see ``_Batch``); its aperiodic pieces hold a cell of level
    above K; its fiber count is the number of distinct rows of aperiodic
    piece constants that its orbit approximants realize inside the D_N box.
    A single point is read as its row of the census.

    The window work runs in batches of at most ``_CHUNK_CELLS`` (point,
    window cell) pairs and gives each point its fiber key
    (``_Batch.fiber_keys``): its approximant range and the D_N-box blocks of
    its aperiodic pieces.  The fiber count and the approximants read the key
    and the table alone (``_fiber_counts``), so points with one key have one
    fiber count, and each distinct key of the whole census is evaluated once
    and scattered back to its points: the grouping is exact by construction.
    ``groups`` is the number of distinct keys.  The evaluation runs in
    batches of at most ``_CHUNK_CELLS`` (key, approximant) pairs, and at
    least one key, since a key has at most one approximant per translate in
    the table.

    The oracle is the class table of the Gamma_K translates of D_K inside the
    D_N box (``measures.class_levels``), mapped to symbols: class levels are
    at least 2, so a class symbol does not depend on the finite part.  It is
    read once per (key, approximant, aperiodic piece).  Building it
    certifies that the level-N array holds every translate's class level on
    all of its level-K fresh cells x R, a superset of the cells any window
    sees; a translate where it does not raises ConstructionError naming its
    gamma, and N < K raises SpecError.
    """
    spec, dom = cons.group, cons.domains
    box = dom.box_coords(depth)
    reps, fparts = box_elements(
        np.stack([dom.rep_arr(box, i) for i in range(1, depth + 1)], axis=1),
        spec.finite_order)
    table = None if N is None else cons.symbol_table()[0][measures.class_levels(cons, depth, N)]
    step = max(1, _CHUNK_CELLS // len(cube(spec.rank, radius)))
    pieces, aperiodic, keys = [], [], []
    for start in range(0, len(reps), step):
        chunk = slice(start, start + step)
        batch = _Batch(cons, reps[chunk, -1], fparts[chunk], depth, radius)
        flags = batch.pieces(batch.aperiodic)
        pieces.append(batch.pieces().sum(axis=1))
        aperiodic.append(flags.sum(axis=1))
        if table is not None:
            keys.append(batch.fiber_keys(N, flags))
    pieces, aperiodic = np.concatenate(pieces), np.concatenate(aperiodic)
    if table is None:
        return Census(reps, fparts, pieces, aperiodic, None, None, None)
    width = max(k.shape[1] for k in keys)
    keys, inverse = unique_rows(np.concatenate(
        [np.pad(k, ((0, 0), (0, width - k.shape[1])), constant_values=_NO_BLOCK)
         for k in keys]))
    step = max(1, _CHUNK_CELLS // len(table))
    fibers, approximants = (np.concatenate(col) for col in zip(*(
        _fiber_counts(cons, depth, N, table, keys[start:start + step])
        for start in range(0, len(keys), step))))
    return Census(reps, fparts, pieces, aperiodic, fibers[inverse], approximants[inverse],
                  len(keys))
