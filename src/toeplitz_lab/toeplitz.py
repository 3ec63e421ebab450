"""Inductive Toeplitz arrays over G = Z^r semidirect F.

The array eta assigns, level by level, the cyclic symbol alpha_l to the fresh
cells of level l - 1 translated by Gamma_l, and when F is nontrivial the
marker symbol (encoded 0) to Gamma_1-translates of the nontrivial finite-part
representatives.  Everything here is window-exact: values come from the level
stratification of a box, never from extrapolated moduli.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .lattice import (
    DepthExhausted,
    DomainChain,
    GroupSpec,
    SpecError,
    instance_cache,
    read_only,
)

BETA = 0  # marker symbol of the nontrivial finite-part representatives
# The cell format of both layers, the group array and the 1-d sequence: a level
# is at most depth + 1, only compared or used as an index; a symbol is 0 .. m.
LEVEL_DTYPE = np.uint8
SYMBOL_DTYPE = np.int16
UNDEFINED = -1  # an empty cell: the configured steps leave it unfilled
OUTSIDE = -2    # a cell the window or patch does not hold


class ConstructionError(RuntimeError):
    """An internal invariant of the inductive construction failed."""


class Construction:
    """Level stratification and point evaluation of the Toeplitz array over
    the group, the boxes D_i on their chain Gamma_i and m plain symbols, plus
    the marker when F is nontrivial; the chain is the one the boxes are
    built on.

    Levels are stored one byte per cell, as ``LEVEL_DTYPE``: a level array
    holds levels up to depth + 1, so the depth is at most 254 (the chain's
    modulus bound, 2**62, already caps it at 61); symbols, as ``SYMBOL_DTYPE``.
    """

    def __init__(self, group: GroupSpec, domains: DomainChain, m: int):
        group.validate()
        top = int(np.iinfo(LEVEL_DTYPE).max)
        if domains.chain.depth + 1 > top:  # a level array holds levels up to depth + 1
            raise SpecError(f"chain depth {domains.chain.depth} leaves levels past "
                            f"{top}, the largest a level cell holds")
        domains.chain.validate(group.rank)
        domains.validate()
        if not 1 <= m <= np.iinfo(SYMBOL_DTYPE).max:
            raise SpecError(f"m = {m} must lie in 1 .. {np.iinfo(SYMBOL_DTYPE).max}")
        self.group = group
        self.chain = domains.chain
        self.domains = domains
        self.m = m
        # results computed once per read-only array of this construction,
        # with the arrays they were computed from (``measures.once_per_array``)
        self.kept: dict[tuple, tuple[tuple[np.ndarray, ...], object]] = {}

    @property
    def depth(self) -> int:
        return self.chain.depth

    @property
    def alphabet(self) -> tuple[int, ...]:
        return (BETA,) * (self.group.finite_order > 1) + tuple(range(1, self.m + 1))

    def alpha(self, level: int) -> int:
        """Cyclic symbol schedule: level l carries ((l-1) mod m) + 1."""
        return (level - 1) % self.m + 1

    def symbol_from_level(self, level: int, fpart: int) -> int:
        """The check-only reference for ``symbol_table``: the symbol of one
        level-``level`` cell at finite part ``fpart``, the marker at level 1
        off the identity and alpha(level) elsewhere."""
        if level == 1 and fpart != 0:
            return BETA
        return self.alpha(level)

    @instance_cache
    def symbol_table(self) -> np.ndarray:
        """``symbol_table()[f, l]`` is the symbol of a level-l cell at finite
        part f, for every level 0 .. depth+1 a level array can hold: alpha(l)
        on every row, the marker BETA at level 1 off the identity."""
        table = np.tile((np.arange(self.depth + 2, dtype=SYMBOL_DTYPE) - 1) % self.m + 1,
                        (self.group.finite_order, 1))
        table[1:, 1] = BETA
        return read_only(table)

    # -- fresh cells ("not yet periodically filled" part of each box) --------

    @instance_cache
    def fresh_bool(self, n: int) -> np.ndarray:
        """Boolean mask of the level-n fresh cells over the D_n box, read-only."""
        return read_only(self.level_array(n) == n + 1)

    # -- level stratification -------------------------------------------------

    @instance_cache
    def level_array(self, N: int) -> np.ndarray:
        """Stratum level of every cell of the D_N box (values 1 .. N+1),
        read-only.

        Level l <= N marks the Gamma_l-translates of the level-(l-1) fresh
        cells; the remaining cells are the level-N fresh cells and will be
        filled at step N+1.  The D_0 box is the origin, fresh at level 0.

        Built by tiling: q1^N = q1^(N-1) mod p^(N-1), so every p^(N-1) block
        of the D_N box repeats the D_(N-1) array, and a level-(N-1) fresh cell
        is filled at step N exactly when it sits in the central block (the
        D_(N-1) box itself).  Everywhere else it stays fresh (level N+1).
        """
        if not 0 <= N <= self.depth:
            raise DepthExhausted(
                f"level array needs a configured level 0..{self.depth}, got {N}")
        if N == 0:
            return read_only(np.ones(1, dtype=LEVEL_DTYPE))
        p, pp = self.chain.level(N), self.chain.level(N - 1)
        prev = self.level_array(N - 1).reshape(pp)
        grid = np.tile(np.where(prev == N, LEVEL_DTYPE(N + 1), prev),
                       tuple(a // b for a, b in zip(p, pp)))
        centre = tuple(slice(a - c, a - c + b) for a, c, b in
                       zip(self.domains.low(N), self.domains.low(N - 1), pp))
        grid[centre] = prev
        return read_only(grid.ravel())

    def stratum_claims(self, N: int) -> Iterator[np.ndarray]:
        """Per level l = 1 .. N, the mask over the D_N box (shape p^N) of the
        cells that level l claims: those whose rep modulo Gamma_l is a
        level-(l-1) fresh cell of the tiled ``fresh_bool(l - 1)``.

        The box, the rep modulo the diagonal Gamma_l, the test against the
        D_(l-1) box and the index into it are all per axis, so the fresh mask
        is gathered one axis at a time; an index one past the end of an axis,
        into a False slot padded there, stands for a rep outside D_(l-1).
        """
        dom, chain, rank = self.domains, self.chain, self.group.rank
        axes = dom.translate_axes(0, N)
        for l in range(1, N + 1):
            pbs = chain.level(l - 1)
            hit = np.pad(self.fresh_bool(l - 1).reshape(pbs), [(0, 1)] * rank)
            for k, (x, p, q, pb, qb) in enumerate(
                    zip(axes, chain.level(l), dom.low(l), pbs, dom.low(l - 1))):
                s = (x + q) % p - q + qb  # rep mod Gamma_l, offset into D_(l-1)
                hit = hit.take(np.where((s >= 0) & (s < pb), s, pb), axis=k)
            yield hit

    def first_claims(self, coords, first: int, last: int) -> np.ndarray:
        """The claim rule: the first level l in first .. last (byte-wide,
        ``LEVEL_DTYPE``) whose Gamma_l claims each lattice point, last + 1
        where none does, for points given by their per-axis coordinates,
        broadcast together.

        Level l claims v when v, unclaimed below level l, has its rep modulo
        Gamma_l in a level-(l-1) fresh cell.  That rep is congruent to v
        modulo every coarser Gamma_k, so its claims below level l are those of
        v: while v is unclaimed, its rep is fresh exactly when it lies in the
        D_(l-1) box.  Gamma_l is diagonal and the boxes are products, so per
        level one rep and one box test per axis decide; no level array or
        fresh mask is read.
        """
        dom = self.domains
        out = np.full(np.broadcast_shapes(*(np.shape(x) for x in coords)), last + 1,
                      dtype=LEVEL_DTYPE)
        for l in range(last, first - 1, -1):  # the first level that claims is written last
            hit = True
            for x, p, q, lo, hi in zip(coords, self.chain.level(l), dom.low(l),
                                       dom.low(l - 1), dom.q2(l - 1)):
                s = (x + q) % p - q
                hit = hit & (s >= -lo) & (s < hi)
            out[hit] = l
        return out

    def levels_at(self, points: np.ndarray) -> np.ndarray:
        """Stratum level (byte-wide, ``LEVEL_DTYPE``) of each row of an (n, r)
        array of lattice points by the claim rule (``first_claims`` over
        levels 1 .. depth): depth+1 for a point of the D_depth box that no
        level claims, DepthExhausted naming the first point outside it that
        none claims.
        """
        dom = self.domains
        pts = np.asarray(points, dtype=np.int64).reshape(-1, self.group.rank)
        out = self.first_claims(pts.T, 1, self.depth)
        outside = np.flatnonzero((out > self.depth) & ~dom.in_box_arr(pts, self.depth))
        if len(outside):
            raise DepthExhausted(
                f"{tuple(pts[outside[0]].tolist())} is not covered by the configured "
                f"chain prefix (depth {self.depth})")
        return out

    # -- windows --------------------------------------------------------------

    def window(self, N: int) -> "EtaWindow":
        return EtaWindow(self, N, self.level_array(N))


@dataclass(frozen=True, eq=False)
class EtaWindow:
    """The array restricted to D_N R, backed by the level stratification."""

    cons: Construction
    N: int
    levels: np.ndarray = field(repr=False)

    @property
    def spec(self) -> GroupSpec:
        return self.cons.group

    @instance_cache
    def symbol_array(self, fpart: int) -> np.ndarray:
        """Symbol of every cell of the window at finite part fpart, read-only."""
        return read_only(self.cons.symbol_table()[fpart][self.levels])

    def symbol_box(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """``symbol_array`` of every finite part over the lattice box
        low .. high (inclusive per axis), ``OUTSIDE`` where a cell lies
        outside the window: shape (|F|,) + extent.  The box may pad the
        window on any side, crop it, or miss it."""
        dom = self.cons.domains
        p, q1 = dom.chain.level(self.N), dom.low(self.N)
        F = self.spec.finite_order
        out = np.full((F,) + tuple(int(b - a) + 1 for a, b in zip(low, high)), OUTSIDE,
                      dtype=SYMBOL_DTYPE)
        src, dst = [], []
        for a, b, m, q in zip(low.tolist(), high.tolist(), p, q1):
            lo, hi = max(a, -q), min(b + 1, m - q)  # the window's part of the axis
            if lo >= hi:
                return out
            src.append(slice(lo + q, hi + q))
            dst.append(slice(lo - a, hi - a))
        for f in range(F):
            out[f][tuple(dst)] = self.symbol_array(f).reshape(p)[tuple(src)]
        return out
