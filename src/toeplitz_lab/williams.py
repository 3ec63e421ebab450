"""The classical inductive Toeplitz sequence over Z.

Step 1 writes alpha_1 on the residues 0 and -1 mod p_1; step i+1 writes
alpha_{i+1} on the still-empty positions of the p_i-blocks whose index is
0 or -1 mod p_{i+1}/p_i.  Positions still empty after the configured number
of steps stay Undefined; Undefined never matches any symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .lattice import SpecError, unique_rows

UNDEFINED = -1


@dataclass(frozen=True)
class WilliamsParams:
    m: int
    periods: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.periods)

    def alpha(self, i: int) -> int:
        """Symbol written at step i: the residue of i in {0, ..., m-1}."""
        return i % self.m

    def validate(self) -> None:
        if self.m < 2:
            raise SpecError("alphabet needs at least two symbols")
        if not self.periods or self.periods[0] < 3:
            raise SpecError("first period must be at least 3")
        for a, b in zip(self.periods, self.periods[1:]):
            if b % a != 0 or b // a < 3:
                raise SpecError("periods must divide with ratio at least 3")


@dataclass(frozen=True, eq=False)
class ZPatch:
    """Symbols and filling steps of the sequence on [-N, N]."""

    params: WilliamsParams
    N: int
    symbols: np.ndarray = field(repr=False)
    levels: np.ndarray = field(repr=False)

    def index(self, n: int) -> int:
        return n + self.N

    def in_window(self, n: int) -> bool:
        return -self.N <= n <= self.N

    def symbol(self, n: int) -> int | None:
        if not self.in_window(n):
            return None
        s = int(self.symbols[self.index(n)])
        return None if s == UNDEFINED else s

    def level(self, n: int) -> int:
        if not self.in_window(n):
            raise IndexError(n)
        return int(self.levels[self.index(n)])

    def undefined_count(self) -> int:
        return int((self.symbols == UNDEFINED).sum())


def generate(params: WilliamsParams, N: int) -> ZPatch:
    """Run every configured step on the window [-N, N]."""
    params.validate()
    if N < params.periods[0]:
        raise SpecError("window must cover at least one period")
    size = 2 * N + 1
    symbols = np.full(size, UNDEFINED, dtype=np.int16)
    levels = np.zeros(size, dtype=np.int16)
    pos = np.arange(-N, N + 1, dtype=np.int64)

    p1 = params.periods[0]
    first = (pos % p1 == 0) | (pos % p1 == p1 - 1)
    symbols[first] = params.alpha(1)
    levels[first] = 1

    for i in range(1, params.depth):
        p, ratio = params.periods[i - 1], params.periods[i] // params.periods[i - 1]
        block = np.floor_divide(pos, p)
        chosen = (block % ratio == 0) | (block % ratio == ratio - 1)
        fill = chosen & (symbols == UNDEFINED)
        symbols[fill] = params.alpha(i + 1)
        levels[fill] = i + 1
    return ZPatch(params, N, symbols, levels)


def convergence_partial_sums(params: WilliamsParams) -> list[Fraction]:
    """Partial sums of sum_i p_i / p_{i+1}, exact."""
    out: list[Fraction] = []
    total = Fraction(0)
    for a, b in zip(params.periods, params.periods[1:]):
        total += Fraction(a, b)
        out.append(total)
    return out


def coords_of_int(params: WilliamsParams, g: int, depth: int) -> tuple[int, ...]:
    return tuple(g % p for p in params.periods[:depth])


def coords_compatible(params: WilliamsParams, coords: tuple[int, ...]) -> bool:
    for i in range(len(coords) - 1):
        if coords[i + 1] % params.periods[i] != coords[i]:
            return False
    return True


@dataclass(frozen=True)
class ZFiberPatch:
    """One realized window restriction of an orbit approximant."""

    offsets: tuple[int, ...]
    symbols: tuple[int, ...]
    aperiodic_symbol: int | None


def fiber_patches(params: WilliamsParams, eta: ZPatch, coords: tuple[int, ...],
                  N: int) -> tuple[list[ZFiberPatch], dict]:
    """Distinct fully-defined [-N, N] restrictions of the approximants
    sigma^{-g_t} eta with g_t congruent to the coords at every given depth.

    g_t runs over one full period of the deepest configured period.  The
    window should be narrow enough that the positions not yet periodic at the
    coords' depth form a single filled-together cluster; each defined patch
    is then determined by (coords, constant on that cluster), which is what
    bounds the count by the alphabet size.  Approximants whose window still
    contains Undefined positions are tallied separately, not returned.
    """
    if not coords_compatible(params, coords):
        raise SpecError("incompatible odometer residues")
    k = len(coords)
    if not 1 <= k <= params.depth:
        raise SpecError("coords depth out of range")
    pk = params.periods[k - 1]
    p_top = params.periods[-1]
    base = coords[-1] % pk
    if eta.N < p_top + N:
        raise SpecError("oracle window too small for a full top-period sweep")

    offsets = np.arange(-N, N + 1, dtype=np.int64)
    # one row per approximant g_t, one column per offset, as patch indices
    idx = np.arange(base, base + p_top, pk, dtype=np.int64)[:, None] + offsets + eta.N
    inside = (idx >= 0) & (idx < len(eta.symbols))
    idx = np.where(inside, idx, 0)
    window = np.where(inside, eta.symbols[idx], UNDEFINED)
    mature = ~np.any(window == UNDEFINED, axis=1)
    immature = int(len(window) - mature.sum())
    window, idx = window[mature], idx[mature]

    def not_captured(lvl: np.ndarray) -> np.ndarray:
        return (lvl == 0) | (lvl > k)  # level 0 marks still-Undefined cells

    aper_mask = not_captured(eta.levels[base + offsets + eta.N])
    undetermined = np.any(not_captured(eta.levels[idx]) != aper_mask, axis=1)
    aper = window[:, aper_mask]
    varying = np.any(aper != aper[:, :1], axis=1)
    # the first failing approximant decides which error is raised
    bad = np.nonzero(undetermined | varying)[0]
    if len(bad):
        if undetermined[bad[0]]:
            raise SpecError("aperiodic part is not determined by the coords")
        raise SpecError("aperiodic part of an approximant is not constant; "
                        "narrow the window")
    offsets_t = tuple(offsets.tolist())
    patches = [ZFiberPatch(offsets_t, tuple(row.tolist()),
                           int(row[aper_mask][0]) if aper_mask.any() else None)
               for row in unique_rows(window)[0]]
    info = {"immature": immature, "aperiodic_cells": int(aper_mask.sum())}
    return patches, info


def max_safe_fiber_radius(patch: ZPatch, depth: int) -> int:
    """Largest window radius for which at most one not-yet-periodic cluster
    of the given coords depth can meet the window, found by scanning the
    patch over [-(p_top + p_1), p_top + p_1], one full deeper period of the
    level map."""
    params = patch.params
    reach = params.periods[-1] + params.periods[0]
    if patch.N < reach:
        raise SpecError(f"the radius probe needs a patch of radius at least {reach}, "
                        f"got {patch.N}")
    probe = slice(patch.N - reach, patch.N + reach + 1)
    deep = (patch.levels[probe] > depth) | (patch.symbols[probe] == UNDEFINED)
    flags = np.flatnonzero(deep)
    # lengths of the runs of shallow cells that end at a deep cell; the run
    # after the last deep cell is open and does not count
    gaps = np.diff(flags, prepend=-1) - 1
    gaps = gaps[gaps > 0]
    if not len(gaps):
        return params.periods[0]
    min_gap = int(gaps.min())
    return max(params.periods[0] // 2, (min_gap - 1) // 2)
