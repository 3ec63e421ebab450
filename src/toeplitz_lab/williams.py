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

from .lattice import SpecError
from .toeplitz import LEVEL_DTYPE, OUTSIDE, SYMBOL_DTYPE, UNDEFINED


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
        if self.depth > np.iinfo(LEVEL_DTYPE).max:  # a patch holds levels 0 .. depth
            raise SpecError(f"{self.depth} periods leave levels past "
                            f"{np.iinfo(LEVEL_DTYPE).max}, the largest a level cell holds")


@dataclass(frozen=True, eq=False)
class ZPatch:
    """Symbols and filling steps of the sequence on [-N, N]: position n is
    array index n + N."""

    params: WilliamsParams
    N: int
    symbols: np.ndarray = field(repr=False)
    levels: np.ndarray = field(repr=False)

    def at(self, n) -> np.ndarray:
        """The symbols (``SYMBOL_DTYPE``) at the integer positions n, of any
        shape: UNDEFINED on the patch's empty cells, OUTSIDE where |n| > N."""
        idx = np.asarray(n) + self.N
        inside = (idx >= 0) & (idx <= 2 * self.N)
        return np.where(inside, self.symbols.take(idx, mode="clip"), OUTSIDE)

    def symbol(self, n: int) -> int | None:
        """The symbol at one position, None outside the window or on an
        empty cell: the check-only reference for ``at``."""
        if not -self.N <= n <= self.N:
            return None
        s = int(self.symbols[n + self.N])
        return None if s == UNDEFINED else s


def _period(params: WilliamsParams, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Levels and symbols of the first ``depth`` steps over one period
    [0, p_depth).

    The first period is p_1 cells with level 1 at both ends; each later one
    tiles the previous one p_{i+1}/p_i times and fills the empty cells of its
    first and last p_i-blocks.  Levels map to symbols through a level table.
    """
    levels = np.zeros(params.periods[0], dtype=LEVEL_DTYPE)
    levels[[0, -1]] = 1
    for i in range(1, depth):
        p = params.periods[i - 1]
        levels = np.tile(levels, params.periods[i] // p)
        for block in (levels[:p], levels[-p:]):
            block[block == 0] = i + 1
    table = np.array([UNDEFINED, *(params.alpha(i) for i in range(1, depth + 1))],
                     dtype=SYMBOL_DTYPE)
    return levels, table[levels]


def generate(params: WilliamsParams, N: int) -> ZPatch:
    """Run every configured step on the window [-N, N].

    The deepest period no longer than the window is built, rotated to start
    at -N and repeated over the window, with no position array.  Each later
    step has a period P longer than the window, so its chosen p-blocks meet
    the window only in the runs [cP - p, cP + p), at most three of them;
    their empty cells are filled.
    """
    params.validate()
    if N < params.periods[0]:
        raise SpecError("window must cover at least one period")
    size = 2 * N + 1
    depth = sum(p <= size for p in params.periods)
    levels, symbols = (np.resize(np.roll(a, N), size) for a in _period(params, depth))
    for i in range(depth, params.depth):
        p, P = params.periods[i - 1], params.periods[i]
        for c in range((-N - p) // P + 1, (N + p) // P + 1):
            run = slice(max(c * P - p, -N) + N, min(c * P + p, N + 1) + N)
            fill = levels[run] == 0
            levels[run][fill] = i + 1
            symbols[run][fill] = params.alpha(i + 1)
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


@dataclass(frozen=True, eq=False)
class ZFiberScan:
    """Per-residue fiber counts of a batch of depth-k odometer points, in the
    order of the residues given to ``fiber_scan``."""

    counts: np.ndarray           # distinct fully-defined window restrictions
    aperiodic_cells: np.ndarray  # window cells not yet periodic at depth k
    immature: np.ndarray         # approximants whose window holds Undefined cells


def _not_captured(levels: np.ndarray, k: int) -> np.ndarray:
    return (levels == 0) | (levels > k)  # level 0 marks still-Undefined cells


def fiber_scan(eta: ZPatch, k: int, residues, N: int) -> ZFiberScan:
    """Fiber counts of the depth-k odometer points given by their residues
    (read mod p_k), through the [-N, N] restrictions of their approximants.

    The approximants of residue b are g_t = b + t p_k over one top period,
    so every residue's windows are read together, one pass per offset over
    contiguous slices in small integer and bool dtypes; the count is the
    exact number of distinct fully defined windows.  Only the given residues
    are checked, in order: the first one that fails decides, and within it
    the first fully defined approximant that fails decides the error.
    """
    params = eta.params
    if not 1 <= k <= params.depth:
        raise SpecError("coords depth out of range")
    pk, p_top = params.periods[k - 1], params.periods[-1]
    residues = np.asarray(residues, dtype=np.int64) % pk
    if eta.N < p_top + N:
        raise SpecError("oracle window too small for a full top-period sweep")
    W = 2 * N + 1
    span = slice(eta.N - N, eta.N + N + p_top)
    symbols = eta.symbols[span]
    # a window is compared as the base-radix number of its digits symbol - lo;
    # each key packs as many offsets as fit below 2**62, and the key
    # radix**per_key marks a window with an Undefined cell
    lo = int(symbols.min())
    radix = int(symbols.max()) - lo + 1
    per_key = 1
    while per_key < W and radix ** (per_key + 1) <= 1 << 62:
        per_key += 1
    digits = (symbols.astype(np.int32) - lo).astype(np.min_scalar_type(radix - 1))
    immature_key = radix ** per_key
    shape = (p_top // pk, pk)

    def by_offset(arr):
        # arr[q + w] for the approximants q = t p_k + b in [0, p_top): one
        # contiguous (t, b) view per offset w
        return [arr[w:w + p_top].reshape(shape) for w in range(W)]

    mature = np.ones(shape, dtype=bool)
    undetermined = np.zeros(shape, dtype=bool)
    aper = np.empty((W, pk), dtype=bool)
    # the largest digit and the largest flipped digit radix - 1 - d on each
    # window's aperiodic cells: the part is constant when they add to radix - 1
    top = np.zeros(shape, dtype=digits.dtype)
    top_flipped = np.zeros(shape, dtype=digits.dtype)
    keys = [np.zeros(shape, dtype=np.min_scalar_type(immature_key))
            for _ in range(0, W, per_key)]
    for w, (sym, digit, flipped, lvl) in enumerate(zip(*map(
            by_offset, (symbols, digits, radix - 1 - digits, eta.levels[span])))):
        free = _not_captured(lvl, k)
        # the aperiodic cells are those of the approximant g_0 = b
        aper[w] = free[0]
        mature &= sym != UNDEFINED
        undetermined |= free != free[0]
        on = free[0].astype(digits.dtype)
        np.maximum(top, digit * on, out=top)
        np.maximum(top_flipped, flipped * on, out=top_flipped)
        key = keys[w // per_key]
        key *= radix
        key += digit
    varying = (top != radix - 1 - top_flipped) & aper.any(axis=0)
    bad = mature & (undetermined | varying)
    failing = bad.any(axis=0)[residues]
    if failing.any():
        b = residues[np.argmax(failing)]
        if undetermined[np.argmax(bad[:, b]), b]:
            raise SpecError("aperiodic part is not determined by the coords")
        raise SpecError("aperiodic part of an approximant is not constant; "
                        "narrow the window")
    # sort each residue's window keys and count the fully defined ones that
    # differ from their predecessor
    for key in keys:
        key[~mature] = immature_key
    if len(keys) == 1:
        keys = [np.sort(keys[0], axis=0)]
    else:
        order = np.lexsort(keys[::-1], axis=0)
        keys = [np.take_along_axis(key, order, axis=0) for key in keys]
    new = np.zeros(shape, dtype=bool)
    new[0] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    counts = (new & (keys[0] != immature_key)).sum(axis=0)[residues]
    return ZFiberScan(counts, aper.sum(axis=0)[residues],
                      (~mature).sum(axis=0)[residues])


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
