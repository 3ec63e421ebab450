"""Exact invariant-measure computations for the group construction.

The level-n periodization has a uniform measure on its finite orbit; every
frequency here is an exact rational obtained by counting cells of a box
window.  The cell classes at level n are indexed by the subgroup elements
gamma inside the deeper box: the class level is the one the claim rule gives
gamma * fresh(n) * R, and the array is verified to hold it on every one of
those cells, never assumed to.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import TypeVar

import numpy as np

from .lattice import SpecError, read_only, unique_rows
from .toeplitz import BETA, Construction, ConstructionError

MeasureVector = dict[int, Fraction]
T = TypeVar("T")


def once_per_array(cons: Construction, key: tuple, arrays: tuple[np.ndarray, ...],
                   compute: Callable[..., T]) -> T:
    """``compute(*arrays)``, once per read-only array of the construction.

    The result is kept on the construction under ``key`` and served again
    only while every array is the same object it was computed from and still
    read-only.  A writeable or substituted array is always read again, so
    what is certified is the array as it stands, and a kept result describes
    an array that can no longer change.
    """
    hit = cons.kept.get(key)
    if hit is not None and all(a is b and not a.flags.writeable
                               for a, b in zip(arrays, hit[0])):
        return hit[1]
    out = compute(*arrays)
    if not any(a.flags.writeable for a in arrays):
        cons.kept[key] = (arrays, out)
    return out


def _level_counts(cons: Construction, n: int) -> np.ndarray:
    """Cells of the level-n array at each level 0 .. n+1 (entry 0 stays 0),
    read-only.

    Counted once per read-only level array (``once_per_array``):
    every identity that reads these counts certifies the array as it stands,
    and it can no longer change.  A writeable or substituted array is
    counted again.  The gen-group summary reports these counts too.
    """
    return once_per_array(cons, ("level_counts", n), (cons.level_array(n),),
                          partial(_count_levels, n))


def _count_levels(n: int, lvl: np.ndarray) -> np.ndarray:
    """The counts of ``_level_counts`` from the level-n array itself.

    Each level is counted on the byte-wide array in place, one comparison
    per level, each through a bool temporary the size of the array (9.8 MB
    at z2-m2 level 5): ``np.bincount`` would first cast the array to an intp
    temporary eight times its size (78 MB there).  The counts must account
    for every cell, so a level outside 1 .. n+1 is refused, naming the value
    and its first flat index.
    """
    counts = np.zeros(n + 2, dtype=np.int64)
    for l in range(1, n + 2):
        counts[l] = np.count_nonzero(lvl == l)
    if counts.sum() != lvl.size:
        i = int(np.argmax((lvl < 1) | (lvl > n + 1)))
        raise ConstructionError(
            f"level {int(lvl[i])} at flat index {i} of the level-{n} array "
            f"is outside 1..{n + 1}")
    return read_only(counts)


def fresh_count(cons: Construction, n: int) -> int:
    """|fresh(n)| by the closed recursion from |fresh(0)| = |D_0| = 1; the
    box mask must agree."""
    count = 1
    for l in range(1, n + 1):
        count *= cons.domains.size(l) // cons.domains.size(l - 1) - 1
    return count


def mu_freq_counted(cons: Construction, n: int) -> MeasureVector:
    """Symbol frequencies of the level-n periodization by direct counting,
    each level's cells read once per finite part through ``symbol_table``."""
    counts = _level_counts(cons, n).tolist()
    total = cons.domains.size(n) * cons.group.finite_order
    out: dict[int, int] = {sym: 0 for sym in cons.alphabet}
    for row in cons.symbol_table()[:, :n + 2].tolist():
        for sym, c in zip(row, counts):
            out[sym] += c
    return {sym: Fraction(c, total) for sym, c in sorted(out.items())}


def mu_freq_closed(cons: Construction, n: int) -> MeasureVector:
    """Same frequencies from the exact stratum cardinalities."""
    F = cons.group.finite_order
    sizes = [cons.domains.size(i) for i in range(1, n + 1)]
    total = sizes[n - 1] * F
    out: dict[int, int] = {sym: 0 for sym in cons.alphabet}
    lvl1 = sizes[n - 1] // sizes[0]
    out[cons.alpha(1)] += lvl1
    if F > 1:
        out[BETA] += lvl1 * (F - 1)
    for l in range(2, n + 1):
        out[cons.alpha(l)] += fresh_count(cons, l - 1) * (sizes[n - 1] // sizes[l - 1]) * F
    out[cons.alpha(n + 1)] += fresh_count(cons, n) * F
    return {sym: Fraction(c, total) for sym, c in sorted(out.items())}


def marker_mass_closed(cons: Construction) -> Fraction:
    """(1/|D_1|)(1 - 1/|R|), the level-independent marker frequency."""
    F = cons.group.finite_order
    return Fraction(1, cons.domains.size(1)) * (1 - Fraction(1, F))


def periodic_density_counted(cons: Construction, n: int) -> Fraction:
    """d_n: share of the level-n window already captured by level <= n."""
    counts = _level_counts(cons, n)
    captured = int(counts[1: n + 1].sum())
    return Fraction(captured, cons.domains.size(n))


def periodic_density_closed(cons: Construction, n: int) -> Fraction:
    """Product formula: 1 - d_n = prod_{j < n} (1 - |D_j|/|D_{j+1}|), with
    |D_0| = 1."""
    out = Fraction(1)
    for j in range(n):
        out *= 1 - Fraction(cons.domains.size(j), cons.domains.size(j + 1))
    return 1 - out


@dataclass(frozen=True)
class DensityCheck:
    level: int
    counted: Fraction
    closed: Fraction

    @property
    def equal(self) -> bool:
        return self.counted == self.closed


def density_product_check(cons: Construction, n: int) -> DensityCheck:
    """Counted d_{n+1} against the closed form, exact."""
    return DensityCheck(n + 1, periodic_density_counted(cons, n + 1),
                        periodic_density_closed(cons, n + 1))


# -- cell classes -------------------------------------------------------------


def class_levels(cons: Construction, n: int, N: int) -> np.ndarray:
    """Class level (``LEVEL_DTYPE``) of every Gamma_n translate of D_n
    inside the D_N box, n <= N, in the lexicographic order of
    ``DomainChain.translates``, read-only.  At N = n the one class is D_n
    itself, at level n + 1.

    A level-n fresh cell c is claimed at no level <= n, and neither is
    gamma + c, congruent to c modulo every such Gamma_l.  For l > n, per axis
    the Gamma_l rep of gamma's p^n block and the D_(l-1) box are unions of
    p^n blocks aligned with it (q1^l = q1^n mod p^n), so the rep of gamma + c
    lies in D_(l-1) exactly when the rep of gamma does.  The class level is
    therefore the claim rule's on the translates themselves,
    ``Construction.first_claims`` over levels n+1 .. N on their open grid.
    The level-N array is certified to hold it on every level-n fresh cell,
    once per read-only pair of ``level_array(N)`` and ``fresh_bool(n)``
    (``once_per_array``): what is certified is those arrays as they stand,
    and a writeable or substituted array is read again.
    """
    if N < n:
        raise SpecError(f"a level-{N} box is shallower than the level-{n} classes")
    return once_per_array(cons, ("class_levels", n, N),
                          (cons.level_array(N), cons.fresh_bool(n)),
                          partial(_class_table, cons, n, N))


def _class_table(cons: Construction, n: int, N: int, levels: np.ndarray,
                 fresh: np.ndarray) -> np.ndarray:
    """The table of ``class_levels``, certified in one broadcast: the level-N
    array cut into its p^n blocks, (blocks_1, p_1, ..., blocks_r * p_r), is
    compared with the table and masked by the level-n fresh cells.  The last
    block axis stays merged with its cell axis, the table repeated and the
    mask tiled along it, so the innermost loop runs over a whole row of the
    box.  Only a disagreement is located, and its first gamma in lex order is
    refused with ConstructionError naming it.
    """
    dom = cons.domains
    table = cons.first_claims(np.ix_(*dom.translate_axes(n, N)), n + 1, N)
    p = cons.chain.level(n)
    split = [x for pair in zip(table.shape, p) for x in pair]
    rows = [x for b in table.shape[:-1] for x in (b, 1)]
    cols = [x for a in p[:-1] for x in (1, a)]
    off = levels.reshape(split[:-2] + [-1]) != np.repeat(
        table.reshape(rows + [-1]), p[-1], axis=-1)
    off &= np.tile(fresh.reshape(cols + [p[-1]]), table.shape[-1])
    if off.any():
        off = off.reshape(split)
        i = int(np.argmax(off.any(axis=tuple(range(1, len(split), 2))).ravel()))
        gamma = tuple(dom.translates(n, N)[i].tolist())
        raise ConstructionError(f"a level-{n} fresh cell of gamma={gamma} is off its "
                                f"class level {table.ravel()[i]} in the level-{N} array")
    return read_only(table.ravel())


def mu_cell_vector(cons: Construction, n: int, N: int) -> tuple[Fraction, ...]:
    """(mu_N of the level-n class with symbol i)_{i=1..m}, exact."""
    levels = class_levels(cons, n, N)
    F = cons.group.finite_order
    total = cons.domains.size(N) * F
    counts = [0] * (cons.m + 1)
    for lvl, c in enumerate(np.bincount(levels).tolist()):
        if c:
            counts[cons.alpha(lvl)] += c
    return tuple(Fraction(counts[i], total) for i in range(1, cons.m + 1))


def transition_matrix(cons: Construction, n: int) -> tuple[tuple[int, ...], ...]:
    """The m x m level transition matrix between cell-class vectors, m^2
    entries; the identities apply its closed form (``_apply_transition``)."""
    q = cons.domains.size(n + 1) // cons.domains.size(n)
    a = cons.alpha(n + 1)
    m = cons.m
    rows = []
    for i in range(1, m + 1):
        row = []
        for j in range(1, m + 1):
            if i == j:
                row.append(q if i == a else q - 1)
            else:
                row.append(1 if i == a else 0)
        rows.append(tuple(row))
    return tuple(rows)


def _apply_transition(cons: Construction, n: int,
                      vec: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """A_n vec from the closed form of ``transition_matrix``: (q - 1) times
    the identity plus a row of ones at the symbol alpha(n+1), O(m) work."""
    q = cons.domains.size(n + 1) // cons.domains.size(n)
    a = cons.alpha(n + 1) - 1
    out = [(q - 1) * x for x in vec]
    out[a] += sum(vec)
    return tuple(out)


def verify_transition(cons: Construction, n: int, N: int) -> bool:
    """A_n applied to the level-(n+1) cell vector must give the level-n one."""
    if not N > n + 1:
        raise SpecError("window must be deeper than n + 1")
    mu_lo = mu_cell_vector(cons, n, N)
    return _apply_transition(cons, n, mu_cell_vector(cons, n + 1, N)) == mu_lo


def projection_matrix(cons: Construction) -> tuple[tuple[int, ...], ...]:
    """The (m+1) x m matrix sending the level-1 cell vector to the symbol
    frequency vector (plain symbols first, marker last), m^2 entries; the
    identity applies its closed form (``_apply_projection``)."""
    m = cons.m
    F = cons.group.finite_order
    jr = fresh_count(cons, 1) * F
    rows = []
    for i in range(1, m + 2):
        row = []
        for j in range(1, m + 1):
            if i == m + 1:
                row.append(F - 1)
            elif i == j == 1:
                row.append(1 + jr)
            elif i == j:
                row.append(jr)
            elif i == 1:
                row.append(1)
            else:
                row.append(0)
        rows.append(tuple(row))
    return tuple(rows)


def _apply_projection(cons: Construction, vec: tuple[Fraction, ...]) -> list[Fraction]:
    """A_0 vec from the closed form of ``projection_matrix``: |fresh(1) R|
    times the identity plus a row of ones at symbol 1, over a marker row of
    F - 1, O(m) work."""
    F = cons.group.finite_order
    total = sum(vec)
    out = [fresh_count(cons, 1) * F * x for x in vec]
    out[0] += total
    out.append((F - 1) * total)
    return out


def verify_projection(cons: Construction, N: int) -> bool:
    """Counted symbol frequencies must equal the projection of the level-1
    cell vector."""
    lhs = _apply_projection(cons, mu_cell_vector(cons, 1, N))
    freqs = mu_freq_counted(cons, N)
    rhs = [freqs.get(sym, Fraction(0)) for sym in range(1, cons.m + 1)]
    rhs.append(freqs.get(BETA, Fraction(0)))
    return lhs == rhs


def transition_chain_check(cons: Construction, n: int, N: int) -> bool:
    """Rebuild the level-1 vector from level n through A_1 ... A_{n-1}."""
    vec = mu_cell_vector(cons, n, N)
    for l in range(n - 1, 0, -1):
        vec = _apply_transition(cons, l, vec)
    return vec == mu_cell_vector(cons, 1, N)


def transition_det(cons: Construction, n: int) -> int:
    """det A_n = q (q - 1)^(m - 1), q = |D_(n+1)| / |D_n|: the identity
    times q - 1 plus a rank-one row of ones."""
    q = cons.domains.size(n + 1) // cons.domains.size(n)
    return q * (q - 1) ** (cons.m - 1)


# -- simplex and limit-measure approximants -----------------------------------


def stratum_frequency(cons: Construction, n: int, alpha: int) -> Fraction:
    """Share of the level-n window captured by level <= n with symbol alpha."""
    freqs = mu_freq_closed(cons, n)
    d = freqs.get(alpha, Fraction(0))
    if alpha == cons.alpha(n + 1):
        d -= Fraction(fresh_count(cons, n), cons.domains.size(n))
    return d


def simplex_vertices(cons: Construction, N: int) -> list[tuple[Fraction, ...]]:
    """Depth-N approximants of the extreme frequency vectors.

    Vertex i lists the captured-stratum frequencies with the still-free mass
    1 - d_N added to coordinate i; the marker coordinate sits last.
    """
    m = cons.m
    t = [stratum_frequency(cons, N, a) for a in range(1, m + 1)]
    t_beta = marker_mass_closed(cons) if BETA in cons.alphabet else Fraction(0)
    d = periodic_density_closed(cons, N)
    free = 1 - d
    out = []
    for i in range(m):
        vec = list(t)
        vec[i] = vec[i] + free
        out.append(tuple(vec) + (t_beta,))
    return out


def dominant_class_mass(cons: Construction, i: int, k: int, s: int) -> tuple[Fraction, Fraction]:
    """mu_{i+sm-1} of the union of level-(i+km-1) cells with symbol i.

    Returns (mass, lower bound 1/|D_{i+km-1} R|).
    """
    if s <= k:
        raise SpecError("the measure level must be deeper than the class level")
    m = cons.m
    l = i + k * m - 1
    n = i + s * m - 1
    syms = cons.symbol_table()[0][class_levels(cons, l, n)]
    mass = Fraction(int(np.count_nonzero(syms == i)), len(syms))
    bound = Fraction(1, cons.domains.size(l) * cons.group.finite_order)
    return mass, bound


# -- window invariance and complexity diagnostics ------------------------------


_MIN_PLACEMENTS = 100


def complexity_profile(symbols: np.ndarray,
                       radii: list[int]) -> list[tuple[int, int, float]]:
    """(radius, distinct pattern count, log2(count) / window size) per radius,
    each over at least _MIN_PLACEMENTS window placements."""
    out = []
    arr = np.asarray(symbols)
    for s in radii:
        width = 2 * s + 1
        placements = len(arr) - width + 1
        if placements < _MIN_PLACEMENTS:
            raise SpecError(f"radius {s} leaves only {placements} placements")
        windows = np.lib.stride_tricks.sliding_window_view(arr, width)
        count = len(unique_rows(windows)[0])
        out.append((s, int(count), math.log2(count) / width))
    return out
