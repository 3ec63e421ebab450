"""Group arithmetic for G = Z^r semidirect F, subgroup chains and box domains.

Groups are semidirect products of the lattice Z^r by a finite group F acting
through integer matrices of determinant +-1.  An element is a plain tuple
``(v, f)`` with ``v`` an integer vector of length r and ``f`` an index into F
(0 is the identity of F).  All arithmetic is exact integer arithmetic.

The chain Gamma_0 = Z^r > Gamma_1 > Gamma_2 > ... consists of diagonal
sublattices of Z^r, and each level carries a half-open box D_i that is a
fundamental domain for the right cosets Gamma_i \\ G' together with its
extension D_i R by the finite-part representatives; D_0 is the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, wraps

import numpy as np

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]
Elt = tuple[Vec, int]
EltArr = tuple[np.ndarray, np.ndarray]  # lattice parts (n, r), finite parts (n,)


class SpecError(ValueError):
    """A group / chain / domain specification is inconsistent."""


class DepthExhausted(LookupError):
    """A query needs more chain levels than the configured prefix."""


def read_only(arr: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only and return it, so that a stray in-place
    write raises instead of corrupting every later reader."""
    arr.flags.writeable = False
    return arr


def instance_cache(method):
    """Memoise a method on its instance, keyed by its positional arguments.

    The results live in the instance's ``__dict__`` (a frozen dataclass has
    one too), so they go when the instance goes, where a class-level
    ``lru_cache`` would keep every instance alive.  Repeated calls return the
    same object, which ``measures.once_per_array`` relies on.
    """
    slot = f"_cache_{method.__name__}"

    @wraps(method)
    def cached(self, *args):
        memo = self.__dict__.setdefault(slot, {})
        if args not in memo:
            memo[args] = method(self, *args)
        return memo[args]

    return cached


def matvec(mat: Mat, v: Vec) -> Vec:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in mat)


def int_det(mat: Mat) -> int:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    total = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1:] for row in mat[1:])
        total += (-1) ** j * mat[0][j] * int_det(minor)
    return total


def identity_matrix(r: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


@dataclass(frozen=True)
class GroupSpec:
    """G = Z^rank semidirect F, with F given by a multiplication table.

    ``table[a][b]`` is the product ab in F; index 0 is the identity.
    ``action[f]`` is the integer matrix M_f through which f acts on Z^rank.
    """

    rank: int
    table: tuple[Vec, ...]
    action: tuple[Mat, ...]
    name: str = ""

    @property
    def finite_order(self) -> int:
        return len(self.table)

    @cached_property
    def finite_inverse(self) -> Vec:
        table = np.array(self.table)
        both = (table == 0) & (table.T == 0)
        bad = np.flatnonzero(both.sum(axis=1) != 1)
        if len(bad):
            raise SpecError(f"finite part index {bad[0]} has no unique inverse")
        return tuple(np.argmax(both, axis=1).tolist())

    @property
    def identity(self) -> Elt:
        return ((0,) * self.rank, 0)

    def mul(self, a: Elt, b: Elt) -> Elt:
        """The product ab of two elements: the check-only reference for
        ``mul_arr``, one element in Python integers."""
        (v1, f1), (v2, f2) = a, b
        if len(v1) != self.rank or len(v2) != self.rank:
            raise SpecError("element rank does not match the group")
        return vec_add(v1, matvec(self.action[f1], v2)), self.table[f1][f2]

    def inv(self, a: Elt) -> Elt:
        """The inverse of an element: the check-only reference for
        ``inv_arr``, one element in Python integers."""
        v, f = a
        fi = self.finite_inverse[f]
        return tuple(-x for x in matvec(self.action[fi], v)), fi

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Action matrices (|F|, r, r), multiplication table and inverses of F."""
        return (read_only(np.array(self.action, dtype=np.int64)
                          .reshape(-1, self.rank, self.rank)),
                read_only(np.array(self.table, dtype=np.intp)),
                read_only(np.array(self.finite_inverse, dtype=np.intp)))

    def _act_arr(self, f: np.ndarray, v: np.ndarray) -> np.ndarray:
        """M_f v element by element over arrays, shapes as in ``mul_arr``:
        one matrix product when f is a single index, else a sum over the
        columns of the gathered matrices."""
        action = self._arrays[0]
        f, v = np.asarray(f, dtype=np.intp), np.asarray(v, dtype=np.int64)
        if f.ndim == 0:
            return v @ action[f].T
        mats = action[f]
        out = mats[..., 0] * v[..., :1]
        for j in range(1, self.rank):
            out = out + mats[..., j] * v[..., j:j + 1]
        return out

    def mul_arr(self, av: np.ndarray, af: np.ndarray, bv: np.ndarray,
                bf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``mul`` element by element over arrays: lattice parts of shape
        (..., r) and finite-part indices of shape (...).  Either factor may be
        a single element; the shapes broadcast."""
        table = self._arrays[1]
        af, bf = np.asarray(af, dtype=np.intp), np.asarray(bf, dtype=np.intp)
        return np.asarray(av, dtype=np.int64) + self._act_arr(af, bv), table[af, bf]

    def inv_arr(self, v: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``inv`` element by element over arrays, shapes as in ``mul_arr``."""
        fi = self._arrays[2][np.asarray(f, dtype=np.intp)]
        return -self._act_arr(fi, v), fi

    def validate(self) -> None:
        n = self.finite_order
        if self.rank < 1:
            raise SpecError("rank must be positive")
        if n < 1:
            raise SpecError("finite-part table is empty")
        if any(len(row) != n for row in self.table):
            raise SpecError("finite-part table is not square")
        if any(not (0 <= e < n) for row in self.table for e in row):
            raise SpecError("finite-part table entry out of range")
        table, ids = np.array(self.table, dtype=np.intp), np.arange(n)
        if (table[0] != ids).any() or (table[:, 0] != ids).any():
            raise SpecError("index 0 is not the identity of F")
        if not np.array_equal(table[table], table[:, table]):  # (ab)c against a(bc)
            raise SpecError("finite-part table is not associative")
        _ = self.finite_inverse
        if len(self.action) != n:
            raise SpecError("need one action matrix per finite-part element")
        if any(len(mat) != self.rank or any(len(row) != self.rank for row in mat)
               for mat in self.action):
            raise SpecError("action matrix has wrong shape")
        if self.action[0] != identity_matrix(self.rank):
            raise SpecError("action of the identity must be the identity matrix")
        for f, mat in enumerate(self.action):
            if abs(int_det(mat)) != 1:
                raise SpecError(f"action matrix of index {f} is not unimodular")
        try:
            action, table, _ = self._arrays
        except OverflowError:
            raise SpecError("action matrix entries do not fit in 64 bits") from None
        if not np.array_equal(action[:, None] @ action, action[table]):
            raise SpecError("action is not a homomorphism")


@dataclass(frozen=True)
class SubgroupChain:
    """Nested diagonal sublattices Gamma_i = <p^i_j e_j> of Z^rank.

    ``moduli[i-1]`` holds the vector (p^i_1, ..., p^i_r) of level i >= 1;
    level 0 is Gamma_0 = Z^rank, with every modulus 1.
    """

    moduli: tuple[Vec, ...]

    @property
    def depth(self) -> int:
        return len(self.moduli)

    def level(self, i: int) -> Vec:
        if not 0 <= i <= self.depth:
            raise DepthExhausted(f"chain level {i} not configured (depth {self.depth})")
        return self.moduli[i - 1] if i else (1,) * len(self.moduli[0])

    def index_between(self, i: int) -> int:
        lo, hi = self.level(i), self.level(i + 1)
        out = 1
        for a, b in zip(lo, hi):
            out *= b // a
        return out

    def validate(self, rank: int) -> None:
        if self.depth < 1:
            raise SpecError("chain needs at least one level")
        for i, p in enumerate(self.moduli, start=1):
            if len(p) != rank:
                raise SpecError(f"level {i} moduli have wrong rank")
            for j, q in enumerate(p):
                if q <= 2 * i + 1:
                    raise SpecError(
                        f"level {i} modulus p_{j + 1} = {q} must exceed 2i+1 = {2 * i + 1}")
                if q > 2 ** 62:  # a rep (x + q1) % p sums two coordinates in int64
                    raise SpecError(f"level {i} modulus p_{j + 1} = {q} exceeds 2**62, "
                                    f"the largest the int64 box arithmetic holds")
        for i in range(1, self.depth):
            lo, hi = self.moduli[i - 1], self.moduli[i]
            for a, b in zip(lo, hi):
                if b % a != 0 or b <= a:
                    raise SpecError(
                        f"moduli must strictly increase and divide: level {i} -> {i + 1}")


def check_index_condition(chain: SubgroupChain, i: int) -> bool:
    """Exact test of [Gamma_i : Gamma_{i+1}] > 1 / (1 - 2^(-(1/2)^(i+1))).

    With k the index and M = 2^(i+1), the bound reads k (1 - 2^(-1/M)) > 1,
    that is ((k-1)/k)^M > 1/2, that is 2 (k-1)^M > k^M.  Both powers come
    from i+1 exact integer squarings; nothing is rounded.  An index below 1
    (only possible on an invalid chain) never satisfies the bound.
    """
    k = chain.index_between(i)
    lo, hi = k - 1, k
    for _ in range(i + 1):
        lo, hi = lo * lo, hi * hi
    return k >= 1 and 2 * lo > hi


def _closest_congruent(p: int, base: int, mod: int) -> int:
    # the c = base mod `mod` closest to p/2, the lower on a tie, in exact integers
    k = (p - 2 * base) // (2 * mod)
    return min(base + k * mod, base + (k + 1) * mod, key=lambda c: (abs(2 * c - p), c))


@dataclass(frozen=True)
class DomainChain:
    """Box fundamental domains D_i = prod_j [-q1_j, p_j - q1_j) for the chain.

    ``q1[i-1]`` holds the offsets of level i >= 1; read them through ``low``,
    which also serves level 0.
    """

    chain: SubgroupChain
    q1: tuple[Vec, ...]

    @staticmethod
    def auto(chain: SubgroupChain) -> "DomainChain":
        """Near-centered offsets: each level's offset is the one closest to
        p/2 (the lower on a tie) congruent to the previous level's offset mod
        the previous modulus, so q1^1 = floor(p/2) from q1^0 = 0 mod 1."""
        qs = [(0,) * len(chain.level(0))]
        for i in range(1, chain.depth + 1):
            qs.append(tuple(_closest_congruent(p, q, m) for p, q, m in
                            zip(chain.level(i), qs[-1], chain.level(i - 1))))
        return DomainChain(chain, tuple(qs[1:]))

    @property
    def rank(self) -> int:
        return len(self.chain.moduli[0])

    def low(self, i: int) -> Vec:
        """The offsets q1^i of the level-i box, D_i = prod_j [-q1^i_j,
        p^i_j - q1^i_j): the stored ``q1[i-1]``, and 0 at level 0, whose box
        is the origin."""
        p = self.chain.level(i)
        return self.q1[i - 1] if i else (0,) * len(p)

    def q2(self, i: int) -> Vec:
        p = self.chain.level(i)
        return tuple(a - b for a, b in zip(p, self.low(i)))

    def size(self, i: int) -> int:
        return math.prod(self.chain.level(i))

    def rep_arr(self, arr: np.ndarray, i: int) -> np.ndarray:
        """Representative of each lattice point (last axis) modulo Gamma_i
        inside the level-i box."""
        p = np.array(self.chain.level(i), dtype=np.int64)
        q = np.array(self.low(i), dtype=np.int64)
        return (arr + q) % p - q

    def in_box_arr(self, arr: np.ndarray, i: int) -> np.ndarray:
        q1 = np.array(self.low(i), dtype=np.int64)
        q2 = np.array(self.q2(i), dtype=np.int64)
        return np.all((arr >= -q1) & (arr < q2), axis=-1)

    def box_coords(self, i: int) -> np.ndarray:
        """All box coordinates at level i, shape (size, rank), canonical
        order; read-only: the translates of D_0, the origin."""
        return self.translates(0, i)

    def translate_axes(self, n: int, N: int) -> list[np.ndarray]:
        """Per axis, the coordinates of the Gamma_n elements whose D_n
        translates tile the D_N box, n <= N, in increasing order.

        Since q1^N = q1^n mod p^n, they are b p^n - (q1^N - q1^n) for the
        block index b of every p^n block of the D_N box."""
        return [np.arange(P // p, dtype=np.int64) * p - (qN - qn) for p, P, qN, qn in
                zip(self.chain.level(n), self.chain.level(N), self.low(N), self.low(n))]

    @instance_cache
    def translates(self, n: int, N: int) -> np.ndarray:
        """The product grid of ``translate_axes(n, N)``: shape (count, rank),
        lexicographic order; read-only."""
        return read_only(product_grid(self.translate_axes(n, N)))

    def validate(self) -> None:
        chain = self.chain
        if len(self.q1) != chain.depth:
            raise SpecError("need one offset vector per chain level")
        for i in range(1, chain.depth + 1):
            p = chain.level(i)
            q1 = self.low(i)
            if len(q1) != len(p):
                raise SpecError(f"level {i} offsets have wrong rank")
            q2 = self.q2(i)
            for a, b in zip(q1, q2):
                if a <= i or b <= i:
                    raise SpecError(
                        f"level {i} offsets ({a},{b}) must both exceed the level index")
            qq = self.low(i - 1)
            for a, c, m in zip(q1, qq, chain.level(i - 1)):
                if (a - c) % m != 0:
                    raise SpecError(
                        f"level {i} offsets must align with level {i - 1} mod {m}")
            if any(a < c for a, c in zip(q1, qq)):
                raise SpecError("boxes must be nested (lower side)")
            if any(a < c for a, c in zip(q2, self.q2(i - 1))):
                raise SpecError("boxes must be nested (upper side)")


def decompose_right(domains: DomainChain, g: Elt, i: int) -> tuple[Elt, Vec, int]:
    """Unique g = gamma * (d, 0) * (0, r) with gamma in Gamma_i, d in D_i."""
    v, f = g
    v = np.array(v, dtype=np.int64)
    d = domains.rep_arr(v, i)
    return (tuple((v - d).tolist()), 0), tuple(d.tolist()), f


def product_grid(axes) -> np.ndarray:
    """Every point of the product of the 1-d integer axes, shape (n,
    len(axes)), in product order (last axis fastest)."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def elt_arrays(elts: list[Elt], rank: int) -> EltArr:
    """A list of elements as arrays: lattice parts (n, rank), finite parts (n,)."""
    return (np.array([e[0] for e in elts], dtype=np.int64).reshape(len(elts), rank),
            np.array([e[1] for e in elts], dtype=np.intp))


def box_elements(box: np.ndarray, F: int) -> EltArr:
    """The elements (u, f) of a box of lattice parts times a finite group of
    order F: lattice parts (F * len(box), ...) and finite parts (F * len(box),),
    finite part first, then the box order."""
    return (np.tile(box, (F,) + (1,) * (box.ndim - 1)),
            np.repeat(np.arange(F, dtype=np.intp), len(box)))


def folner_ratio(spec: GroupSpec, domains: DomainChain, i: int, g: Elt) -> Fraction:
    """|D_i R g \\ D_i R| / |D_i R|.  Right multiplication keeps the finite
    part in R, so a cell leaves D_i R exactly when its lattice part leaves
    D_i."""
    moved, _ = spec.mul_arr(*box_elements(domains.box_coords(i), spec.finite_order),
                            np.array(g[0], dtype=np.int64), g[1])
    left = np.count_nonzero(~domains.in_box_arr(moved, i))
    return Fraction(int(left), len(moved))


@lru_cache(maxsize=16)
def cube(rank: int, radius: int) -> np.ndarray:
    """The lattice box [-radius, radius]^rank, shape (n, rank), in product
    order (last axis fastest); read-only."""
    if radius < 0:
        raise SpecError(f"window radius must be non-negative, got {radius}")
    return read_only(product_grid([np.arange(-radius, radius + 1, dtype=np.int64)] * rank))


def corner_count_check(domains: DomainChain, n: int, s: int,
                       d: Vec) -> tuple[bool, int, Fraction]:
    """Count |B(d, s) cap (gamma + D_{n+s})| for the Gamma_(n+s) translate
    gamma + D_(n+s) that holds d, any d in Z^r, and compare with b(s) /
    2^rank.  Returns (ok, count, bound).

    With gamma = d - rep(d), B(d, s) - gamma is the cube of radius s around
    rep(d), so the count is one box test over that cube."""
    around = cube(domains.rank, s) + domains.rep_arr(np.array(d, dtype=np.int64), n + s)
    count = int(np.count_nonzero(domains.in_box_arr(around, n + s)))
    bound = Fraction(len(around), 2 ** domains.rank)
    return count >= bound, count, bound


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an integer array in lexicographic order, and the
    index of each row's distinct row: ``np.unique(rows, axis=0,
    return_inverse=True)`` without its structured-dtype sort."""
    if rows.shape[1] == 0:  # every row is the empty row
        return rows[:1], np.zeros(len(rows), dtype=np.intp)
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return srt[new], inverse


def window_digits(symbols: np.ndarray) -> tuple[np.ndarray, int]:
    """The digits symbol - min of a 1-d integer array, in the smallest
    unsigned dtype that holds them, and their radix max - min + 1.

    The subtraction wraps in the symbols' own dtype, with no wider copy; a
    digit fits the result dtype, so the cast recovers it exactly."""
    lo = int(symbols.min())
    radix = int(symbols.max()) - lo + 1
    return (symbols - symbols.dtype.type(lo)).astype(np.min_scalar_type(radix - 1)), radix


def window_keys(digits: np.ndarray, radix: int, width: int,
                n: int) -> tuple[list[np.ndarray], int]:
    """Integer keys of the n windows ``digits[q : q + width]``, q = 0 .. n-1,
    of 1-d digits in [0, radix) (``window_digits``): two windows are equal
    exactly when all their keys are.

    A window is the base-radix number of its digits; each key packs as many
    offsets as stay below 2**62, the first offsets in the first key, most
    significant digit first.  Key j is built from the contiguous slices
    ``digits[w : w + n]`` of its offsets w.  Also returns radix**per_key, a
    value above every key that the keys' dtype, the smallest that holds it,
    also holds: a caller's sentinel for windows it sets aside.
    """
    per_key = 1
    while per_key < width and radix ** (per_key + 1) <= 1 << 62:
        per_key += 1
    sentinel = radix ** per_key
    keys = [np.zeros(n, dtype=np.min_scalar_type(sentinel))
            for _ in range(0, width, per_key)]
    for w in range(width):
        key = keys[w // per_key]
        key *= radix
        key += digits[w:w + n]
    return keys, sentinel


def sorted_key_changes(keys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Sort the key tuples ``(keys[0][i], keys[1][i], ...)`` along axis 0 of
    the equal-shaped key arrays; returns the sorted first key and the mask of
    the sorted positions whose tuple differs from its predecessor's (True at
    position 0), so each column's distinct tuples are the mask's count."""
    if len(keys) == 1:
        keys = [np.sort(keys[0], axis=0)]
    else:
        order = np.lexsort(keys[::-1], axis=0)
        keys = [np.take_along_axis(key, order, axis=0) for key in keys]
    new = np.zeros(keys[0].shape, dtype=bool)
    new[0] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return keys[0], new


def search_order(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The indices that put elements, lattice parts (n, r) and finite parts
    (n,), in search order: finite part, max-norm, then lattice coordinates."""
    keys = [v[:, k] for k in range(v.shape[1] - 1, -1, -1)]
    return np.lexsort(keys + [np.abs(v).max(axis=1, initial=0), f])


def search_key(g: Elt) -> tuple:
    """The check-only reference for search_order: the sort key of one element."""
    v, f = g
    return (f, max(abs(x) for x in v)) + v
