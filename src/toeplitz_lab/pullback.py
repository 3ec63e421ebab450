"""Pullback cellular automata along homomorphisms G -> Z.

For phi(v, f) = <w, v> the pullback of a sequence x over Z is the G-array
(phi* x)(g) = x(phi(g)).  phi is a homomorphism on the semidirect product
exactly when w is fixed by every action matrix, and surjective exactly when
the entries of w are coprime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Elt, EltArr, GroupSpec, SpecError, Vec, elt_arrays
from .toeplitz import OUTSIDE
from .williams import ZPatch


@dataclass(frozen=True)
class HomSpec:
    w: Vec


def validate_hom(spec: HomSpec, group: GroupSpec) -> tuple[bool, str]:
    """Compatibility with the finite-part action plus surjectivity."""
    if len(spec.w) != group.rank:
        return False, "weight vector has wrong rank"
    for f, mat in enumerate(group.action):
        image = tuple(sum(spec.w[i] * mat[i][j] for i in range(group.rank))
                      for j in range(group.rank))
        if image != tuple(spec.w):
            return False, f"w is not invariant under the action of index {f}"
    if math.gcd(*(abs(x) for x in spec.w)) != 1:
        return False, "weights are not coprime, the image is a proper subgroup"
    return True, "ok"


def section_vector(spec: HomSpec) -> Vec:
    """Integer u with <w, u> = 1, built by folding the extended Euclid."""
    w = spec.w
    g, coeffs = abs(w[0]), [1 if w[0] >= 0 else -1]
    for x in w[1:]:
        gg, a, b = _ext_gcd(g, abs(x))
        coeffs = [c * a for c in coeffs]
        coeffs.append(b if x >= 0 else -b)
        g = gg
    if g != 1:
        raise SpecError("homomorphism is not surjective, no section exists")
    return tuple(coeffs)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return a, 1, 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def section_element(spec: HomSpec, n: int) -> Elt:
    """The chosen preimage of n: (n * u, identity)."""
    u = section_vector(spec)
    return tuple(n * x for x in u), 0


def pullback_window(spec: HomSpec, source: ZPatch, v: np.ndarray) -> np.ndarray:
    """phi* x at the elements with lattice parts v (n, rank), whatever their
    finite parts, read through ``ZPatch.at`` (UNDEFINED on the source's
    Undefined cells); errors when out of reach, naming the first such
    element."""
    got = source.at(v @ np.array(spec.w, dtype=np.int64))
    out = got == OUTSIDE
    if out.any():
        raise SpecError(f"window position {tuple(v[np.argmax(out)].tolist())} "
                        f"maps outside the source patch")
    return got


def equivariance_check(spec: HomSpec, group: GroupSpec, source: ZPatch,
                       g: EltArr, window: list[Elt]) -> np.ndarray:
    """sigma^g (phi* x) must equal phi* (sigma^{phi(g)} x) on the window,
    for a batch of g: lattice parts (S, r) and finite parts (S,).  Returns
    one verdict per g.

    For each g the first window cell, in window order, that is out of the
    source patch's reach or carries different symbols decides: the verdict
    is False on different symbols, and SpecError is raised when that cell is
    out of reach for any g of the batch.

    The two sides read the source, through ``ZPatch.at``, at
    w . M_{f^-1}(h - g_v) and at w . h - phi(g), g = (g_v, f): the same
    integer whenever M_f^T w = w for every f, that is whenever
    ``validate_hom`` accepts.  So on an accepted homomorphism the check
    cannot fail; it certifies the window arithmetic.
    """
    w = np.array(spec.w, dtype=np.int64)
    hv, hf = elt_arrays(window, group.rank)
    gv, gf = group.inv_arr(*g)
    lhs = source.at(group.mul_arr(gv[:, None], gf[:, None], hv, hf)[0] @ w)
    rhs = source.at((hv @ w)[None] - (g[0] @ w)[:, None])
    inside = (lhs != OUTSIDE) & (rhs != OUTSIDE)
    fails = ~inside | (lhs != rhs)
    first = np.argmax(fails, axis=1)
    if not inside[np.arange(len(first)), first].all():
        raise SpecError("window exceeds the source patch reach")
    return ~fails.any(axis=1)
