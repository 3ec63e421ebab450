"""Group arithmetic in Z^r semidirect F and the box domain chains.

Walks through element arithmetic in the infinite dihedral group, coset
decompositions against the subgroup chain, and the left Folner behaviour of
the box windows.
"""

from toeplitz_lab import bundled_deck
from toeplitz_lab.lattice import (
    box_elements,
    check_index_condition,
    corner_count_check,
    decompose_right,
    folner_ratio,
)

deck = bundled_deck("dihedral-m2")
spec, chain, dom = deck.group, deck.chain, deck.domains

print(f"deck {deck.name}: {spec.name}, chain moduli {chain.moduli[:4]} ...")

a, b = ((7,), 1), ((2,), 0)
print(f"({a}) * ({b}) = {spec.mul(a, b)}   (the flip negates the translation)")
print(f"inverse of ((3,), flip) = {spec.inv(((3,), 1))}")

g = ((7,), 1)
gamma, d, r = decompose_right(dom, g, 1)
print(f"\n{g} = {gamma} * ({d}, id) * (0, rep {r})  with the box rep in D_1")

v, f = box_elements(dom.box_coords(1), spec.finite_order)
cells = [(tuple(x), y) for x, y in zip(v.tolist(), f.tolist())]
print(f"|D_1 R| = {len(cells)}; first cells: {cells[:4]}")

print("\nleft Folner ratios |D_i R g \\ D_i R| / |D_i R| for g = (1, id):")
for i in (1, 2, 3, 4):
    print(f"  level {i}: {folner_ratio(spec, dom, i, ((1,), 0))}")

print("\nchain index condition (decided exactly in integer arithmetic):")
for i in (1, 2):
    print(f"  level {i} -> {i + 1}: index {chain.index_between(i)}, "
          f"satisfied: {check_index_condition(chain, i)}")

z2 = bundled_deck("z2-m2")
ok, count, bound = corner_count_check(z2.domains, 1, 2, (-2, -2))
print(f"\ncorner count in Z^2: |B(d,2) cap translate| = {count} >= {bound} "
      f"-> {ok}")
