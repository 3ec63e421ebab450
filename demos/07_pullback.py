"""Pullback automata along surjections onto Z.

A weight vector fixed by the finite-part action induces a shift-equivariant
embedding of the 1-d system into the G-full shift; independence certificates
transport through a section with their size preserved.
"""

from toeplitz_lab import bundled_deck
from toeplitz_lab.independence import (
    Cylinder,
    PullbackOracle,
    ZOracle,
    find_independence_set,
    transport_certificate,
    z_candidates,
)
from toeplitz_lab.lattice import cube
from toeplitz_lab.pullback import pullback_window, section_vector, validate_hom
from toeplitz_lab.williams import generate

swap = bundled_deck("swap-m2")
dihedral = bundled_deck("dihedral-m2")

for group, w in ((dihedral.group, (1,)), (swap.group, (1, 0)),
                 (swap.group, (1, 1))):
    ok, reason = validate_hom(w, group)
    print(f"{group.name!s:24} w={w}: {'accepted' if ok else 'rejected'} "
          f"({reason})")

w = (1, 1)
print(f"\nsection vector u with <w, u> = 1: {section_vector(w)}")

wm2 = bundled_deck("williams-m2")
eta = generate(wm2.williams, 25000)

print("\npulled-back window (phi* eta)(a, b) = eta(a + b), flip part equal:")
rows = pullback_window(w, eta, cube(2, 2)).reshape(5, 5).tolist()
for a, row in zip(range(-2, 3), rows):
    print(f"  a={a:+d}:  {' '.join(map(str, row))}")

zo = ZOracle(eta, margin=600)
cyls = [Cylinder.single_site(1, 0), Cylinder.single_site(1, 1)]
res = find_independence_set(cyls, 2, zo, z_candidates(432), wm2.group)
po = PullbackOracle(w, swap.group, eta, radius=4)
out = transport_certificate(w, swap.group, res.certificate, po)
print(f"\ntransported independence set over {swap.group.name}: "
      f"{out.independence_set} (size {out.size} preserved and re-verified)")
