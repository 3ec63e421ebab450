"""Independence certificates and sequence-entropy bounds.

A certificate lists an independence set J and, for every assignment of
cylinders to J, an orbit position realizing the intersection.  The largest
certified tuple size lower-bounds the sequence entropy; the fiber bound of
the odometer map upper-bounds it.
"""

from toeplitz_lab import bundled_deck
from toeplitz_lab.independence import (
    Cylinder,
    entropy_bounds_bits,
    find_independence_set,
    regional_witness_from_certificate,
    z_candidates,
)
from toeplitz_lab.verify import entropy_bracket, independence_search

deck = bundled_deck("williams-m2")
wp = deck.williams
search = independence_search(deck)  # size 3 over the two symbol cylinders
oracle, res = search.oracle, search.result
cert = res.certificate
print(f"size-3 independence set for the symbol cylinders: "
      f"{[g[0][0] for g in cert.independence_set]} "
      f"({res.steps} search steps)")
print("witnesses per assignment:")
for assign, h in sorted(cert.witnesses.items()):
    print(f"  symbols {assign} realized at position {h[0][0]}")

g0 = regional_witness_from_certificate(cert, oracle, deck.group)
print(f"\nreplayed proximality witness g0 = {g0[0][0]}: shifting the "
      "realizations lands every entry in the first cylinder")

bad = [Cylinder.single_site(1, s) for s in range(wp.m + 1)]
neg = find_independence_set(bad, 1, oracle, z_candidates(40), deck.group)
print(f"\npigeonhole: {wp.m + 1} disjoint single-site cylinders -> "
      f"{neg.status!r} after a window-complete scan")

lower, upper = entropy_bracket(deck, search.k, res.status)
print(f"\nsequence-entropy bracket: {lower} <= h* <= {upper} bits "
      "(equal, so the value is certified at this scale)")

z2 = bundled_deck("z2-m2")
lower, upper = entropy_bounds_bits(2, z2.entropy_fiber_bound())
print(f"for {z2.name}: {lower} <= h* <= {upper} bits "
      "(the tower bound m^(2^r) is not tight)")
