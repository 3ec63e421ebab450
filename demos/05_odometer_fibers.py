"""Odometer coding, tower decompositions and fiber enumeration.

Every point of the subshift projects to a tower of coset representatives;
the fiber over a truncated tower is approximated by candidates (forced
periodic part plus one constant per tower piece) filtered through orbit
occurrences.
"""

from toeplitz_lab import bundled_deck, construction
from toeplitz_lab.periods import (
    aperiodic_positions,
    code_orbit_point,
    enumerate_fiber,
    tower_pieces,
)
from toeplitz_lab.verify import fiber_census

deck = bundled_deck("z2-m2")
cons = construction(deck)

coords = code_orbit_point(cons, ((13, -4), 0), 2)
print("coords of (13, -4) at depth 2:", coords.reps)

aper = aperiodic_positions(cons, coords, 6)
print(f"aperiodic window cells at depth 2, radius 6: {len(aper)} of 169")

pieces = tower_pieces(cons, coords, 1, 8)
print(f"tower pieces on the radius-8 window: {len(pieces)} "
      f"(bound {2 ** deck.group.rank})")
for p in pieces:
    print(f"  top translate {p.top_gamma}: {len(p.cells)} cells, "
          f"{len(p.aperiodic_cells)} aperiodic")

win = cons.window(3)
res = enumerate_fiber(cons, coords, 8, win)
print(f"\nfiber census for these coords: {res.count} admissible patches "
      f"from {res.candidate_count} candidates "
      f"({res.approximant_count} orbit approximants)")

hist = fiber_census(deck, 8).fiber_histogram()
print(f"exhaustive depth-2 census over {sum(hist.values())} coords: {hist}")
print(f"every count stays within the tower bound "
      f"{deck.group_fiber_bound()} = m^(2^r)")
