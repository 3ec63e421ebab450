"""Odometer coding, tower decompositions and fiber enumeration.

Every point of the subshift projects to a tower of coset representatives;
the fiber over a truncated tower is approximated by candidates (forced
periodic part plus one constant per tower piece) filtered through orbit
occurrences.  One census counts every odometer point of a depth at once,
and a single point is read as its row.
"""

from collections import Counter

import numpy as np

from toeplitz_lab import bundled_deck, construction
from toeplitz_lab.periods import census

deck = bundled_deck("z2-m2")
cons = construction(deck)
counts = census(cons, 2, 8, 3)

# the point of (13, -4): t_2 is its rep modulo Gamma_2, with finite part 0
t2 = cons.domains.rep_arr(np.array((13, -4)), 2)
row = np.flatnonzero((counts.fparts == 0) & np.all(counts.reps[:, -1] == t2, axis=1))[0]
coords = tuple((tuple(v), int(counts.fparts[row])) for v in counts.reps[row].tolist())
print("coords of (13, -4) at depth 2:", coords)

aper = int(counts.aperiodic_pieces[row])
print(f"tower pieces on the radius-8 window: {counts.pieces[row]} "
      f"(bound {2 ** deck.group.rank}), {aper} holding aperiodic cells")

print(f"\nfiber census for these coords: {counts.fibers[row]} admissible patches "
      f"from {cons.m ** aper} candidates "
      f"({counts.approximants[row]} orbit approximants)")

hist = dict(sorted(Counter(counts.fibers.tolist()).items()))
print(f"exhaustive depth-2 census over {len(counts.fibers)} coords: {hist}")
print(f"every count stays within the tower bound "
      f"{deck.group_fiber_bound()} = m^(2^r)")
