"""The classical two-residue Toeplitz sequence over Z.

Generates a window, shows the filling steps, the convergence diagnostic for
the period ratios, and the depth-2 fiber census over the odometer.
"""

from collections import Counter

from toeplitz_lab import bundled_deck
from toeplitz_lab.williams import (
    UNDEFINED,
    convergence_partial_sums,
    fiber_scan,
    generate,
    max_safe_fiber_radius,
)

deck = bundled_deck("williams-m2")
wp = deck.williams
print(f"alphabet {{0..{wp.m - 1}}}, periods {wp.periods}")

eta = generate(wp, 80)
cells = eta.at(range(0, 73)).tolist()
line = "".join("." if s == UNDEFINED else str(s) for s in cells)
print(f"\neta on [0, 72]:   {line}")
lvls = "".join(map(str, eta.levels[eta.N:eta.N + 73].tolist()))
print(f"filling steps:    {lvls}   (0 marks still-empty cells)")

print("\npartial sums of the period-ratio series:",
      [str(s) for s in convergence_partial_sums(wp)])

big = generate(wp, wp.periods[-1] + wp.periods[0] + 10)
radius = max_safe_fiber_radius(big, 2)
scan = fiber_scan(big, 2, range(wp.periods[1]), radius)
counts = scan.counts.tolist()
hist = dict(sorted(Counter(counts).items()))

print(f"\ndepth-2 fiber census at window radius {radius}: {hist}")
print(f"the factor map is at most {wp.m}-to-1 at this depth; "
      f"residue {counts.index(wp.m)} mod {wp.periods[1]} realizes {wp.m} window patches")
