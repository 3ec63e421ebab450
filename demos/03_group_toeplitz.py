"""The inductive Toeplitz array over a virtually-Z group.

Shows the fresh-cell recursion, the level strata on a box window, and the
marker symbol that occupies the nontrivial finite-part representatives.
"""

import numpy as np

from toeplitz_lab import bundled_deck, construction
from toeplitz_lab.verify import fresh_dual

deck = bundled_deck("dihedral-m2")
cons = construction(deck)
symbols = cons.symbol_table()  # symbols[f, level]

print(f"deck {deck.name}: alphabet {cons.alphabet} (0 is the marker)")


def fresh_cells(n):
    """The level-n fresh cells as lattice points, in canonical order; level 0
    has the origin alone."""
    if n == 0:
        return np.zeros((1, cons.group.rank), dtype=np.int64)
    grid = cons.fresh_bool(n).reshape(cons.chain.level(n))
    return np.argwhere(grid) - np.array(cons.domains.q1[n - 1])


_, agreed = fresh_dual(cons, 3)
print(f"tiled and rep-route fresh cells agree on levels 1-3: {agreed}")
for n in range(4):
    cells = fresh_cells(n)
    shown = [tuple(c) for c in cells[:6].tolist()]
    print(f"fresh({n}): {len(cells)} cells, e.g. {shown}")

win = cons.window(2)
for f, label in ((0, "identity part"), (1, "flip part")):
    row = "".join(str(s) for s in win.symbol_array(f))
    print(f"\n{label} of D_2 (v = -12..12):\n  {row}")

strata = dict(zip(*np.unique(win.levels, return_counts=True)))
print(f"\nstratum sizes on D_2: { {int(k): int(v) for k, v in strata.items()} }")

# levels_at reads each point's level off its reps, with no level array
values = np.unique(symbols[:, cons.levels_at(fresh_cells(1) + 25)])
print(f"\nthe array is constant on (25) + fresh(1) x R: {len(values) == 1}, "
      f"value {int(values[0])}")
level = int(cons.levels_at(np.zeros((1, 1), dtype=np.int64))[0])
print(f"value at ((0,), flip): ({int(symbols[1, level])}, {level})  <- the marker stratum")
