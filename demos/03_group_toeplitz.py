"""The inductive Toeplitz array over a virtually-Z group.

Shows the fresh-cell recursion, the level strata on a box window, and the
marker symbol that occupies the nontrivial finite-part representatives.
"""

import numpy as np

from toeplitz_lab import bundled_deck, construction
from toeplitz_lab.verify import fresh_dual

deck = bundled_deck("dihedral-m2")
cons = construction(deck)

print(f"deck {deck.name}: alphabet {cons.alphabet} (0 is the marker)")

_, agreed = fresh_dual(cons, 3)
print(f"tiled and rep-route fresh cells agree on levels 1-3: {agreed}")
for n in range(4):
    cells = cons.fresh_cells(n)
    shown = sorted(cells)[:6]
    print(f"fresh({n}): {len(cells)} cells, e.g. {shown}")

win = cons.window(2)
for f, label in ((0, "identity part"), (1, "flip part")):
    row = "".join(str(s) for s in win.symbol_array(f))
    print(f"\n{label} of D_2 (v = -12..12):\n  {row}")

strata = dict(zip(*np.unique(win.levels, return_counts=True)))
print(f"\nstratum sizes on D_2: { {int(k): int(v) for k, v in strata.items()} }")

ok, sym = cons.translate_constant(1, ((25,), 0))
print(f"\nthe array is constant on (25) * fresh(1) * R: {ok}, value {sym}")
print("value at ((0,), flip):", cons.value(((0,), 1)), " <- the marker stratum")
