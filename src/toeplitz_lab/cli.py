"""Experiment runner: deterministic CSV/JSON reports over configured decks.

Data files never carry timestamps; wall-clock information goes to a sidecar
log.  Search effort is reported as the deterministic step count of the
backtracking search.  Exit codes: 0 all hard assertions passed, 1 invariant
violation, 2 configuration error, 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import decks as deckmod
from . import measures, pullback as pb, verify, williams
from .independence import MAX_STEPS
from .lattice import DepthExhausted, SpecError, cube
from .toeplitz import BETA
from .verify import frac

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3

_CSV_ROWS = 1 << 16  # rows per writerows call of a patch.csv


def _out_dir(args, *parts: str) -> Path:
    base = Path(args.out) if args.out else Path("tl-out")
    path = base.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _log(path: Path, message: str) -> None:
    with open(path, "a") as fh:
        fh.write(f"{time.strftime('%Y-%m-%dT%H:%M:%S')} {message}\n")


def _check_level(args, lo: int, deck) -> None:
    depth = deck.chain.depth
    if not lo <= args.level <= depth:
        raise SpecError(f"--level must be in {lo}..{depth} for {deck.name}, "
                        f"got {args.level}")


def _search_deadline(args) -> float | None:
    """Deadline from --budget, after checking --budget and --max-steps."""
    if args.max_steps <= 0:
        raise SpecError(f"--max-steps must be a positive step count, got {args.max_steps}")
    if args.budget is None:
        return None
    if not (math.isfinite(args.budget) and args.budget > 0):
        raise SpecError(f"--budget must be a positive number of seconds, got {args.budget}")
    return time.monotonic() + args.budget


def cmd_gen_z(deck, args) -> int:
    if deck.williams is None:
        raise SpecError("deck has no 1-d period sequence")
    wp = deck.williams
    if args.window is None and wp.depth < 2:
        raise SpecError(f"gen-z without --window needs 2 periods (window 2 p_2), "
                        f"got {wp.depth}")
    if args.window is not None and args.window < wp.periods[0]:
        raise SpecError(f"--window must be at least p_1 = {wp.periods[0]} for "
                        f"{deck.name}, got {args.window}")
    N = 2 * wp.periods[1] if args.window is None else args.window
    patch = williams.generate(wp, N)
    out = _out_dir(args, deck.name, "gen-z")
    # every row is its position joined to one of few ",symbol,level" tails,
    # formatted once per (symbol, level) pair; an UNDEFINED symbol is empty
    width = int(patch.levels.max()) + 1
    tails = [f",{'' if s == williams.UNDEFINED else s},{l}\r\n"
             for s in range(williams.UNDEFINED, wp.m + 1) for l in range(width)]
    with open(out / "patch.csv", "w", newline="") as fh:
        fh.write("position,symbol,level\r\n")
        for lo in range(0, len(patch.symbols), _CSV_ROWS):
            part = slice(lo, lo + _CSV_ROWS)
            pairs = ((patch.symbols[part].astype(np.int64) - williams.UNDEFINED) * width
                     + patch.levels[part]).tolist()
            fh.write("".join([f"{pos}{tails[c]}" for pos, c in
                              zip(range(lo - N, lo - N + len(pairs)), pairs)]))
    sums = williams.convergence_partial_sums(wp)
    undefined = int(np.count_nonzero(patch.symbols == williams.UNDEFINED))
    _write_json(out / "summary.json", {
        "deck": deck.name,
        "m": wp.m,
        "periods": list(wp.periods),
        "window": N,
        "undefined_cells": undefined,
        "undefined_density": frac(Fraction(undefined, 2 * N + 1)),
        "ratio_partial_sums": [frac(s) for s in sums],
        "provenance": "counted",
    })
    print(f"wrote {out}/patch.csv")
    return EXIT_OK


def cmd_gen_group(deck, args) -> int:
    cons = deckmod.construction(deck)
    _check_level(args, 1, deck)
    N = args.level
    win = cons.window(N)
    out = _out_dir(args, deck.name, "gen-group")
    with open(out / "patch.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["finite_part"] + [f"v{j + 1}" for j in range(deck.group.rank)]
                   + ["symbol", "level"])
        coords = cons.domains.box_coords(N)
        for f in range(deck.group.finite_order):
            syms = win.symbol_array(f)
            for lo in range(0, len(coords), _CSV_ROWS):
                part = slice(lo, lo + _CSV_ROWS)
                cells = coords[part]
                w.writerows(np.column_stack([np.full(len(cells), f), cells,
                                             syms[part], win.levels[part]]).tolist())
    # the measures' count of each level, kept per read-only level array
    strata = {l: c for l, c in enumerate(measures._level_counts(cons, N).tolist()) if c}
    _, fresh_ok = verify.fresh_dual(cons, N)
    _write_json(out / "summary.json", {
        "deck": deck.name,
        "level": N,
        "alphabet": list(cons.alphabet),
        "strata_cells_per_level": strata,
        "fresh_sizes": {n: measures.fresh_count(cons, n) for n in range(N + 1)},
        "fresh_recursion_ok": fresh_ok,
        "provenance": "counted",
    })
    print(f"wrote {out}/patch.csv")
    return EXIT_OK if fresh_ok else EXIT_INVARIANT


def cmd_measures(deck, args) -> int:
    cons = deckmod.construction(deck)
    # the transition and projection identities need a window deeper than level 1
    _check_level(args, 2, deck)
    N = args.level
    freqs = [measures.mu_freq_counted(cons, n) for n in range(1, N + 1)]
    out = _out_dir(args, deck.name, "measures")
    with open(out / "frequencies.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["level", "symbol", "numerator", "denominator", "provenance"])
        for n, freq in enumerate(freqs, start=1):
            for sym, val in freq.items():
                w.writerow([n, sym, val.numerator, val.denominator, "counted"])
    verdicts = {}
    ok = True
    for n in range(0, min(3, cons.depth - 1) + 1):
        c = measures.density_product_check(cons, n)
        verdicts[f"density_level_{c.level}"] = {
            "counted": frac(c.counted), "closed": frac(c.closed),
            "equal": c.equal, "provenance": "counted+closed-form"}
        ok = ok and c.equal
    for n in (1, 2):
        if N <= n + 1:
            continue  # the identity needs a strictly deeper window
        good = measures.verify_transition(cons, n, N)
        verdicts[f"transition_{n}"] = {"equal": good, "provenance": "counted"}
        ok = ok and good
    good = measures.verify_projection(cons, N)
    verdicts["projection"] = {"equal": good, "provenance": "counted"}
    ok = ok and good
    if BETA in cons.alphabet:
        want = measures.marker_mass_closed(cons)
        got = freqs[-1].get(BETA, Fraction(0))
        verdicts["marker_mass"] = {
            "counted": frac(got), "closed": frac(want), "equal": got == want,
            "provenance": "counted+closed-form"}
        ok = ok and got == want
    _write_json(out / "verdicts.json", {"deck": deck.name, "level": N,
                                        "checks": verdicts, "passed": ok})
    print(f"wrote {out}/verdicts.json")
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_fibers(deck, args) -> int:
    if args.radius < 0:
        raise SpecError(f"--radius must be at least 0, got {args.radius}")
    census = verify.fiber_census(deck, args.radius)
    out = _out_dir(args, deck.name, "fibers")
    aperiodic = f"aperiodic_{census.aperiodic_unit}"
    rows = [{"coords": c, "fiber_count": n, "pieces": p, aperiodic: a}
            for c, n, p, a in zip(census.coords, census.fibers.tolist(),
                                  census.pieces.tolist(), census.aperiodic.tolist())]
    worst, bound = int(census.fibers.max()), deck.entropy_fiber_bound()
    passed = worst <= bound
    _write_json(out / "fibers.json", {
        "deck": deck.name, "depth": 2, "rows": rows,
        "fiber_bound": bound, "piece_bound": deck.piece_bound(),
        "max_fiber_count": worst, "passed": passed, "provenance": "counted"})
    print(f"wrote {out}/fibers.json")
    return EXIT_OK if passed else EXIT_INVARIANT


def cmd_independence(deck, args) -> int:
    if args.size is not None and args.size < 1:
        raise SpecError(f"--size must be at least 1, got {args.size}")
    deadline = _search_deadline(args)
    search = verify.independence_search(deck, args.size, args.max_steps, deadline)
    res = search.result
    out = _out_dir(args, deck.name, "independence")
    if res.certificate is not None:
        (out / "certificate.json").write_text(res.certificate.to_json() + "\n")
    with open(out / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "L", "radius", "verdict", "steps"])
        w.writerow([search.k, search.target, search.radius, res.status, res.steps])
    lower, upper = verify.entropy_bracket(deck, search.k, res.status)
    _write_json(out / "entropy.json", {
        "deck": deck.name, "lower_bits": lower, "upper_bits": upper,
        "provenance": "search"})
    print(f"wrote {out}/summary.csv")
    if res.status == "exhausted":
        return EXIT_BUDGET
    return EXIT_OK if res.status == "found" else EXIT_INVARIANT


def cmd_pullback(deck, args) -> int:
    try:
        weights = tuple(int(x) for x in args.weights.split(","))
    except ValueError:
        raise SpecError(f"weights must be comma-separated integers, "
                        f"got {args.weights!r}") from None
    if len(weights) != deck.group.rank:
        raise SpecError(f"--weights needs one weight per axis of the rank-{deck.group.rank} "
                        f"group of {deck.name}, got {len(weights)}")
    source = deckmod.load_deck(args.source)
    if source.williams is None:
        raise SpecError("source deck has no 1-d construction")
    # the source window reach * (|w|_1 + 1) must cover the first period
    wp = source.williams
    span = sum(abs(w) for w in weights) + 1
    least = max(1, -(-wp.periods[0] // span))
    if args.reach < least:
        raise SpecError(f"--reach must be at least {least} for source {source.name} "
                        f"with weights {args.weights}, got {args.reach}")
    out = _out_dir(args, deck.name, "pullback")
    hom = pb.HomSpec(weights)
    ok, reason = pb.validate_hom(hom, deck.group)
    doc = {"deck": deck.name, "weights": list(weights),
           "valid": ok, "reason": reason, "source": source.name}
    if not ok:
        _write_json(out / "pullback.json", doc)
        print(f"wrote {out}/pullback.json (homomorphism rejected)")
        return EXIT_INVARIANT
    eta = williams.generate(wp, args.reach * span)
    box = cube(deck.group.rank, args.reach)
    syms = ["" if s == williams.UNDEFINED else s
            for s in pb.pullback_window(hom, eta, box).tolist()]
    with open(out / "patch.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["finite_part"] + [f"v{j + 1}" for j in range(deck.group.rank)]
                   + ["symbol", "level"])
        for f in range(deck.group.finite_order):
            for lo in range(0, len(box), _CSV_ROWS):
                part = slice(lo, lo + _CSV_ROWS)
                w.writerows([f, *v, sym, ""]
                            for v, sym in zip(box[part].tolist(), syms[part]))
    doc["cells"] = deck.group.finite_order * len(box)
    doc["section"] = list(pb.section_vector(hom))
    _write_json(out / "pullback.json", doc)
    print(f"wrote {out}/patch.csv")
    return EXIT_OK


def cmd_verify_all(deck, args) -> int:
    # the acceptance table checks the bundled decks only, whatever --config
    # says, so its verdict has one place
    if args.config not in deckmod.BUNDLED:
        raise SpecError(f"--config must name a bundled deck for verify-all "
                        f"({', '.join(deckmod.BUNDLED)}), got {args.config!r}")
    deadline = _search_deadline(args)
    out = _out_dir(args, "verify-all")
    log = out / "run.log"
    _log(log, "verify-all started")
    doc = {"criteria": [], "passed": True}
    timings = {}
    exhausted = False
    for crit, name, check in verify.acceptance_table(args.max_steps, deadline):
        start = time.perf_counter()
        r = verify.run_check(name, check)
        timings[name] = time.perf_counter() - start
        _log(log, f"{name} {'passed' if r.passed else 'FAILED'} "
                  f"in {timings[name]:.3f} s")
        print(r.line())
        if not doc["criteria"] or doc["criteria"][-1]["criterion"] != crit:
            doc["criteria"].append({"criterion": crit, "checks": [], "passed": True})
        block = doc["criteria"][-1]
        block["checks"].append({
            "name": r.name, "passed": r.passed,
            "provenance": r.provenance, "details": r.details})
        block["passed"] = block["passed"] and r.passed
        doc["passed"] = doc["passed"] and r.passed
        exhausted = exhausted or r.details.get("status") == "exhausted"
    _write_json(out / "verdict.json", doc)
    _write_json(out / "timings.json", timings)
    _log(log, f"verify-all finished passed={doc['passed']}")
    print(f"wrote {out}/verdict.json")
    if exhausted:
        return EXIT_BUDGET
    return EXIT_OK if doc["passed"] else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="toeplitz-lab",
        description="Toeplitz subshift constructions, exact measures and "
                    "independence certificates")
    ap.add_argument("command", choices=[
        "gen-z", "gen-group", "measures", "fibers", "independence",
        "pullback", "verify-all", "show-config"])
    ap.add_argument("--config", default="williams-m2",
                    help="bundled deck name or path to a JSON deck file")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--budget", type=float, default=None,
                    help="wall-clock budget in seconds for searches")
    ap.add_argument("--max-steps", type=int, default=MAX_STEPS,
                    help="deterministic step budget for searches")
    ap.add_argument("--window", type=int, default=None,
                    help="gen-z window radius")
    ap.add_argument("--level", type=int, default=3,
                    help="box level for gen-group / measures")
    ap.add_argument("--radius", type=int, default=8,
                    help="window radius for fiber scans")
    ap.add_argument("--size", type=int, default=None,
                    help="independence set size to search for")
    ap.add_argument("--weights", default="1,1",
                    help="pullback weight vector, comma separated")
    ap.add_argument("--source", default="williams-m2",
                    help="source deck for pullback: bundled name or JSON path")
    ap.add_argument("--reach", type=int, default=8,
                    help="pullback window radius")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        deck = deckmod.load_deck(args.config)
    except SpecError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "show-config":
        print(json.dumps(deckmod.deck_to_config(deck), indent=2, sort_keys=True))
        return EXIT_OK
    handlers = {
        "gen-z": cmd_gen_z,
        "gen-group": cmd_gen_group,
        "measures": cmd_measures,
        "fibers": cmd_fibers,
        "independence": cmd_independence,
        "pullback": cmd_pullback,
        "verify-all": cmd_verify_all,
    }
    try:
        return handlers[args.command](deck, args)
    except (SpecError, DepthExhausted) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # a valid deck whose boxes outgrow the memory (numpy names the
        # allocation: its size, shape and data type)
        print(f"configuration error: the deck's boxes do not fit in memory: "
              f"{exc or 'allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
