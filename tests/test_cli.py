import copy
import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_toeplitz import new_construction

import toeplitz_lab
from toeplitz_lab import decks, measures, periods, verify
from toeplitz_lab import independence as ind
from toeplitz_lab.cli import main
from toeplitz_lab.lattice import SpecError
from toeplitz_lab.toeplitz import Construction, ConstructionError


def run(args):
    return main(args)


# SHA-256 of show-config for each bundled deck, recorded while the decks were
# still assembled by Python builders; their documents print the same decks
SHOW_CONFIG_SHA256 = {
    "dihedral-m2": "5556dfeac8983405a20f8d36fd2614ff9c5ca8f2ca724fe11bf7d5c46d57e06b",
    "swap-m2": "c2f3dd8786c5dab4f0297e728f75882d0c1b53fccf62655295fcdd177b709f70",
    "williams-m2": "f99b234d3b20247b696bfc38d3b27deded62e6f6d602fc134b150c9a5c280b0b",
    "williams-m3": "b63e4500e82535c182fb0b42924a278aac429a33bdca3446650cfbc799206d3f",
    "z2-m2": "27e6696faa5adab67ed4770b46b99025dfd7f00911dd6f5aab8adf4249c98369",
}


@pytest.mark.parametrize("name", decks.BUNDLED)
def test_show_config_is_pinned(name, capsys):
    assert run(["show-config", "--config", name]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SHOW_CONFIG_SHA256[name]


def test_show_config_roundtrip(tmp_path, capsys):
    for name in decks.BUNDLED:
        assert run(["show-config", "--config", name]) == 0
        doc = json.loads(capsys.readouterr().out)
        deck = decks.deck_from_config(doc)
        assert deck == decks.bundled_deck(name)
        # a saved configuration loads back through the file path route
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert decks.load_deck(str(path)) == deck


@pytest.mark.parametrize("name", decks.BUNDLED)
def test_a_bundled_deck_is_its_document_loaded(name):
    """A bundled deck is its document loaded by the deck-file loader, once per
    process; the document holds what show-config prints, less the automatic
    offsets and a null williams_periods, and loading leaves it unchanged."""
    assert decks.load_deck(name) is decks.bundled_deck(name)
    doc = decks._DOCUMENTS[name]
    before = copy.deepcopy(doc)
    assert decks.deck_from_config(doc) == decks.deck_from_config(doc) == \
        decks.bundled_deck(name)
    assert doc == before
    shown = decks.deck_to_config(decks.bundled_deck(name))
    del shown["offsets"]
    assert doc == {k: v for k, v in shown.items() if v is not None}


def test_a_deck_file_builds_one_construction(tmp_path, monkeypatch):
    """Loading a deck validates it by building the construction that
    ``decks.construction`` then keeps: one ``Construction`` per deck."""
    doc = decks.deck_to_config(decks.bundled_deck("dihedral-m2"))
    doc["name"] = str(tmp_path)  # a deck no earlier load has built
    path = tmp_path / "deck.json"
    path.write_text(json.dumps(doc))
    built = []
    init = Construction.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(Construction, "__init__", counted)
    deck = decks.load_deck(str(path))
    assert decks.construction(deck) is built[0] and len(built) == 1


def test_unknown_deck_is_config_error():
    assert run(["gen-z", "--config", "no-such-deck"]) == 2


def _bad_deck_files():
    """Placeholder -> (the file's bytes, the text its error names; None for
    the file's path)."""
    renamed = decks.deck_to_config(decks.bundled_deck("williams-m2"))
    renamed["williams_period"] = renamed.pop("williams_periods")
    extra = decks.deck_to_config(decks.bundled_deck("williams-m2"))
    extra["group"]["order"] = 1
    return {
        "<truncated-json>": (b"{", None),
        "<not-utf8>": (b"\xff\xfe{", None),
        "<renamed-key>": (json.dumps(renamed).encode(), "unknown field 'williams_period'"),
        "<extra-group-key>": (json.dumps(extra).encode(), "unknown field 'group.order'"),
    }


@pytest.mark.parametrize("argv", [
    ["gen-z", "--config", "williams-m2", "--window", "0"],
    ["gen-group", "--config", "dihedral-m2", "--level", "0"],
    ["gen-group", "--config", "dihedral-m2", "--level", "99"],
    ["measures", "--config", "z2-m2", "--level", "9"],
    ["pullback", "--config", "swap-m2", "--weights", "a,b"],
    ["pullback", "--config", "swap-m2", "--weights", "1"],
    ["pullback", "--config", "swap-m2", "--weights", "1,1,1"],
    ["pullback", "--config", "swap-m2", "--source", "nosuch"],
    ["fibers", "--config", "dihedral-m2", "--radius", "-1"],
    ["fibers", "--config", "z2-m2", "--radius", "150"],
    ["independence", "--config", "williams-m2", "--size", "0"],
    ["independence", "--config", "williams-m2", "--size", "-1"],
    ["verify-all", "--config", "<truncated-json>"],
    ["verify-all", "--config", "<not-utf8>"],
    ["verify-all", "--config", "<directory>"],
    ["fibers", "--config", "<renamed-key>"],
    ["independence", "--config", "<extra-group-key>"],
], ids=" ".join)
def test_malformed_input_is_config_error(argv, tmp_path, capsys):
    files = _bad_deck_files()
    paths, named = {}, []
    for token in argv:
        if token == "<directory>":
            paths[token] = tmp_path
            named.append(str(tmp_path))
        elif token in files:
            content, text = files[token]
            paths[token] = tmp_path / "deck.json"
            paths[token].write_bytes(content)
            named.append(text or str(paths[token]))
    argv = [str(paths.get(token, token)) for token in argv]
    assert run(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert all(text in err for text in named)


@pytest.mark.parametrize("command", ["independence", "verify-all"])
@pytest.mark.parametrize("option,value", [
    ("--budget", "0"), ("--budget", "-5"), ("--budget", "nan"), ("--budget", "inf"),
    ("--max-steps", "0"), ("--max-steps", "-3"),
])
def test_search_budgets_must_be_positive(command, option, value, tmp_path, capsys):
    out = tmp_path / "o"
    assert run([command, "--config", "dihedral-m2", option, value,
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and option in err
    assert not out.exists()  # refused before any work


OUT_OF_RANGE = [
    (["pullback", "--config", "swap-m2", "--reach", "-1"], "--reach", "at least 2"),
    (["pullback", "--config", "swap-m2", "--reach", "0"], "--reach", "at least 2"),
    (["pullback", "--config", "swap-m2", "--reach", "1"], "--reach", "at least 2"),
    (["measures", "--config", "z2-m2", "--level", "0"], "--level", "2..5"),
    (["measures", "--config", "z2-m2", "--level", "-2"], "--level", "2..5"),
    (["measures", "--config", "dihedral-m2", "--level", "1"], "--level", "2..7"),
    (["measures", "--config", "z2-m2", "--level", "9"], "--level", "2..5"),
    (["gen-group", "--config", "dihedral-m2", "--level", "0"], "--level", "1..7"),
    (["gen-z", "--config", "williams-m2", "--window", "3"], "--window", "at least p_1 = 6"),
    (["gen-z", "--config", "williams-m2", "--window", "0"], "--window", "at least p_1 = 6"),
    (["gen-z", "--config", "williams-m2", "--window", "-5"], "--window", "at least p_1 = 6"),
    (["fibers", "--config", "z2-m2", "--radius", "-1"], "--radius", "at least 0"),
    (["independence", "--config", "z2-m2", "--size", "0"], "--size", "at least 1"),
    (["pullback", "--config", "swap-m2", "--weights", "1"], "--weights", "rank-2"),
    (["pullback", "--config", "swap-m2", "--weights", "1,1,1"], "--weights", "rank-2"),
]


@pytest.mark.parametrize("argv,option,shown", OUT_OF_RANGE,
                         ids=[" ".join(argv) for argv, _, _ in OUT_OF_RANGE])
def test_out_of_range_options_are_named(argv, option, shown, tmp_path, capsys):
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert option in err and shown in err
    assert not out.exists()


@pytest.mark.parametrize("command,periods,needed", [
    pytest.param("independence", [6, 36, 432], "needs 4 periods, got 3", id="independence-3"),
    pytest.param("independence", [6, 36], "needs 4 periods, got 2", id="independence-2"),
    pytest.param("independence", [6], "needs 4 periods, got 1", id="independence-1"),
    pytest.param("gen-z", [6], "needs 2 periods (window 2 p_2), got 1", id="gen-z-1"),
    pytest.param("fibers", [6, 36], "needs 3 periods, got 2", id="fibers-2"),
    pytest.param("fibers", [6], "needs 3 periods, got 1", id="fibers-1"),
])
def test_short_period_lists_are_config_errors(command, periods, needed, tmp_path, capsys):
    """A 1-d deck with fewer periods than a command reads exits 2 naming the
    depth it needs, not 1 with an IndexError."""
    doc = decks.deck_to_config(decks.bundled_deck("williams-m2"))
    doc["williams_periods"] = periods
    path = tmp_path / "deck.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert run([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and needed in err
    assert not out.exists()


@pytest.mark.parametrize("deck,periods,error", [
    pytest.param("williams-m2", [4, 12, 36], "differ from the chain at level 1: 4 against 6",
                 id="williams-m2-other-chain"),
    pytest.param("z2-m2", [6, 36, 432, 10368], "need the group Z (rank 1, trivial F)",
                 id="z2-m2"),
    pytest.param("dihedral-m2", [5, 25, 125, 625], "need the group Z (rank 1, trivial F)",
                 id="dihedral-m2"),
])
def test_classical_periods_must_describe_the_decks_chain(deck, periods, error, tmp_path,
                                                         capsys):
    """williams_periods describe a 1-d deck's own chain: on a group that is
    not Z, or differing from the chain moduli on a level both define, the
    deck file exits 2 naming why."""
    doc = decks.deck_to_config(decks.bundled_deck(deck))
    doc["williams_periods"] = periods
    path = tmp_path / "deck.json"
    path.write_text(json.dumps(doc))
    assert run(["show-config", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and error in err


def test_classical_periods_may_run_past_the_chain():
    """Periods beyond the chain's depth agree with it on every level both
    define, so the deck loads."""
    doc = decks.deck_to_config(decks.bundled_deck("williams-m2"))
    doc["williams_periods"].append(124416 * 3)
    assert decks.deck_from_config(doc).williams.depth == 6


@pytest.mark.parametrize("variant,error", [
    ("normal", "the normal variant is only supported for trivial F"),
    ("twisted", "unknown variant 'twisted'"),
])
def test_deck_variant_is_checked_on_loading(variant, error, tmp_path, capsys):
    doc = decks.deck_to_config(decks.bundled_deck("swap-m2"))
    doc["variant"] = variant
    path = tmp_path / "deck.json"
    path.write_text(json.dumps(doc))
    assert run(["show-config", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and error in err


def _capped_child(limit):
    """Cap the address space of a child process at ``limit`` bytes."""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("command", ["gen-group", "measures"])
def test_a_deck_too_big_for_memory_is_config_error(command, tmp_path):
    """A deck whose moduli are valid but whose level-2 box has 7 * 10^12
    cells loads, and then exits 2 naming the allocation that failed, one
    byte per level cell, not 1 with a traceback.  The child's address space
    is capped at 2 GiB, so the allocation fails at once on any host."""
    doc = decks.deck_to_config(decks.bundled_deck("dihedral-m2"))
    doc["chain"], doc["offsets"] = [[7], [7_000_000_000_000]], "auto"
    path = tmp_path / "deck.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(toeplitz_lab.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, "-m", "toeplitz_lab.cli", command, "--config", str(path),
         "--level", "2", "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=partial(_capped_child, 2 << 30))
    assert child.returncode == 2, child.stderr
    assert child.stderr.startswith("configuration error:")
    assert "Unable to allocate 6.37 TiB" in child.stderr
    assert "Traceback" not in child.stderr


def test_measures_of_the_largest_alphabet_fit_in_linear_work(tmp_path):
    """The transition and projection identities apply the closed forms of
    A_n and A_0, O(m) work each: a williams-m2 deck file with m = 32767, the
    largest valid alphabet, passes ``measures`` at its deepest level inside a
    512 MiB address space and a minute.  Dense m x m products in Fractions
    run out of memory there."""
    doc = decks.deck_to_config(decks.bundled_deck("williams-m2"))
    doc["m"] = 32767
    path = tmp_path / "deck.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(toeplitz_lab.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, "-m", "toeplitz_lab.cli", "measures", "--config", str(path),
         "--level", "5", "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=partial(_capped_child, 512 << 20))
    assert child.returncode == 0, child.stderr
    out = tmp_path / "o" / "williams-m2" / "measures"
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert verdicts["passed"] and verdicts["level"] == 5
    assert {"transition_1", "transition_2", "projection"} <= set(verdicts["checks"])
    with open(out / "frequencies.csv", newline="") as fh:
        assert sum(1 for _ in fh) == 1 + 5 * 32767


def test_independence_of_the_largest_alphabet_searches_in_linear_work(tmp_path):
    """The search forms each candidate's site products once, however many
    cylinders share the site, and drops a candidate at its first empty
    mask: the williams-m2 deck file with m = 32767 searches its 32,767
    single-site cylinders over 865 candidates inside a 512 MiB address space
    and a minute, and finds no pair (the sequence writes 5 of the symbols)."""
    doc = decks.deck_to_config(decks.bundled_deck("williams-m2"))
    doc["m"] = 32767
    path = tmp_path / "deck.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(toeplitz_lab.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, "-m", "toeplitz_lab.cli", "independence", "--config", str(path),
         "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=partial(_capped_child, 512 << 20))
    assert child.returncode == 1, child.stderr
    with open(tmp_path / "o" / "williams-m2" / "independence" / "summary.csv",
              newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["k", "L", "radius", "verdict", "steps"],
                    ["32767", "2", "432", "none", "865"]]


def test_smallest_reach_is_accepted(tmp_path):
    assert run(["pullback", "--config", "swap-m2", "--reach", "2",
                "--out", str(tmp_path)]) == 0


def test_verify_all_writes_timings_beside_a_deterministic_verdict(
        tmp_path, monkeypatch, capsys):
    picked = ("fresh-dual[dihedral-m2]", "density-product[dihedral-m2]",
              "conjugation[dihedral-m2]")
    table = [row for row in verify.acceptance_table() if row[1] in picked]
    monkeypatch.setattr(verify, "acceptance_table", lambda *args: table)
    verdicts = []
    for name in ("a", "b"):
        assert run(["verify-all", "--config", "dihedral-m2",
                    "--out", str(tmp_path / name)]) == 0
        out = tmp_path / name / "verify-all"
        verdicts.append((out / "verdict.json").read_bytes())
        timings = json.loads((out / "timings.json").read_text())
        assert sorted(timings) == sorted(picked)
        assert all(isinstance(t, float) and t >= 0 for t in timings.values())
        log = (out / "run.log").read_text().splitlines()
        assert len(log) == len(picked) + 2
        for check, line in zip(picked, log[1:]):
            assert f" {check} passed in " in line
    assert verdicts[0] == verdicts[1]
    doc = json.loads(verdicts[0])
    assert [c["criterion"] for c in doc["criteria"]] == \
        ["1 fresh-cell recursion equivalence", "3 density product formula",
         "11 conjugation identity"]
    assert [ch["name"] for c in doc["criteria"] for ch in c["checks"]] == list(picked)
    assert doc["passed"] and "seconds" not in verdicts[0].decode()


def test_a_raising_check_does_not_hide_the_others(tmp_path, monkeypatch, capsys):
    """The class table of z2-m2 raises ConstructionError: the three checks
    that read it fail, naming the exception, and every other check still
    runs and passes; all three files are written and the exit code is 1."""
    real = measures.class_levels
    z2 = decks.construction(decks.bundled_deck("z2-m2"))

    def broken(cons, n, N):
        if cons is z2:
            raise ConstructionError("the class table is not constant")
        return real(cons, n, N)

    monkeypatch.setattr(measures, "class_levels", broken)
    assert run(["verify-all", "--out", str(tmp_path)]) == 1
    out = tmp_path / "verify-all"
    doc = json.loads((out / "verdict.json").read_text())
    rows = [check for block in doc["criteria"] for check in block["checks"]]
    assert len(rows) == 38 and not doc["passed"]
    failed = {row["name"]: row for row in rows if not row["passed"]}
    assert sorted(failed) == ["fiber-scan[z2-m2]", "matrix-recursions[z2-m2]",
                              "tower-pieces[z2-m2]"]
    for row in failed.values():
        assert row["provenance"] == "raised"
        assert row["details"] == {"error": "ConstructionError",
                                  "message": "the class table is not constant"}
    assert sorted(json.loads((out / "timings.json").read_text())) == \
        sorted(row["name"] for row in rows)
    log = (out / "run.log").read_text().splitlines()
    assert len(log) == 40 and log[-1].endswith("verify-all finished passed=False")
    assert [line.split()[1] for line in log if " FAILED in " in line] == \
        ["matrix-recursions[z2-m2]", "fiber-scan[z2-m2]", "tower-pieces[z2-m2]"]


def test_a_raising_search_fails_the_entropy_bounds_row(monkeypatch):
    real = verify.check_independence_deck

    def broken(name, *args):
        if name == "z2-m2":
            raise ind.CertificateWindowError("a witness read left the window")
        return real(name, *args)

    monkeypatch.setattr(verify, "check_independence_deck", broken)
    rows = {name: verify.run_check(name, check)
            for _, name, check in verify.acceptance_table() if "independence" in name
            or name == "entropy-bounds"}
    assert not rows["independence[z2-m2]"].passed
    assert rows["independence[z2-m2]"].details["error"] == "CertificateWindowError"
    bounds = rows["entropy-bounds"]
    assert not bounds.passed and bounds.provenance == "search"
    assert bounds.details["z2-m2"] == {"search": "independence[z2-m2]",
                                       "raised": "CertificateWindowError"}
    assert all(rows[f"independence[{n}]"].passed and "lower_bits" in bounds.details[n]
               for n in verify.INDEPENDENCE_DECKS if n != "z2-m2")


@pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt, ZeroDivisionError])
def test_other_exceptions_of_a_check_propagate(error):
    def check():
        raise error("not a check failure")

    with pytest.raises(error):
        verify.run_check("any", check)


def test_verify_all_refuses_a_deck_file(tmp_path, capsys):
    # a bundled deck saved under a new name is still a deck the table never checks
    assert run(["show-config", "--config", "z2-m2"]) == 0
    path = tmp_path / "copy.json"
    path.write_text(capsys.readouterr().out)
    out = tmp_path / "o"
    assert run(["verify-all", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "--config" in err
    assert not out.exists()  # no verdict for an unchecked deck


# SHA-256 of the bundled verify-all verdict.json, recorded before criteria 1
# and 2 read one claim pass; a change that alters a verdict on purpose
# re-records it and says why
VERIFY_ALL_VERDICT_SHA256 = "f86755a2aa4c22824b58c4dea270787b4a281f88dbe37a063c70e44dcf497ad9"


def test_verify_all_verdict_is_pinned(tmp_path):
    assert run(["verify-all", "--out", str(tmp_path)]) == 0
    verdict = tmp_path / "verify-all" / "verdict.json"
    assert hashlib.sha256(verdict.read_bytes()).hexdigest() == VERIFY_ALL_VERDICT_SHA256


# SHA-256 of the files the search wrote before witness masks became int
# bitsets; the certificates name the same witnesses byte for byte
INDEPENDENCE_OUTPUT_SHA256 = {
    "dihedral-m2": {
        "certificate.json": "572abae335526ce93fb170cc1961c666a3810a5345e80129d4c83412c0b89778",
        "entropy.json": "e7334db3c96e961f5a64904f3f0b4b3bf58abeeb61cf1db4b69995e8afb9937e",
        "summary.csv": "fcc71e77a715fe5002ac3c07ddddca5a235e7bf9ffd63429e7508201780c2a73",
    },
    "z2-m2": {
        "certificate.json": "5ce7a11394243c511ce1b2b890c73440a6fd1cc67bf3802766c33968d7095864",
        "entropy.json": "dd53bfc201ecbc078773b8d24621e28c483bfd117db4f026e082eccca8ca269e",
        "summary.csv": "fcc71e77a715fe5002ac3c07ddddca5a235e7bf9ffd63429e7508201780c2a73",
    },
}


@pytest.mark.parametrize("name", sorted(INDEPENDENCE_OUTPUT_SHA256))
def test_independence_output_is_pinned(name, tmp_path):
    assert run(["independence", "--config", name, "--out", str(tmp_path)]) == 0
    out = tmp_path / name / "independence"
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert got == INDEPENDENCE_OUTPUT_SHA256[name]


# SHA-256 of gen-group's patch.csv as written one cell at a time, before the
# rows came from the window arrays in chunks; z2-m2 level 4 has 390,625 rows
GEN_GROUP_PATCH_SHA256 = {
    ("dihedral-m2", 7): "094c28ff4a2b0b22c835f1bce68850b3a94ad27df52916d365c3f05c2a95fd08",
    ("swap-m2", 3): "9ee8a631e99ecd12b179a0adad80bac171e8b3fdd325b5c1ca7fa71c94c1ef4d",
    ("z2-m2", 4): "8fd79c534641409f330c1cb06f8571b183e52ecadc49d69d52695693b1083134",
}


@pytest.mark.parametrize("name,level", sorted(GEN_GROUP_PATCH_SHA256))
def test_gen_group_patch_is_pinned(name, level, tmp_path):
    assert run(["gen-group", "--config", name, "--level", str(level),
                "--out", str(tmp_path)]) == 0
    patch = tmp_path / name / "gen-group" / "patch.csv"
    assert hashlib.sha256(patch.read_bytes()).hexdigest() == \
        GEN_GROUP_PATCH_SHA256[(name, level)]


def test_invalid_chain_is_config_error(tmp_path):
    doc = decks.deck_to_config(decks.bundled_deck("dihedral-m2"))
    doc["chain"] = [[3]] + doc["chain"][1:]  # violates p^1 > 3
    doc["offsets"] = "auto"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["gen-group", "--config", str(path)]) == 2
    with pytest.raises(SpecError):
        decks.load_deck(str(path))


@pytest.mark.parametrize("command", ["show-config", "independence", "measures",
                                     "gen-group"])
def test_chain_moduli_past_int64_are_config_error(command, tmp_path, capsys):
    """A deck file whose chain runs to moduli past int64 (p^i = 5 * 2^(i-1)
    over 70 levels) exits 2 naming the first level past 2**62, the bound
    of the box arithmetic, before any int64 sum in the claim rule can
    overflow."""
    doc = decks.deck_to_config(decks.bundled_deck("dihedral-m2"))
    doc["chain"] = [[5 * 2 ** i] for i in range(70)]
    doc.pop("offsets", None)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert run([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert "level 61 modulus p_1" in err and "exceeds 2**62" in err


@pytest.mark.parametrize("edits,named", [
    pytest.param({"chain": ["ab", "cd"]}, "chain", id="chain-strings"),
    pytest.param({"chain": [[[5], [5]]]}, "chain", id="chain-too-deep"),
    pytest.param({"offsets": "centred"}, "offsets", id="offsets-string"),
    pytest.param({"offsets": [["2", "2"]] * 5}, "offsets", id="offsets-strings"),
    pytest.param({"offsets": [[2], [12], [62], [312], [1562]]}, "offsets have wrong rank",
                 id="offsets-short-rows"),
    pytest.param({"group.table": [["0"]]}, "group.table", id="table-string"),
    pytest.param({"group.table": [], "group.action": []}, "table is empty",
                 id="table-empty"),
    pytest.param({"group.action": [[[1.0, 0.0], [0.0, 1.0]]]}, "group.action",
                 id="action-floats"),
    pytest.param({"group.table": [[0, 1], [1, 0]],
                  "group.action": [[[1, 0], [0, 1]], [[1, 0], [2 ** 70, -1]]]},
                 "entries do not fit in 64 bits", id="action-past-int64"),
    pytest.param({"group.rank": True}, "group.rank", id="rank-boolean"),
    pytest.param({"williams_periods": ["6", "36"]}, "williams_periods",
                 id="periods-strings"),
    pytest.param({"m": 2.7}, "m must be", id="m-float"),
    pytest.param({"m": 32768}, "m = 32768", id="m-past-int16"),
])
def test_malformed_deck_file_is_config_error(edits, named, tmp_path, capsys):
    """A deck file with a string, a float, a boolean or a list one level too
    deep in an integer field, or with rows or tables of the wrong size, exits
    2 naming the field or the fault; it neither raises a TypeError or an
    IndexError nor rounds the value."""
    doc = decks.deck_to_config(decks.bundled_deck("z2-m2"))
    for field, value in edits.items():
        outer, _, key = field.rpartition(".")
        (doc[outer] if outer else doc)[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["show-config", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and named in err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10_000) | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False, width=32),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=8)


def _paths(node, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated_configs(draw):
    """A bundled deck's configuration with one to three nodes replaced by
    arbitrary JSON, deleted, or nudged (an integer moved by up to 3, or
    turned into a float or a string)."""
    doc = decks.deck_to_config(decks.bundled_deck(draw(st.sampled_from(decks.BUNDLED))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        old = doc
        for key in path:
            old = old[key]
        kind = draw(st.sampled_from(["replace", "delete", "nudge"]))
        if kind == "nudge" and isinstance(old, int) and not isinstance(old, bool):
            new = draw(st.sampled_from([old + draw(st.integers(-3, 3)), float(old),
                                        str(old)]))
        else:
            new = draw(_JSON)
        if not path:
            doc = new
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
    return doc


@settings(max_examples=300, deadline=None)
@given(mutated_configs())
def test_mutated_configs_load_or_raise_spec_error(doc):
    """Every mutated configuration either loads as a deck that validates,
    hashes (the construction cache needs it) and survives a round trip, or
    raises SpecError; no other exception escapes."""
    try:
        deck = decks.deck_from_config(doc)
    except SpecError:
        return
    deck.validate()
    hash(deck)
    assert decks.deck_from_config(json.loads(json.dumps(decks.deck_to_config(deck)))) == deck


def test_a_deck_has_one_alphabet_size(monkeypatch):
    """Changing a deck's m changes its 1-d construction, its configuration
    and the bound its fiber scan is held to, all together."""
    d = dataclasses.replace(decks.bundled_deck("williams-m2"), name="williams-m3x", m=3)
    assert d.williams.m == 3
    assert decks.deck_from_config(json.loads(json.dumps(decks.deck_to_config(d)))) == d
    monkeypatch.setattr(decks, "bundled_deck", lambda name: d)
    row = verify.check_fiber_scan("williams-m3x")
    assert row.details["bound"] == d.entropy_fiber_bound() == 3 and row.passed


def test_gen_z_outputs(tmp_path):
    out = tmp_path / "o"
    assert run(["gen-z", "--config", "williams-m2", "--window", "200",
                "--out", str(out)]) == 0
    rows = list(csv.reader(open(out / "williams-m2" / "gen-z" / "patch.csv")))
    assert rows[0] == ["position", "symbol", "level"]
    assert len(rows) == 402
    summary = json.loads((out / "williams-m2" / "gen-z" / "summary.json")
                         .read_text())
    assert summary["ratio_partial_sums"][0] == "1/6"


# SHA-256 of gen-z's patch.csv as written one position at a time, before the
# rows came from the patch arrays in chunks; window 40,000 has 80,001 rows,
# more than one chunk
GEN_Z_PATCH_SHA256 = {
    ("williams-m2", 200): "6f5fedc6da0f3f10546ecfa41be7efbcf5773bcbb643e1ec861fddfd6372156a",
    ("williams-m2", 40000): "2ea63622bb66bbd2f9af1a299920333556f3c2e7660e68d71c76301fd24585b8",
    ("williams-m3", 5000): "bd0fe0db34e91059044dcbd66f5d6e891a6d810a44d54d5253a857ccd211dbfd",
}


@pytest.mark.parametrize("name,window", sorted(GEN_Z_PATCH_SHA256))
def test_gen_z_patch_is_pinned(name, window, tmp_path):
    assert run(["gen-z", "--config", name, "--window", str(window),
                "--out", str(tmp_path)]) == 0
    patch = tmp_path / name / "gen-z" / "patch.csv"
    assert hashlib.sha256(patch.read_bytes()).hexdigest() == \
        GEN_Z_PATCH_SHA256[(name, window)]


# SHA-256 of pullback's patch.csv as written from a per-cell dict, before
# phi* eta came from one gather and the rows were written in chunks
PULLBACK_PATCH_SHA256 = {
    ("swap-m2", 2): "91ac01ec5858c803d926a8b1cab28947f165bb73e77cb3f28612368b9bdff0c6",
    ("swap-m2", 30): "4979447aa56ad4128b5d2eb463fbf47aecc2f5b883b758c6d67b20fcbf64a275",
}


@pytest.mark.parametrize("name,reach", sorted(PULLBACK_PATCH_SHA256))
def test_pullback_patch_is_pinned(name, reach, tmp_path):
    assert run(["pullback", "--config", name, "--reach", str(reach),
                "--out", str(tmp_path)]) == 0
    patch = tmp_path / name / "pullback" / "patch.csv"
    assert hashlib.sha256(patch.read_bytes()).hexdigest() == \
        PULLBACK_PATCH_SHA256[(name, reach)]


def test_measures_counts_each_level_once(tmp_path, monkeypatch):
    """The frequencies, the density products and the projection identity all
    read one count of each level array."""
    cons = new_construction(decks.bundled_deck("swap-m2"))
    monkeypatch.setattr(decks, "construction", lambda deck: cons)
    counted = []
    real = measures._count_levels

    def counting(n, lvl):
        counted.append(n)
        return real(n, lvl)

    monkeypatch.setattr(measures, "_count_levels", counting)
    assert run(["measures", "--config", "swap-m2", "--level", "4",
                "--out", str(tmp_path)]) == 0
    assert counted == [1, 2, 3, 4]


def test_gen_group_reports_the_measures_level_counts(tmp_path, monkeypatch):
    """The strata of the gen-group summary are the measures' level counts of
    the level array, counted once."""
    cons = new_construction(decks.bundled_deck("dihedral-m2"))
    monkeypatch.setattr(decks, "construction", lambda deck: cons)
    counted = []
    real = measures._count_levels

    def counting(n, lvl):
        counted.append(n)
        return real(n, lvl)

    monkeypatch.setattr(measures, "_count_levels", counting)
    out = tmp_path / "o"
    assert run(["gen-group", "--config", "dihedral-m2", "--level", "3",
                "--out", str(out)]) == 0
    doc = json.loads((out / "dihedral-m2" / "gen-group" / "summary.json").read_text())
    want = np.bincount(cons.level_array(3))
    assert doc["strata_cells_per_level"] == {str(l): int(c) for l, c in enumerate(want) if c}
    assert counted == [3]


def test_gen_group_and_measures(tmp_path):
    out = tmp_path / "o"
    assert run(["gen-group", "--config", "dihedral-m2", "--level", "2",
                "--out", str(out)]) == 0
    rows = list(csv.reader(open(out / "dihedral-m2" / "gen-group" /
                                "patch.csv")))
    assert rows[0] == ["finite_part", "v1", "symbol", "level"]
    assert len(rows) == 51
    assert run(["measures", "--config", "dihedral-m2", "--level", "3",
                "--out", str(out)]) == 0
    doc = json.loads((out / "dihedral-m2" / "measures" / "verdicts.json")
                     .read_text())
    assert doc["passed"]
    assert doc["checks"]["marker_mass"]["counted"] == "1/10"


def test_reports_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["measures", "--config", "dihedral-m2", "--level", "3",
                    "--out", str(out)]) == 0
    f1 = (out1 / "dihedral-m2" / "measures" / "verdicts.json").read_bytes()
    f2 = (out2 / "dihedral-m2" / "measures" / "verdicts.json").read_bytes()
    assert f1 == f2
    c1 = (out1 / "dihedral-m2" / "measures" / "frequencies.csv").read_bytes()
    c2 = (out2 / "dihedral-m2" / "measures" / "frequencies.csv").read_bytes()
    assert c1 == c2


def test_fibers_report(tmp_path):
    out = tmp_path / "o"
    assert run(["fibers", "--config", "dihedral-m2", "--out", str(out)]) == 0
    doc = json.loads((out / "dihedral-m2" / "fibers" / "fibers.json")
                     .read_text())
    assert doc["passed"] and doc["max_fiber_count"] <= doc["fiber_bound"]
    assert len(doc["rows"]) == 50


def test_fibers_refuses_a_radius_no_approximant_fits(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["fibers", "--config", "dihedral-m2", "--radius", "100",
                "--out", str(out)]) == 2
    assert "no orbit approximant" in capsys.readouterr().err
    assert not (out / "dihedral-m2" / "fibers" / "fibers.json").exists()


@pytest.mark.parametrize("radius", ["63", "150", "100000"])
def test_fibers_refuses_a_radius_wider_than_the_oracle_box(radius, tmp_path, capsys,
                                                           monkeypatch):
    """A window of 2 radius + 1 cells wider than the 125-cell level-3 box
    leaves no approximant for any point, so it is refused before the census
    builds a batch."""
    monkeypatch.setattr(periods, "census", lambda *a, **kw: pytest.fail("census built"))
    out = tmp_path / "o"
    assert run(["fibers", "--config", "z2-m2", "--radius", radius,
                "--out", str(out)]) == 2
    assert "no orbit approximant" in capsys.readouterr().err
    assert not (out / "z2-m2" / "fibers" / "fibers.json").exists()


def test_fibers_tower_pieces_match_acceptance_on_1d_deck(tmp_path):
    out = tmp_path / "o"
    assert run(["fibers", "--config", "williams-m2", "--out", str(out)]) == 0
    doc = json.loads((out / "williams-m2" / "fibers" / "fibers.json")
                     .read_text())
    hist = {}
    for row in doc["rows"]:
        hist[row["pieces"]] = hist.get(row["pieces"], 0) + 1
    assert hist == verify.check_tower_piece("williams-m2").details["histogram"]
    assert hist == {1: 20, 2: 16}


def test_gen_group_fresh_route_disagreement_exits_1(tmp_path, monkeypatch):
    """A claim step that claims one more cell of the box than it should
    leaves the rep route one fresh cell short of the tiling."""
    claims = Construction.stratum_claims

    def corrupted(self, N):
        for l, hit in enumerate(claims(self, N), start=1):
            if l == N:
                hit = hit.copy()
                hit.flat[0] = True
            yield hit

    monkeypatch.setattr(Construction, "stratum_claims", corrupted)
    out = tmp_path / "o"
    assert run(["gen-group", "--config", "dihedral-m2", "--level", "2",
                "--out", str(out)]) == 1
    doc = json.loads((out / "dihedral-m2" / "gen-group" / "summary.json")
                     .read_text())
    assert doc["fresh_recursion_ok"] is False


def test_gen_group_compares_the_fresh_routes_at_full_depth(tmp_path, monkeypatch):
    """``gen-group --level <depth>`` compares the fresh routes at the level
    it reports: a claim step corrupted only at full depth fails it."""
    claims = Construction.stratum_claims

    def corrupted(self, N):
        for l, hit in enumerate(claims(self, N), start=1):
            if N == self.depth and l == N:
                hit = hit.copy()
                hit.flat[0] = True
            yield hit

    monkeypatch.setattr(Construction, "stratum_claims", corrupted)
    out = tmp_path / "o"
    assert run(["gen-group", "--config", "dihedral-m2", "--level", "7",
                "--out", str(out)]) == 1
    doc = json.loads((out / "dihedral-m2" / "gen-group" / "summary.json")
                     .read_text())
    assert doc["fresh_recursion_ok"] is False


def test_independence_budget_exhaustion(tmp_path):
    out = tmp_path / "o"
    code = run(["independence", "--config", "williams-m2", "--max-steps", "2",
                "--out", str(out)])
    assert code == 3
    rows = list(csv.reader(open(out / "williams-m2" / "independence" /
                                "summary.csv")))
    assert rows[1][3] == "exhausted"


def test_independence_success(tmp_path):
    out = tmp_path / "o"
    assert run(["independence", "--config", "dihedral-m2",
                "--out", str(out)]) == 0
    cert = (out / "dihedral-m2" / "independence" / "certificate.json")
    assert cert.exists()
    doc = json.loads((out / "dihedral-m2" / "independence" / "entropy.json")
                     .read_text())
    assert doc["lower_bits"] == 1.0 and doc["upper_bits"] == 4.0


def test_pullback_rejection_and_success(tmp_path):
    out = tmp_path / "o"
    assert run(["pullback", "--config", "dihedral-m2", "--weights", "1",
                "--out", str(out)]) == 1
    assert run(["pullback", "--config", "swap-m2", "--weights", "1,1",
                "--reach", "4", "--out", str(out)]) == 0
    doc = json.loads((out / "swap-m2" / "pullback" / "pullback.json")
                     .read_text())
    assert doc["valid"] and doc["section"] == [0, 1]
