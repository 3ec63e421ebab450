"""Layout rules for src/.

Every public function of the library has a caller outside tests/.  A public
top-level function or public method (properties excluded) counts as used
when its name is referenced in src/ outside its own definition, or appears
in a script under bench/ or demos/ (the tracer names layers by strings such
as "periods.window_data").  The only exceptions are check-only references:
second implementations that tests compare a production function against,
each saying so in its docstring.

No numpy call in src/ takes a slow route to rows or matrix actions:
``np.unique(..., axis=...)`` sorts through a structured dtype, and
``np.einsum`` over gathered matrices loses to a matrix product or a column
sum.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "toeplitz_lab"

# (module, check-only function, the production function it is checked against)
CHECK_ONLY = (
    ("periods", "per_set_exact", "per_set_empirical"),
)


def _is_property(node) -> bool:
    return any(isinstance(dec, ast.Name) and dec.id in ("property", "cached_property")
               for dec in node.decorator_list)


def _public_defs():
    """(module, name, def node) for public functions and methods in src/."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                out.append((path.stem, node.name, node))
            elif isinstance(node, ast.ClassDef):
                out.extend((path.stem, sub.name, sub) for sub in node.body
                           if isinstance(sub, ast.FunctionDef)
                           and not _is_property(sub))
    return [(mod, name, node) for mod, name, node in out
            if not name.startswith("_")]


def _src_references():
    """name -> [(module, line)] for every identifier reference in src/."""
    refs: dict[str, list[tuple[str, int]]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            refs.setdefault(name, []).append((path.stem, node.lineno))
    return refs


def _script_words() -> set[str]:
    words: set[str] = set()
    for folder in ("bench", "demos"):
        for path in sorted((ROOT / folder).glob("*.py")):
            words.update(re.findall(r"\w+", path.read_text()))
    return words


def _uncalled():
    refs, words = _src_references(), _script_words()
    out = {}
    for mod, name, node in _public_defs():
        outside = [(m, line) for m, line in refs.get(name, [])
                   if not (m == mod and node.lineno <= line <= node.end_lineno)]
        if not outside and name not in words:
            out[name] = (mod, node)
    return out


def test_every_public_function_has_a_library_caller():
    check_only = {name for _, name, _ in CHECK_ONLY}
    dead = sorted(f"{mod}.{name}" for name, (mod, _) in _uncalled().items()
                  if name not in check_only)
    assert dead == [], f"public functions only tests call: {dead}"


def test_check_only_references_are_labelled_and_uncalled():
    uncalled = _uncalled()
    defs = {(mod, name): node for mod, name, node in _public_defs()}
    for mod, name, counterpart in CHECK_ONLY:
        assert (mod, name) in defs, f"{mod}.{name} no longer exists"
        # a check-only reference that gains a caller leaves this list
        assert name in uncalled, f"{mod}.{name} has a library caller"
        doc = ast.get_docstring(defs[(mod, name)]) or ""
        assert "check-only" in doc and counterpart in doc, \
            f"{mod}.{name} must say it is the check-only reference for {counterpart}"
        assert (mod, counterpart) in defs


def _slow_numpy_calls(source: str, name: str) -> list[str]:
    """Each ``np.unique(..., axis=...)`` and ``np.einsum`` call in the
    source, with the form to use instead."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        where = f"{name}:{node.lineno}"
        if node.func.attr == "einsum":
            out.append(f"{where}: np.einsum; use v @ M.T for one matrix, else a "
                       f"sum over the columns (GroupSpec._act_arr)")
        elif node.func.attr == "unique" and any(k.arg == "axis" for k in node.keywords):
            out.append(f"{where}: np.unique(..., axis=...); use lattice.unique_rows")
    return out


def test_no_slow_numpy_row_forms_in_src():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _slow_numpy_calls(path.read_text(), path.name)]
    assert found == [], "\n".join(found)


def test_slow_numpy_guard_sees_both_forms():
    source = ("import numpy as np\n"
              "np.unique(a, axis=0, return_inverse=True)\n"
              "np.unique(a)\n"
              "np.einsum('...ij,...j->...i', m, v)\n")
    hits = _slow_numpy_calls(source, "x.py")
    assert [h.split(":")[1] for h in hits] == ["2", "4"]
    assert "lattice.unique_rows" in hits[0] and "v @ M.T" in hits[1]
