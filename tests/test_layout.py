"""Layout rules for src/.

Every public function of the library has a caller outside tests/.  A public
function counts as used when it is referenced in src/ outside its own
definition, or when a script under bench/ or demos/ references it in code: a
bare name, an attribute or an imported name.  A word in a string or a comment
is no caller, so neither printed text nor the tracer's name strings (such as
"periods.census") keep a function alive.  A reference to a top-level
function is an attribute ``x.name``, or a bare name in its own module or in
a module that imports it from there, so a same-named function of another
module does not hide it.  A public method (properties excluded)
is matched by name alone, since the type of its receiver is not known
without running the code.  The only exceptions are check-only references:
second implementations that tests compare a production function against,
each saying so in its docstring.  Conversely, a check-only reference has no
caller in src/, and every function whose docstring says "check-only" is
listed as one.

No numpy call in src/ takes a slow route to rows or matrix actions:
``np.unique(..., axis=...)`` sorts through a structured dtype, and
``np.einsum`` over gathered matrices loses to a matrix product or a column
sum.  No form of ``np.unique`` is called at all: the first call in a process
imports ``numpy.ma`` (over 10 ms with numpy 2.4), a cost that lands inside
whichever computation calls it first.  No 1-d window is read as a row of a
``sliding_window_view``, whose rows ``unique_rows`` would lexsort on one key
per cell: ``lattice.window_keys`` packs each window into a few integers.

No method in src/ is memoised by ``functools.lru_cache`` or
``functools.cache``: their cache lives on the class and keeps every instance
alive, so a method keeps its results on its instance
(``lattice.instance_cache``).  A module-level memo is allowed only for the
functions listed in ``MODULE_MEMOS``, each keyed by immutable values: a
result computed from arrays and cached for the life of the process would
keep serving after the arrays it read were replaced, so such a result is
kept on its construction (``measures.once_per_array``) instead.

Product grids come from ``lattice.product_grid``: ``np.meshgrid`` appears
only in lattice.py.

Box offsets are read through ``DomainChain.low(i)``, which also serves level
0: the stored field ``q1`` is indexed only in lattice.py.

Every deck takes one route: outside lattice.py, ``GroupSpec``,
``SubgroupChain``, ``DomainChain`` and ``Deck`` are constructed only inside
``decks.deck_from_config``, which builds the bundled decks from their
documents as it builds a deck file.

Candidates are put in search order in one place: outside lattice.py,
``lattice.search_order`` is called only inside
``independence.find_independence_set``, which takes candidates in any order,
so no caller orders them a second time.

Both layers, the group array and the 1-d sequence, store and read cells in
one format, defined once at the top of toeplitz.py (``CELL_FORMAT``):
``LEVEL_DTYPE`` and ``SYMBOL_DTYPE``, and the two no-symbol values
``UNDEFINED`` (an empty cell) and ``OUTSIDE`` (a cell the window or patch
does not hold).  No other module of src/, williams.py among them, assigns
these names, and ``np.uint8`` and ``np.int16`` are spelled only in the two
dtype definitions.  No bare negative literal fills a symbol array, as the
fill of ``np.full`` or ``np.full_like``, a branch of ``np.where`` or the
value of a subscript assignment: a no-symbol value is written by its name,
so -1 and -2 each keep one meaning.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "toeplitz_lab"

# (module, check-only function, the production function it is checked against)
CHECK_ONLY = (
    ("lattice", "mul", "mul_arr"),
    ("lattice", "inv", "inv_arr"),
    ("lattice", "search_key", "search_order"),
    ("williams", "symbol", "at"),
    ("toeplitz", "symbol_from_level", "symbol_table"),
)


def _is_property(node) -> bool:
    return any(isinstance(dec, ast.Name) and dec.id in ("property", "cached_property")
               for dec in node.decorator_list)


def _src_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _public_defs(trees):
    """(module, name, def node, is method) for public functions and methods
    in the parsed modules."""
    out = []
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                out.append((stem, node.name, node, False))
            elif isinstance(node, ast.ClassDef):
                out.extend((stem, sub.name, sub, True) for sub in node.body
                           if isinstance(sub, ast.FunctionDef)
                           and not _is_property(sub))
    return [d for d in out if not d[1].startswith("_")]


def _src_references(trees):
    """name -> [(module, line, home)] for every identifier reference in the
    parsed modules.  ``home`` is the module that a bare or imported name
    refers to: the module it was imported from, else its own.  It is None
    for an attribute."""
    refs: dict[str, list[tuple[str, int, str | None]]] = {}
    for stem, tree in trees.items():
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module]
        imported = {alias.asname or alias.name: node.module.rsplit(".", 1)[-1]
                    for node in imports for alias in node.names}
        found = [(alias.name, node.lineno, node.module.rsplit(".", 1)[-1])
                 for node in imports for alias in node.names]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.append((node.id, node.lineno, imported.get(node.id, stem)))
            elif isinstance(node, ast.Attribute):
                found.append((node.attr, node.lineno, None))
        for name, line, home in found:
            refs.setdefault(name, []).append((stem, line, home))
    return refs


def _code_names(source: str) -> set[str]:
    """The names a script's code references: bare names, attributes and
    imported names (each part of a dotted one).  Words inside strings and
    comments are not references."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
    return out


def _script_words() -> set[str]:
    words: set[str] = set()
    for folder in ("bench", "demos"):
        for path in sorted((ROOT / folder).glob("*.py")):
            words |= _code_names(path.read_text())
    return words


def _uncalled(trees, words):
    refs = _src_references(trees)
    out = {}
    for mod, name, node, method in _public_defs(trees):
        outside = [(m, line) for m, line, home in refs.get(name, [])
                   if not (m == mod and node.lineno <= line <= node.end_lineno)
                   and (method or home in (None, mod))]
        if not outside and name not in words:
            out[(mod, name)] = node
    return out


def test_script_callers_are_code_references():
    trees = {"a": ast.parse("def foo():\n    return 1\n")}
    printed = _code_names('print("the foo step")\nHOT = {"a.foo": None}  # foo\n')
    assert ("a", "foo") in _uncalled(trees, printed)
    for script in ("x.foo()\n", "from toeplitz_lab.a import foo\n",
                   "from toeplitz_lab.a import foo as bar\n", "f = foo\n"):
        assert _uncalled(trees, _code_names(script)) == {}, script


def test_every_public_function_has_a_library_caller():
    check_only = {(mod, name) for mod, name, _ in CHECK_ONLY}
    dead = sorted(f"{mod}.{name}" for mod, name in _uncalled(_src_trees(), _script_words())
                  if (mod, name) not in check_only)
    assert dead == [], f"public functions only tests call: {dead}"


def _check_only_faults(check_only, trees) -> list[str]:
    """Breaches of the check-only rules in the parsed modules: a listed
    function that is gone, has a caller in them (a check-only reference that
    production code calls is no longer independent: move the caller to the
    production function, or drop the entry), does not name its production
    counterpart, or whose counterpart is gone; and a function whose
    docstring says "check-only" but is not listed."""
    uncalled = _uncalled(trees, set())
    defs = {(mod, name): node for mod, name, node, _ in _public_defs(trees)}
    faults = []
    for mod, name, counterpart in check_only:
        if (mod, name) not in defs:
            faults.append(f"{mod}.{name} no longer exists")
            continue
        if (mod, name) not in uncalled:
            faults.append(f"{mod}.{name} is check-only but has a caller in src/")
        doc = ast.get_docstring(defs[(mod, name)]) or ""
        if not ("check-only" in doc and counterpart in doc):
            faults.append(f"{mod}.{name} must say it is the check-only reference "
                          f"for {counterpart}")
        if (mod, counterpart) not in defs:
            faults.append(f"{mod}.{counterpart} no longer exists")
    listed = {(mod, name) for mod, name, _ in check_only}
    faults += [f"{mod}.{name} says it is check-only but is not listed"
               for (mod, name), node in defs.items()
               if "check-only" in (ast.get_docstring(node) or "")
               and (mod, name) not in listed]
    return faults


def test_check_only_references_are_labelled_and_uncalled():
    assert _check_only_faults(CHECK_ONLY, _src_trees()) == []


def test_check_only_guard_sees_a_production_caller():
    modules = {
        "a": 'def slow(x):\n    """The check-only reference for fast."""\n    return x\n\n\n'
             'def fast(x):\n    return x\n',
        "b": "from . import a\n\n\ndef use():\n    return a.fast(1)\n",
    }
    listed = (("a", "slow", "fast"),)
    trees = {stem: ast.parse(text) for stem, text in modules.items()}
    assert _check_only_faults(listed, trees) == []
    assert _check_only_faults((), trees) == \
        ["a.slow says it is check-only but is not listed"]
    trees["b"] = ast.parse(modules["b"] + "\n\ndef drift():\n    return a.slow(2)\n")
    assert _check_only_faults(listed, trees) == \
        ["a.slow is check-only but has a caller in src/"]


def _slow_numpy_calls(source: str, name: str) -> list[str]:
    """Each ``np.unique``, ``np.einsum`` and ``sliding_window_view`` call in
    the source, with the form to use instead."""
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
        elif node.func.attr == "unique":
            out.append(f"{where}: np.unique imports numpy.ma on its first call; sort, "
                       f"or use np.bincount or lattice.unique_rows")
        elif node.func.attr == "sliding_window_view":
            out.append(f"{where}: sliding_window_view rows; use lattice.window_keys")
    return out


def test_no_slow_numpy_row_forms_in_src():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _slow_numpy_calls(path.read_text(), path.name)]
    assert found == [], "\n".join(found)


def test_slow_numpy_guard_sees_both_forms():
    source = ("import numpy as np\n"
              "np.unique(a, axis=0, return_inverse=True)\n"
              "np.unique(a)\n"
              "np.einsum('...ij,...j->...i', m, v)\n"
              "np.lib.stride_tricks.sliding_window_view(a, 5)\n")
    hits = _slow_numpy_calls(source, "x.py")
    assert [h.split(":")[1] for h in hits] == ["2", "3", "4", "5"]
    assert "lattice.unique_rows" in hits[0] and "numpy.ma" in hits[1]
    assert "v @ M.T" in hits[2] and "lattice.window_keys" in hits[3]


_CLASS_CACHES = ("lru_cache", "cache")


def _class_cached_methods(source: str, name: str) -> list[str]:
    """Each method in the source decorated by ``lru_cache`` or ``cache``,
    bare, called or reached as ``functools.<name>``."""
    out = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                word = getattr(target, "id", getattr(target, "attr", None))
                if word in _CLASS_CACHES:
                    out.append(f"{name}:{node.lineno}: {cls.name}.{node.name} is "
                               f"memoised on its class; use lattice.instance_cache")
    return out


def test_no_method_is_cached_on_its_class():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _class_cached_methods(path.read_text(), path.name)]
    assert found == [], "\n".join(found)


def test_class_cache_guard_sees_every_form():
    source = ("import functools\n"
              "from functools import cache, lru_cache\n"
              "@lru_cache(maxsize=None)\n"
              "def by_value(x): ...\n"
              "class A:\n"
              "    @lru_cache(maxsize=None)\n"
              "    def a(self): ...\n"
              "    @functools.lru_cache\n"
              "    def b(self): ...\n"
              "    @cache\n"
              "    def c(self): ...\n"
              "    @functools.cache\n"
              "    def d(self): ...\n"
              "    @property\n"
              "    def e(self): ...\n")
    hits = _class_cached_methods(source, "x.py")
    assert [h.split(":")[1] for h in hits] == ["7", "9", "11", "13"]
    assert all("lattice.instance_cache" in h for h in hits)


# module-level memos, each keyed by immutable values only
MODULE_MEMOS = (("decks", "construction"), ("decks", "bundled_deck"), ("lattice", "cube"))


def _module_memos(source: str, stem: str) -> list[tuple[str, str]]:
    """(module, function) for each top-level function in the source decorated
    by ``lru_cache`` or ``cache``, bare, called or reached as
    ``functools.<name>``."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if getattr(target, "id", getattr(target, "attr", None)) in _CLASS_CACHES:
                out.append((stem, node.name))
    return out


def test_module_level_memos_are_listed():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _module_memos(path.read_text(), path.stem)]
    assert [hit for hit in found if hit not in MODULE_MEMOS] == []


def test_module_memo_guard_sees_every_form():
    source = ("import functools\n"
              "from functools import cache, lru_cache\n"
              "@lru_cache(maxsize=None)\n"
              "def a(x): ...\n"
              "@functools.lru_cache\n"
              "def b(x): ...\n"
              "@cache\n"
              "def c(x): ...\n"
              "@functools.cache\n"
              "def d(x): ...\n"
              "@staticmethod\n"
              "def e(x): ...\n"
              "class A:\n"
              "    @lru_cache(maxsize=None)\n"
              "    def f(self): ...\n")
    assert _module_memos(source, "x") == [("x", "a"), ("x", "b"), ("x", "c"), ("x", "d")]


def test_meshgrid_only_in_lattice():
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             if path.name != "lattice.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "meshgrid"]
    assert found == [], f"np.meshgrid outside lattice.py (use lattice.product_grid): {found}"


def _q1_indexing(source: str, name: str) -> list[str]:
    """Each place in the source that indexes an attribute ``q1``."""
    return [f"{name}:{node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "q1"]


def test_q1_indexed_only_in_lattice():
    found = [hit for path in sorted(SRC.glob("*.py")) if path.name != "lattice.py"
             for hit in _q1_indexing(path.read_text(), path.name)]
    assert found == [], f"q1 indexed outside lattice.py (use DomainChain.low): {found}"


def test_q1_guard_sees_an_index():
    source = ("a = dom.q1[n - 1]\n"
              "b = dom.low(n)\n"
              "c = [list(row) for row in deck.domains.q1]\n"
              "d = cons.domains.q1[1][0]\n")
    assert _q1_indexing(source, "x.py") == ["x.py:1", "x.py:4"]


_DECK_TYPES = ("GroupSpec", "SubgroupChain", "DomainChain", "Deck")


def _deck_type_calls(source: str, stem: str) -> list[str]:
    """Each call of a deck type in the source outside
    ``decks.deck_from_config``, bare or reached as an attribute, by line."""
    tree = ast.parse(source)
    loader = {id(node) for top in tree.body
              if stem == "decks" and isinstance(top, ast.FunctionDef)
              and top.name == "deck_from_config" for node in ast.walk(top)}
    calls = [(node.lineno, name) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and id(node) not in loader
             and (name := getattr(node.func, "id", getattr(node.func, "attr", None)))
             in _DECK_TYPES]
    return [f"{stem}.py:{line}: {name}" for line, name in sorted(calls)]


def test_decks_are_built_only_by_deck_from_config():
    found = [hit for path in sorted(SRC.glob("*.py")) if path.name != "lattice.py"
             for hit in _deck_type_calls(path.read_text(), path.stem)]
    assert found == [], f"a deck type built outside decks.deck_from_config: {found}"


def test_deck_route_guard_sees_a_second_route():
    source = ("def deck_from_config(doc):\n"
              "    return Deck(GroupSpec(1, ((0,),), ((1,),)), lattice.DomainChain.auto(c))\n"
              "\n"
              "def builder():\n"
              "    return Deck(lattice.SubgroupChain(((5,),)))\n")
    assert _deck_type_calls(source, "decks") == \
        ["decks.py:5: Deck", "decks.py:5: SubgroupChain"]
    assert _deck_type_calls(source, "cli") == \
        ["cli.py:2: Deck", "cli.py:2: GroupSpec", "cli.py:5: Deck", "cli.py:5: SubgroupChain"]


def _search_order_calls(source: str, stem: str) -> list[str]:
    """Each call of ``search_order`` in the source outside
    ``independence.find_independence_set``, bare or reached as an attribute,
    by line."""
    tree = ast.parse(source)
    search = {id(node) for top in tree.body
              if stem == "independence" and isinstance(top, ast.FunctionDef)
              and top.name == "find_independence_set" for node in ast.walk(top)}
    return [f"{stem}.py:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in search
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "search_order"]


def test_candidates_are_ordered_only_by_the_search():
    found = [hit for path in sorted(SRC.glob("*.py")) if path.name != "lattice.py"
             for hit in _search_order_calls(path.read_text(), path.stem)]
    assert found == [], \
        f"search_order called outside independence.find_independence_set: {found}"


def test_search_order_guard_sees_a_second_caller():
    source = ("def find_independence_set(cylinders, target, oracle, candidates, spec):\n"
              "    order = search_order(*candidates)\n"
              "\n"
              "def g_candidates(spec, radius):\n"
              "    v, f = box_elements(cube(spec.rank, radius), spec.finite_order)\n"
              "    return v[lattice.search_order(v, f)], f\n")
    assert _search_order_calls(source, "independence") == ["independence.py:6"]
    assert _search_order_calls(source, "verify") == ["verify.py:2", "verify.py:6"]


# the cell format of both layers: name -> the numpy dtype it names, if any
CELL_FORMAT = {"LEVEL_DTYPE": "uint8", "SYMBOL_DTYPE": "int16",
               "UNDEFINED": None, "OUTSIDE": None}


def _cell_format_faults(trees) -> list[str]:
    """Breaches of the one cell format in the parsed modules: a name of
    ``CELL_FORMAT`` not assigned exactly once, at the top of toeplitz.py,
    and each ``np.uint8`` or ``np.int16`` outside the value of its dtype's
    definition there."""
    homes: dict[str, list[str]] = {name: [] for name in CELL_FORMAT}
    spelled, exempt = [], set()
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            names = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
            for name in set(names) & set(CELL_FORMAT):
                top = stem == "toeplitz" and node in tree.body
                homes[name].append("toeplitz" if top else f"{stem}.py:{node.lineno}")
                if top and getattr(node.value, "attr", None) == CELL_FORMAT[name]:
                    exempt.add(id(node.value))
            if isinstance(node, ast.Attribute) and node.attr in ("uint8", "int16"):
                spelled.append((stem, node))
    faults = [f"{name} is defined at {where}, not once at the top of toeplitz.py"
              for name, where in homes.items() if where != ["toeplitz"]]
    faults += [f"{stem}.py:{node.lineno}: np.{node.attr}; use toeplitz."
               f"{'LEVEL_DTYPE' if node.attr == 'uint8' else 'SYMBOL_DTYPE'}"
               for stem, node in spelled if id(node) not in exempt]
    return faults


def test_cell_format_is_defined_once_in_toeplitz():
    assert _cell_format_faults(_src_trees()) == []


def test_cell_format_guard_sees_a_second_home():
    home = ("import numpy as np\n"
            "LEVEL_DTYPE = np.uint8\n"
            "SYMBOL_DTYPE = np.int16\n"
            "UNDEFINED = -1\n"
            "OUTSIDE = -2\n")
    trees = {"toeplitz": ast.parse(home), "williams": ast.parse("from .toeplitz import OUTSIDE\n")}
    assert _cell_format_faults(trees) == []
    trees["toeplitz"] = ast.parse(home + "def level_array(N):\n"
                                  "    return np.ones(1, dtype=np.int16)\n")
    trees["williams"] = ast.parse("import numpy as np\n"
                                  "UNDEFINED = -1\n"
                                  "levels = np.zeros(3, dtype=np.uint8)\n")
    assert _cell_format_faults(trees) == [
        "UNDEFINED is defined at ['toeplitz', 'williams.py:2'], not once at the top "
        "of toeplitz.py",
        "toeplitz.py:7: np.int16; use toeplitz.SYMBOL_DTYPE",
        "williams.py:3: np.uint8; use toeplitz.LEVEL_DTYPE"]
    trees = {"toeplitz": ast.parse(home.replace("OUTSIDE = -2\n", "")),
             "periods": ast.parse("def f():\n    OUTSIDE = -2\n")}
    assert _cell_format_faults(trees) == \
        ["OUTSIDE is defined at ['periods.py:2'], not once at the top of toeplitz.py"]


def _is_negative_literal(node) -> bool:
    return isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) \
        and isinstance(node.operand, ast.Constant)


def _negative_fills(source: str, name: str) -> list[str]:
    """Each bare negative literal in the source that fills an array: the fill
    of ``np.full`` or ``np.full_like``, a branch of ``np.where``, or the value
    of a subscript assignment."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        fills = []
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            word = node.func.attr
            if word in ("full", "full_like"):
                fills = node.args[1:2] + [k.value for k in node.keywords
                                         if k.arg == "fill_value"]
            elif word == "where":
                fills = node.args[1:3]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Subscript) for t in node.targets):
            fills = [node.value]
        lines += [node.lineno for fill in fills if _is_negative_literal(fill)]
    return [f"{name}:{line}" for line in sorted(lines)]


def test_no_bare_negative_literal_fills_a_symbol_array():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _negative_fills(path.read_text(), path.name)]
    assert found == [], f"a bare negative fill (use toeplitz.UNDEFINED or OUTSIDE): {found}"


def test_negative_fill_guard_sees_every_form():
    source = ("out = np.full(3, -1, dtype=SYMBOL_DTYPE)\n"
              "ring = np.full_like(a, fill_value=-2)\n"
              "codes = np.where(agree, own, -1)\n"
              "codes[1:] = -1\n"
              "ok = np.full(3, OUTSIDE, dtype=SYMBOL_DTYPE)\n"
              "ok = np.where(agree, own, UNDEFINED)\n"
              "step = -1\n"
              "keys = range(n - 1, -1, -1)\n")
    assert _negative_fills(source, "x.py") == ["x.py:1", "x.py:2", "x.py:3", "x.py:4"]
