"""Every public function, class and method of the package is used by the package.

The scan reads src/charpow with ast.  A module-level function or class
counts as used where another part of the package reads its name; a method
where it is called, x.name(...); a property where x.name is read.  Uses
inside the definition itself do not count, nor do the re-exports of
__init__.py.  Names are matched without types, so a dead method can hide
behind a live one of the same name; a method that is only passed around
uncalled would need an entry below.

A second scan finds every functools cache of the package, fails on one that
states no bound or that the README's cache table does not list, and a child
under python -O checks that the input checks raise there too.
"""

import ast
import itertools
import os
import subprocess
import sys
from pathlib import Path

import charpow

SRC = Path(charpow.__file__).parent

# Concepts of the paper that a library user calls and the package does not.
ALLOWED = {
    "isogeny.sigma_solve": "the conjugator of the stabilizer action between two sections",
    "isogeny.kernel": "ker(phi) as a subgroup; a section's isogeny at H has kernel H",
    "isogeny.compose": "the product of the isogeny monoid; kernel orders multiply",
    "classfn.aut_act": "the GL_n(Z_p) action on class functions whose invariants HKR's map reaches",
    "classfn.indicator": "the class function supported on one tuple class",
    "classfn.TransferIdeal.contains": "membership of a class function in the transfer ideal",
    "classfn.C0Element.sub": "subtraction in the coefficient ring C_0",
    "classfn.to_json_dict": "a class function as one JSON object, read back by from_json_dict",
    "lattice.snf": "elementary divisors, the isomorphism type of an isogeny's kernel",
    "lattice.LatticeBasis.index": "[Z^n : Lambda_H] = |H| for an annihilator lattice",
}


def _scan():
    """(definitions, uses): definitions as (qualified name, kind); uses as (kind, name, site)."""
    defs, uses = [], []

    def visit(node, module, scope):
        """scope: the qualified names of the enclosing definitions, outermost first."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                qual = f"{scope[-1] if scope else module}.{child.name}"
                in_class = isinstance(node, ast.ClassDef)
                if not child.name.startswith("_") and (not scope or in_class):
                    decorators = {getattr(d, "id", None) for d in child.decorator_list}
                    if not in_class:
                        kind = "name"
                    elif decorators & {"property", "cached_property"}:
                        kind = "attribute"
                    else:
                        kind = "call"
                    defs.append((qual, kind))
                visit(child, module, scope + (qual,))
                continue
            if isinstance(child, ast.Name):
                uses.append(("name", child.id, scope))
            elif isinstance(child, ast.Attribute):
                uses.append(("attribute", child.attr, scope))
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                uses.append(("call", child.func.attr, scope))
            visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return defs, uses


def _unused():
    defs, uses = _scan()
    unused = []
    for qual, kind in defs:
        name = qual.rsplit(".", 1)[1]
        if not any(k == kind and n == name and qual not in site for k, n, site in uses):
            unused.append(qual)
    return unused


def test_every_public_name_is_used_in_the_package():
    unused = [q for q in _unused() if q not in ALLOWED]
    assert unused == [], f"public names that nothing in src/charpow uses: {unused}"


def test_allowlist_names_only_unused_definitions():
    # an allowed name that the package starts to use, or that is deleted, leaves the list
    assert sorted(ALLOWED) == sorted(q for q in _unused() if q in ALLOWED)


def _cache_walk():
    """(caches, unbounded): every function in src/charpow under a functools cache
    decorator, as module.name, and the sites of lru_cache(maxsize=None),
    lru_cache(None), a bare @lru_cache or @cache.

    @cache has no bound, and a bare @lru_cache hides its default of 128.
    """

    def name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    caches, unbounded = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            decorators = getattr(node, "decorator_list", [])
            if any(name(getattr(d, "func", d)) in ("lru_cache", "cache") for d in decorators):
                caches.append(f"{path.stem}.{node.name}")
            if any(name(d) in ("lru_cache", "cache") for d in decorators):
                unbounded.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.Call) and name(node.func) == "lru_cache":
                bound = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
                if any(isinstance(b, ast.Constant) and b.value is None for b in bound):
                    unbounded.append(f"{path.stem}:{node.lineno}")
    return caches, unbounded


def test_every_cache_has_a_bound():
    # an unbounded cache grows for the life of the process
    assert _cache_walk()[1] == []


def test_readme_cache_table_names_every_cache():
    # the README's table has one row per cache, and names no cache that is gone
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("| cache | holds | bound |") + 2  # past the header's rule
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    named = [row.split("|")[1].strip().strip("`") for row in rows]
    caches = _cache_walk()[0]
    assert caches
    assert sorted(named) == sorted(caches)


# Each input check that an assert would lose under python -O, and the error it raises.
_UNDER_O = """
import sys
import charpow.fgl as fgl
from charpow.lattice import PAdicMatrix


def honda_with_a_wrong_exp():
    fgl.series_reversion = lambda s: s  # log . log is not x
    fgl.build_honda_rational(2, 1, 4)


q2 = fgl.RationalCoefficients(2)
x = fgl.TruncatedPoly.var(q2, 1, 4, 0)
calls = [
    lambda: fgl.series_reversion(x.add(x).add(x.mul(x))),
    lambda: x.substitute([x, x]),
    lambda: PAdicMatrix(2, ((1,),)).mul(PAdicMatrix(3, ((1,),))),
    honda_with_a_wrong_exp,
]
print(sys.flags.optimize)
for call in calls:
    try:
        call()
        print("returned")
    except Exception as exc:
        print(f"{type(exc).__name__}: {exc}")
"""


def test_input_checks_raise_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.splitlines() == [
        "1",
        "ValueError: s(0) = 0 and linear coefficient 2: reversion needs 0 and 1",
        "ValueError: 2 arguments for a series in 1 variables",
        "LevelMismatchError: prime mismatch",
        "NonIntegralCoefficientError: honda exp is not inverse to log",
    ]
