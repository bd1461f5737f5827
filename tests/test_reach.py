"""Every top-level name in ``src/tropdimer`` is reached by the program or
kept by a named acceptance test or paper claim.

A name is reached when a root refers to it, directly or through other
reached names.  The roots are ``scripts/`` and ``perfbench/`` in full, the
statements of each package module that are not top-level definitions
(they run on import), and the entries of ``ALLOWED``.  References are read
from the AST and resolved to the module that defines them: a bare name
defined in its own module or bound by an import, and an attribute of a
package module's alias.  So a docstring that names a function does not
reach it, and ``json.load`` does not reach ``catalog.load``.  A local that
shadows a top-level name of its module counts as a reference to it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tropdimer"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

# the top-level names that nothing in src/, scripts/ or perfbench/ reaches,
# each with the acceptance test or paper claim that keeps it
ALLOWED = {
    "__init__.__version__": "the package's version string, read by packaging tools",
    "almost_toric.Chart": "test_acceptance criterion 10: tropical Lagrangian sections glue",
    "almost_toric.validate_section": "test_acceptance criterion 10: tropical Lagrangian "
                                     "sections glue",
    "almost_toric.curves_equal": "test_acceptance criterion 09: the nodal-trade exchange",
    "catalog.load": "the seed potential tropicalizes to the inner torus, read from the "
                    "stored catalog (test_almost_toric)",
    "io.canonicalize": "the canonical dimer that a serialize/parse round trip returns "
                       "(test_properties, test_io)",
    "kasteleyn.boltzmann_monomial": "test_acceptance criterion 06: the matching oracle of "
                                    "the partition function",
    "lattice.dilate": "test_acceptance criterion 08: the genus of a dilated triangle",
    "lattice.unit_triangle": "test_acceptance criterion 08: the genus of a dilated triangle",
    "tropical.dual_function": "test_acceptance criterion 02: the dual function's locus is the fan",
    "tropical.fan_equal": "test_acceptance criteria 02 and 05: fans agree, before and after "
                          "a mutation",
    "tropical.genus_of": "test_acceptance criterion 08: the genus of a tropical curve",
    "tropical.nonlinearity_locus": "test_acceptance criterion 02: the dual function's locus "
                                   "is the fan",
}


def _source(node: ast.ImportFrom, own):
    """The package module an import reads from, "" for the package itself,
    None for anything outside it; ``own`` is the importing package module."""
    if node.level == 1 and own is not None:
        return node.module or ""
    if node.level == 0 and node.module == "tropdimer":
        return ""
    if node.level == 0 and (node.module or "").startswith("tropdimer."):
        return node.module.split(".", 1)[1]
    return None


class Source:
    """One file's top-level definitions and the bindings its imports make:
    ``aliases`` maps a local name to a package module, ``imported`` to the
    (module, name) it stands for."""

    def __init__(self, path: pathlib.Path, own=None):
        self.tree, self.own = ast.parse(path.read_text()), own
        self.defs, self.aliases, self.imported = {}, {}, {}
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    self.defs[name.id] = node
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom) and (source := _source(node, own)) is not None:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if not source and alias.name in MODULES:
                        self.aliases[local] = alias.name
                    elif source:
                        self.imported[local] = (source, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    head, _, module = alias.name.partition(".")
                    if head == "tropdimer" and module in MODULES and alias.asname:
                        self.aliases[alias.asname] = module

    def references(self, node) -> set:
        """The (module, name) pairs that the subtree refers to."""
        out = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                if n.id in self.imported:
                    out.add(self.imported[n.id])
                elif self.own is not None and n.id in self.defs:
                    out.add((self.own, n.id))
            elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                  and n.value.id in self.aliases):
                out.add((self.aliases[n.value.id], n.attr))
        return out


def scan():
    """(defined, program roots, deps): every package module's top-level
    (module, name) pairs, the pairs that scripts/, perfbench/ and the
    package's import-time statements refer to, and what each pair's
    definition refers to."""
    package = {path.stem: Source(path, path.stem) for path in sorted(PACKAGE.glob("*.py"))}
    roots, deps = set(), {}
    for module, source in package.items():
        for name, node in source.defs.items():
            deps[module, name] = source.references(node)
        definitions = {id(node) for node in source.defs.values()}
        for node in source.tree.body:
            if id(node) not in definitions:
                roots |= source.references(node)
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            source = Source(path)
            roots |= source.references(source.tree)

    def resolve(module, name):  # follow a name that a module imports from another
        while module in package and name in package[module].imported.keys() - package[module].defs:
            module, name = package[module].imported[name]
        return module, name

    deps = {key: {resolve(*k) for k in refs} for key, refs in deps.items()}
    return set(deps), {resolve(*k) for k in roots}, deps


def reached(roots, deps) -> set:
    seen, stack = set(), list(roots)
    while stack:
        key = stack.pop()
        if key in deps and key not in seen:
            seen.add(key)
            stack += deps[key]
    return seen


ALLOWED_KEYS = {tuple(entry.split(".", 1)) for entry in ALLOWED}


def test_every_top_level_name_is_reached_or_allowed():
    defined, roots, deps = scan()
    unreached = defined - reached(roots | ALLOWED_KEYS, deps)
    assert not unreached, sorted(".".join(key) for key in unreached)


def test_every_allowed_name_is_defined_and_unreached_without_the_list():
    """An entry that the program reaches, or that names nothing, is stale."""
    defined, roots, deps = scan()
    assert ALLOWED_KEYS <= defined, sorted(ALLOWED_KEYS - defined)
    stale = ALLOWED_KEYS & reached(roots, deps)
    assert not stale, sorted(".".join(key) for key in stale)
