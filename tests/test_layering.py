"""The layer map of ROADMAP item 6, asserted on the import graph.

The paper's first contribution is "strict separation of generic vs.
domain-specific code in every tier".  Every ``import`` statement of every
module under ``src/repro`` is read from its AST, at any scope, so a lazy
import inside a function counts like one at the top.  A generic module may
name a domain module only if the pair is in :data:`ALLOWED`, which lists
today's sites and can only shrink: a new pair fails, and so does a listed
pair that no longer exists.
"""

import ast
import sys
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent

GENERIC = {
    "metadb", "shard", "repl", "cache", "resil", "obs", "filestore", "fits",
    "wavelets", "security", "schema.generic", "dm", "pl", "idl", "web",
    "streamcorder",
}
#: ``schema`` is the package whose ``__init__`` installs the RHESSI tables
#: next to the generic ones: naming it names the domain schema.
DOMAIN = {"rhessi", "analysis", "schema", "schema.rhessi_schema", "idl.ssw", "synoptic"}
ASSEMBLY = {"core"}

#: (generic module, domain layer) pairs that exist today.  Each is work
#: left for ROADMAP item 6's domain interface; none may be added.
ALLOWED = {
    ("dm.dm", "schema"),
    ("dm.process", "rhessi"),
    ("dm.semantic", "analysis"),
    ("idl", "idl.ssw"),
    ("idl.server", "idl.ssw"),
    ("idl.server", "rhessi"),
    ("pl.animation", "analysis"),
    ("pl.manager", "rhessi"),
    ("pl.product_cache", "analysis"),
    ("pl.requests", "analysis"),
    ("pl.requests", "rhessi"),
    ("pl.routines", "analysis"),
    ("streamcorder.client", "analysis"),
    ("streamcorder.client", "rhessi"),
    ("streamcorder.cordlets", "analysis"),
    ("streamcorder.cordlets", "rhessi"),
    ("web.servlets", "analysis"),
}


def layer_of(module: str):
    """The most specific layer ``module`` (dotted, below ``repro``) is in."""
    parts = module.split(".")
    for length in range(len(parts), 0, -1):
        name = ".".join(parts[:length])
        if name in GENERIC | DOMAIN | ASSEMBLY:
            return name
    return None


def imports_of(path: Path):
    """``(imported dotted name below repro, at module scope?)`` for every
    import statement in the file; ``from x import a`` yields ``x.a``, so a
    submodule imported by name is seen as itself."""
    package = list(path.relative_to(ROOT).parts[:-1])
    tree = ast.parse(path.read_text())
    nested = {
        id(node)
        for scope in ast.walk(tree)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(scope)
    }
    for node in ast.walk(tree):
        top = id(node) not in nested
        if isinstance(node, ast.ImportFrom):
            named = node.module.split(".") if node.module else []
            if node.level:
                stem = package[: len(package) - node.level + 1] + named
            elif named[:1] == ["repro"]:
                stem = named[1:]
            else:
                continue
            for alias in node.names:
                yield ".".join(stem + [alias.name]), top
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro."):
                    yield alias.name[len("repro."):], top


def modules():
    for path in sorted(ROOT.rglob("*.py")):
        relative = path.relative_to(ROOT).with_suffix("")
        parts = [part for part in relative.parts if part != "__init__"]
        if parts:
            yield ".".join(parts), path


def test_every_package_is_on_the_map():
    unmapped = {name.split(".")[0] for name, _path in modules()
                if layer_of(name) is None}
    # Models, plotting and the simulation kit sit beside the tiers: they
    # serve the evaluation, no tier is built on them.
    assert unmapped == {"evalmodel", "simkit", "viz"}


def test_generic_modules_name_the_domain_only_where_listed():
    found = set()
    for name, path in modules():
        if layer_of(name) not in GENERIC:
            continue
        for target, _top in imports_of(path):
            if layer_of(target) in DOMAIN:
                found.add((name, layer_of(target)))
    assert found - ALLOWED == set(), "a generic module gained a domain import"
    assert ALLOWED - found == set(), "a listed pair is gone: delete it from ALLOWED"


def test_obs_imports_no_tier_at_module_scope():
    """Every tier imports ``obs``; ``obs`` reaches back (the health
    servlet's HTTP types, the WAL handle count) only inside functions, so
    importing it can never start an import cycle."""
    offenders = [
        (name, target)
        for name, path in modules() if layer_of(name) == "obs"
        for target, top in imports_of(path)
        if top and target.split(".")[0] != "obs"
    ]
    assert offenders == []


def string_constants(path: Path) -> set[str]:
    return {node.value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_the_data_tier_and_the_generic_schema_name_no_domain_table():
    """What the import check cannot see: a table named in a string.  The
    shard, replication and database packages and the generic schema learn
    a project's tables, and where their rows go, from the schemas they
    are handed; the domain schema in turn names no location table."""
    from repro.schema import GENERIC_SCHEMAS, RHESSI_SCHEMAS

    domain_tables = {factory().name for factory in RHESSI_SCHEMAS}
    location_tables = {factory().name for factory in GENERIC_SCHEMAS
                       if factory().name.startswith("loc_")}
    generic = [path for package in ("shard", "repl", "metadb")
               for path in sorted((ROOT / package).rglob("*.py"))]
    generic.append(ROOT / "schema" / "generic.py")
    assert len(generic) > 20 and len(domain_tables) == 7
    named = {(path.relative_to(ROOT).as_posix(), name)
             for path in generic
             for name in string_constants(path) & domain_tables}
    assert named == set()
    assert string_constants(ROOT / "schema" / "rhessi_schema.py") \
        & location_tables == set()


def test_the_data_tier_imports_only_the_standard_library_and_repro():
    """``repro.metadb`` is one row-store executor: every module it holds
    imports the standard library and ``repro``, no third-party package."""
    third_party = set()
    for name, path in modules():
        if layer_of(name) != "metadb":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [node.module.split(".")[0]]
            else:
                continue
            third_party |= {(name, root) for root in roots
                            if root != "repro" and root not in sys.stdlib_module_names}
    assert third_party == set()
