"""Source hygiene: every name a library module imports at top level is
used in that module, no module imports another module's private names,
every command line option is read by its subcommand, every option of
`check` and `zphi` is read by some property, only `verdicts` spells a
row status, only `core` touches a ring's cache, and a theorem check's
gated rows come only from its declared premises, so dead imports, options
that change nothing, a second status vocabulary, hand-rolled memos and
hand-written gates cannot creep back in."""
import argparse
import ast
from pathlib import Path

import pytest

from hyperlab.cli import CHECK_PROPS, ZPHI_PROPS, build_parser
from hyperlab.harness import IDEAL_CHECKS, Premise

SRC = Path(__file__).resolve().parents[1] / "src" / "hyperlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_imports_are_top_level():
    """Every import of a library module sits at its top level, where the
    unused-import scan sees it."""
    nested = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        nested += [
            f"{path.name}:{node.lineno}"
            for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node is not top
        ]
    assert nested == []


def test_no_private_cross_module_imports():
    """A `_`-prefixed name is private to its module: no other hyperlab
    module imports it."""
    private = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("hyperlab")):
                private += [f"{path.stem} <- {node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []


STATUSES = {"holds", "fails", "inconclusive", "skipped", "error"}


def test_status_literals_live_in_verdicts():
    """A row status is written as a string only in verdicts.py; every other
    module names it through the constants there."""
    found = [
        f"{path.name}:{node.lineno} {node.value!r}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "verdicts.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and node.value in STATUSES
    ]
    assert found == []


def test_only_core_touches_the_ring_cache():
    """Per-ring memos go through `FiniteHyperring.memo`: no module but
    core.py reads or writes `._cache`."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "_cache"
    ]
    assert found == []


UNGATED = ["uv-arity-monotone", "uv-prime-implies-uv-primary"]


def test_every_ideal_check_exposes_its_premises():
    assert all(
        isinstance(check.premises, tuple) and all(isinstance(p, Premise) for p in check.premises)
        for _, check in IDEAL_CHECKS
    )
    assert [prop for prop, check in IDEAL_CHECKS if not check.premises] == UNGATED


def _premise_texts() -> set[str]:
    return {text for _, check in IDEAL_CHECKS for p in check.premises for text in (p.space, p.reason) if text}


def _is_gate_text(node: ast.AST, texts: set[str]) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and (
        node.value in texts or node.value.startswith("gated on")
    )


def test_gated_rows_come_only_from_premises():
    """The text of an unmet premise's row, and any "gated on" text, appears
    in harness.py only where a premise is declared: a module-level
    `Premise` or a check's decorator."""
    tree = ast.parse((SRC / "harness.py").read_text())
    declared = set()
    for top in tree.body:
        if isinstance(top, ast.Assign) and getattr(getattr(top.value, "func", None), "id", None) == "Premise":
            declared |= {id(node) for node in ast.walk(top)}
        elif isinstance(top, ast.FunctionDef):
            declared |= {id(node) for deco in top.decorator_list for node in ast.walk(deco)}
    texts = _premise_texts()
    stray = [
        f"harness.py:{node.lineno} {node.value!r}"
        for node in ast.walk(tree)
        if _is_gate_text(node, texts) and id(node) not in declared
    ]
    assert stray == []


def _writes_gated_row(node: ast.AST) -> bool:
    """A call `holds(..., tested=0)` or `holds(space, 0)`."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "holds"):
        return False
    tested = [k.value for k in node.keywords if k.arg == "tested"] + node.args[1:2]
    return any(isinstance(t, ast.Constant) and t.value == 0 for t in tested)


def test_no_conclusion_writes_a_gated_row():
    """A check's conclusion, its body after the premises, writes no gated
    `holds` by hand, whatever its text."""
    functions = {
        node.name: node for node in ast.parse((SRC / "harness.py").read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    by_hand = [
        f"{check.__wrapped__.__name__}:{node.lineno}"
        for _, check in IDEAL_CHECKS
        for stmt in functions[check.__wrapped__.__name__].body
        for node in ast.walk(stmt)
        if _writes_gated_row(node)
    ]
    assert by_hand == []


def args_reads(functions: dict[str, ast.FunctionDef], name: str, position: int = 0) -> set[str]:
    """Attributes read off the parameter at `position` of the module
    function `name`, in its body or in a module function it passes that
    parameter on to."""
    fn = functions[name]
    param = fn.args.args[position].arg
    reads = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == param:
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in functions:
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Name) and arg.id == param and node.func.id != name:
                    reads |= args_reads(functions, node.func.id, i)
    return reads


def subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def option_dests(parser: argparse.ArgumentParser) -> set[str]:
    return {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}


def test_every_cli_option_is_read_by_its_handler():
    tree = ast.parse((SRC / "cli.py").read_text())
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    unread = {}
    for command, parser in subcommands().items():
        dests = option_dests(parser)
        missing = dests - args_reads(functions, parser.get_default("fn").__name__)
        if missing:
            unread[command] = sorted(missing)
    assert unread == {}


# options every property of a subcommand reads
COMMON = {"ring", "prop", "json", "out"}


@pytest.mark.parametrize("command,table", [("check", CHECK_PROPS), ("zphi", ZPHI_PROPS)])
def test_property_tables_cover_the_options(command, table):
    """A property table names exactly the --prop choices, only options
    the subcommand has, and every option that is not common."""
    parser = subcommands()[command]
    prop = next(a for a in parser._actions if a.dest == "prop")
    assert set(table) == set(prop.choices)
    assert set().union(*table.values()) == option_dests(parser) - COMMON
