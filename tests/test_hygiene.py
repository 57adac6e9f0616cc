"""Source hygiene: every name a library module imports at top level is
used in that module, no module imports another module's private names,
every command line option is read by its subcommand, every option of
`check` and `zphi` is read by some property, and only `verdicts` spells a
row status, so dead imports, options that change nothing and a second
status vocabulary cannot creep back in."""
import argparse
import ast
from pathlib import Path

import pytest

from hyperlab.cli import CHECK_PROPS, ZPHI_PROPS, build_parser

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
