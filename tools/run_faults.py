"""Run the fault catalogue, tests/faults.json.

Each fault names a file, a text in it and its faulty replacement, the
tests expected to catch it, and its origin: the change it was planted
against, as CHANGES.md describes it.  For each fault this script copies src/, tests/
and pyproject.toml into a temporary directory, plants the fault there, runs
the fault's tests with pytest, and prints `caught` (the tests failed),
`missed` (they passed) or `error` (pytest could not run them), with the
seconds taken.  The named tests are first run once on an unfaulted copy,
which must pass.  Nothing in the repository is written.

    python tools/run_faults.py              # every fault
    python tools/run_faults.py ID [ID ...]  # the named faults

Exit status: 0 when every fault run was caught, 1 otherwise, 2 when the
unfaulted copy fails its tests.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "tests" / "faults.json"
COPIED = ("src", "tests", "pyproject.toml")


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, dest / name)


def plant(tree: Path, fault: dict) -> None:
    path = tree / fault["file"]
    text = path.read_text(encoding="utf-8")
    if text.count(fault["old"]) != 1:
        raise SystemExit(f"{fault['id']}: its old text does not occur exactly once in {fault['file']}")
    path.write_text(text.replace(fault["old"], fault["new"]), encoding="utf-8")


def run_tests(tree: Path, tests: list[str]) -> int:
    """pytest's exit status on the given node ids, run inside the tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Plant each catalogued fault in a copy and run its tests.")
    parser.add_argument("ids", nargs="*", help="fault ids to run (default: all)")
    args = parser.parse_args(argv)
    faults = json.loads(CATALOGUE.read_text(encoding="utf-8"))
    if args.ids:
        unknown = set(args.ids) - {f["id"] for f in faults}
        if unknown:
            parser.error(f"unknown fault ids: {', '.join(sorted(unknown))}")
        faults = [f for f in faults if f["id"] in args.ids]
    with tempfile.TemporaryDirectory(prefix="hyperlab-faults-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        named = sorted({t for f in faults for t in f["tests"]})
        if run_tests(clean, named) != 0:
            print("the unfaulted copy fails the named tests; no fault was run")
            return 2
        caught = 0
        for fault in faults:
            tree = Path(tmp) / "faulty"
            shutil.copytree(clean, tree)
            plant(tree, fault)
            start = time.perf_counter()
            status = run_tests(tree, fault["tests"])
            seconds = time.perf_counter() - start
            shutil.rmtree(tree)
            outcome = {0: "missed", 1: "caught"}.get(status, "error")
            caught += outcome == "caught"
            print(f"{outcome:6} {seconds:6.1f}s  {fault['id']}", flush=True)
    print(f"caught {caught} of {len(faults)}")
    return 0 if caught == len(faults) else 1


if __name__ == "__main__":
    sys.exit(main())
