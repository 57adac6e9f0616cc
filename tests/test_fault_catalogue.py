"""The fault catalogue (tests/faults.json) stays applicable as the code
moves: each fault's old text occurs exactly once in its file, and each
test it names exists.  `python tools/run_faults.py` plants the faults and
runs those tests; that run is not part of this suite."""
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FAULTS = json.loads((ROOT / "tests" / "faults.json").read_text(encoding="utf-8"))


def test_catalogue_entries_are_well_formed():
    ids = [f["id"] for f in FAULTS]
    assert len(ids) == len(set(ids))
    for fault in FAULTS:
        assert set(fault) == {"id", "file", "old", "new", "tests", "origin"}, fault["id"]
        assert fault["old"] != fault["new"] and fault["tests"] and fault["origin"], fault["id"]


@pytest.mark.parametrize("fault", FAULTS, ids=[f["id"] for f in FAULTS])
def test_old_text_occurs_once(fault):
    assert (ROOT / fault["file"]).read_text(encoding="utf-8").count(fault["old"]) == 1


@pytest.mark.parametrize("fault", FAULTS, ids=[f["id"] for f in FAULTS])
def test_named_tests_exist(fault):
    for node in fault["tests"]:
        path, *names = re.sub(r"\[.*\]$", "", node).split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        for name in names:
            kind = "def" if name.startswith("test") else "class"
            assert re.search(rf"^\s*{kind} {name}\b", source, re.M), node
