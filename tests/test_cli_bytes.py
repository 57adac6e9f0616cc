"""Byte pin of the command line output: every subcommand and every
`--prop` of `check` and `zphi`, in JSON and in human format, plus the
README's CLI block.  The per-field tests in test_harness_cli.py check a
few keys of these rows; this pins every byte of every row, the summary
line and the exit code, so a change to how rows are built shows here."""
import hashlib
import json

from hyperlab.cli import classify_cli

# a well-formed table whose product is not weakly distributive,
# (0+0)∘0 = {1} against 0∘0 + 0∘0 = {0}: its axioms row fails
NOT_DISTRIBUTIVE = {
    "name": "bad2",
    "n": 2,
    "add": [[0, 1], [1, 0]],
    "hmul": [[[1], [0]], [[0], [0]]],
}

INVOCATIONS = [
    ("validate", "--ring", "z6:2,3"),
    ("validate", "--ring", "{table}"),
    ("ideals", "--ring", "z6:2,3"),
    ("check", "--ring", "z6:1,5", "--prop", "prime", "--ideal", "0"),
    ("check", "--ring", "z8:1,3", "--prop", "primary", "--ideal", "0,4"),
    ("check", "--ring", "z8:1,3", "--prop", "c", "--ideal", "0,4"),
    ("check", "--ring", "z8:1,3", "--prop", "strong-c", "--ideal", "0,4"),
    ("check", "--ring", "z6:1,5", "--prop", "uv-primary", "--ideal", "0", "--u", "3", "--v", "1"),
    ("check", "--ring", "z6:1,5", "--prop", "uv-primary", "--ideal", "0", "--u", "3", "--v", "1",
     "--mode", "all", "--replay", "3,2,2"),
    ("check", "--ring", "z6:1,5", "--prop", "uv-primary", "--ideal", "0", "--u", "3", "--v", "1",
     "--replay", "2,3,4"),
    ("check", "--ring", "z6:1,5", "--prop", "uv-prime", "--ideal", "0", "--u", "3", "--v", "2"),
    ("check", "--ring", "z6:1,5", "--prop", "uv-prime", "--ideal", "0", "--u", "3", "--v", "2",
     "--replay", "2,3,4"),
    ("check", "--ring", "z8:1,3", "--prop", "uv-i-primary", "--ideal", "0,4", "--u", "3", "--v", "2",
     "--aux-ideal", "0"),
    ("check", "--ring", "z8:1,3", "--prop", "1-absorbing-primary", "--ideal", "0,4"),
    ("check", "--ring", "z8:1,3", "--prop", "divided"),
    ("sweep", "--moduli", "2..4", "--phi-sizes", "2"),
    ("sweep", "--moduli", "6", "--phi-sizes", "2", "--mode", "any", "--no-constructions"),
    ("zphi", "--prop", "uv-primary", "--d", "12", "--u", "3", "--v", "2", "--window", "4"),
    ("zphi", "--prop", "uv-primary", "--d", "12", "--u", "4", "--v", "2", "--window", "1000"),
    ("zphi", "--prop", "uv-prime", "--d", "12", "--u", "4", "--v", "2", "--window", "10"),
    ("zphi", "--prop", "uv-prime", "--phi", "2,4", "--d", "105", "--u", "3", "--v", "2",
     "--replay", "3,5,7", "--mode", "all"),
    ("zphi", "--prop", "membership", "--factors", "2,2", "--d", "12"),
    ("zphi", "--prop", "radical", "--d", "12", "--a", "6"),
    # the README's CLI block; its sweep line runs the default family, here
    # the moduli 2..5 slice to keep the test to seconds
    ("validate", "--ring", "z8:1,3"),
    ("ideals", "--ring", "z8:1,3", "--json"),
    ("check", "--ring", "z8:1,3", "--prop", "prime", "--ideal", "0,2,4,6"),
    ("check", "--ring", "z6:1,5", "--prop", "uv-primary", "--ideal", "0", "--u", "3", "--v", "1", "--mode", "all"),
    ("zphi", "--prop", "product", "--factors", "2,2,3"),
    ("zphi", "--prop", "uv-primary", "--d", "12", "--u", "3", "--v", "2", "--window", "10"),
    ("zphi", "--prop", "uv-primary", "--d", "12", "--u", "3", "--v", "2", "--replay", "2,2,3"),
    ("zphi", "--prop", "intersection", "--d-list", "3,5,7"),
    ("golden",),
    ("sweep", "--moduli", "2..5", "--phi-sizes", "2,3", "--out", "{out}"),
]

# sha256 over every invocation above, each run plain and with --json: the
# arguments, the exit code, stdout, and the --out file's body
CLI_DIGEST = "ca83c0107178f56b307911c8592bdb2637a3d32c19c21887c20dc9313bbd7990"


def transcript(tmp_path, capsys) -> str:
    table = tmp_path / "table.json"
    table.write_text(json.dumps(NOT_DISTRIBUTIVE))
    out = tmp_path / "out.txt"
    parts = []
    for argv in INVOCATIONS:
        for extra in ((), ("--json",)) if "--json" not in argv else ((),):
            args = [a.format(table=table, out=out) for a in argv + extra]
            code = classify_cli(args)
            body = out.read_text() if out.exists() else ""
            out.unlink(missing_ok=True)
            parts.append(f"{' '.join(argv + extra)}\n{code}\n{capsys.readouterr().out}{body}")
    return "".join(parts)


def test_cli_output_is_pinned(tmp_path, capsys):
    text = transcript(tmp_path, capsys)
    assert hashlib.sha256(text.encode()).hexdigest() == CLI_DIGEST
