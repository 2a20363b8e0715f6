"""An edited input file is read as valid input or refused as an input error,
never met with an internal fault: each run through ``cli.main`` exits 0, or
exits 1 with one ``error:`` line, and never exits 2 or lets an exception out.

Two derandomised properties.  Every leaf of each diagram fixture is replaced
by each value of ``LEAF_VALUES``, or deleted, and the file goes through
``diagram verify``.  ``TEXT_EDITS`` seeded token edits of the corpus files
(delete a token, insert or replace one from ``TOKENS``, or duplicate a line)
go through the commands that read their kind of file."""

import json
import random

from drtool.cli import main

from conftest import CORPUS, DELETE, DIAGRAM_FIXTURES, FIXTURES, edited

LEAF_VALUES = (None, True, 0, -1, 0.5, "", "x", [], {}, 10**9)

TOKENS = ("lot", "presentation", "vertex", "edge", "gens", "rel", "a", "b-", "z", "-",
          "a--", "e1", "#", "0", "é")
TEXT_EDITS = 200
# the commands each kind of corpus file goes through, its path appended
COMMANDS = {
    ".lot": (["analyze", "--json"], ["lot", "decide"], ["lot", "check", "--huck-rose-hypothesis"]),
    ".pres": (["analyze", "--json"], ["complex", "dr2"], ["complex", "c4t4"],
              ["complex", "coloringtest"], ["diagram", "search", "--max-faces", "3"]),
}


def run(capsys, argv):
    """``None`` when ``main(argv)`` exits 0, or exits 1 with one ``error:``
    line; else what it did instead."""
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:  # an escape is the failure sought
        capsys.readouterr()
        return f"raised {type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    if code == 0 or (code == 1 and err.startswith("error: ") and err.count("\n") == 1):
        return None
    return f"exit {code}: {err!r}"


def leaves(data, path=()):
    """The path of every leaf below ``data``, a JSON value."""
    if isinstance(data, (dict, list)) and data:
        items = data.items() if isinstance(data, dict) else enumerate(data)
        for key, value in items:
            yield from leaves(value, path + (key,))
    elif path:
        yield path


def test_every_leaf_edit_of_a_diagram_file_exits_zero_or_one(tmp_path, capsys):
    faults, edits = [], 0
    target = tmp_path / "diagram.json"
    for name in DIAGRAM_FIXTURES:
        data = json.loads((FIXTURES / "diagrams" / name).read_text(encoding="utf-8"))
        argv = ["diagram", "verify", str(target), "--complex", str(FIXTURES / data["complex"]),
                "--json"]
        for path in leaves(data):
            for value in LEAF_VALUES + (DELETE,):
                target.write_text(json.dumps(edited(data, path, value)), encoding="utf-8")
                edits += 1
                fault = run(capsys, argv)
                if fault:
                    faults.append((name, path, "delete" if value is DELETE else value, fault))
    assert edits == 77 * (len(LEAF_VALUES) + 1)  # 77 leaves
    assert faults == []


def text_edit(rng, text):
    """``text`` with one seeded token edit, and a description of it."""
    lines = text.split("\n")
    i = rng.randrange(len(lines))
    tokens = lines[i].split()
    kind = rng.choice(("delete", "insert", "replace", "duplicate"))
    if kind == "duplicate" or (kind != "insert" and not tokens):
        lines.insert(i, lines[i])
        return "\n".join(lines), f"duplicate line {i}"
    j = rng.randrange(len(tokens) + (kind == "insert"))
    if kind == "delete":
        token = tokens.pop(j)
    else:
        token = rng.choice(TOKENS)
        tokens[j:j + (kind == "replace")] = [token]
    lines[i] = " ".join(tokens)
    return "\n".join(lines), f"{kind} {token!r} at line {i} token {j}"


def test_seeded_token_edits_of_the_corpus_exit_zero_or_one(tmp_path, capsys):
    rng = random.Random(13)
    files = sorted(CORPUS.iterdir())
    faults, runs = [], 0
    for _ in range(TEXT_EDITS):
        source = rng.choice(files)
        text, edit = text_edit(rng, source.read_text(encoding="utf-8"))
        target = tmp_path / source.name
        target.write_text(text, encoding="utf-8")
        for command in COMMANDS[source.suffix]:
            runs += 1
            fault = run(capsys, [*command, str(target)])
            if fault:
                faults.append((source.name, edit, command, fault))
    assert runs > 4 * TEXT_EDITS
    assert faults == []
