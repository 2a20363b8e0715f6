"""Byte-identity of the CLI's JSON output on the fixture corpus.

The golden files under ``tests/fixtures/golden/`` hold the output of
``drtool.cli.main`` for each case below. A change meant to keep behaviour
must leave them byte for byte as they are. To record them again after a
change that is meant to alter the output, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from drtool.cli import main  # noqa: E402

from conftest import CORPUS, FIXTURES  # noqa: E402

GOLDEN = FIXTURES / "golden"
WALKS = FIXTURES / "walks"  # inputs whose witnesses are link walks


def golden_cases():
    """(golden file name, CLI argv) for every recorded output."""
    cases = [("corpus.json", ["corpus", str(CORPUS), "--json"])]
    for diagram in sorted((FIXTURES / "diagrams").glob("*.json")):
        # each diagram names its complex relative to the fixtures directory
        pres = FIXTURES / json.loads(diagram.read_text(encoding="utf-8"))["complex"]
        cases.append((
            f"verify_{diagram.stem}.json",
            ["diagram", "verify", str(diagram), "--complex", str(pres), "--json"],
        ))
    for pres in sorted(CORPUS.glob("*.pres")):
        cases.append((
            f"search_{pres.stem}.json",
            ["diagram", "search", str(pres), "--max-faces", "4", "--json"],
        ))
        # the weighted and zero/one angle paths of the presentation commands
        cases.append((
            f"coloringtest_{pres.stem}.json",
            ["complex", "coloringtest", str(pres), "--json"],
        ))
        cases.append((
            f"dr2_{pres.stem}.json",
            ["complex", "dr2", str(pres), "--weights", "1/2", "--json"],
        ))
    for path in sorted(p for p in CORPUS.iterdir() if p.suffix in (".lot", ".pres")):
        cases.append((
            f"analyze_{path.stem}.json",
            ["analyze", str(path), "--weights", "1/2", "--json"],
        ))
    # the boundary-reducible sub-LOTs, read off the sub-LOT listing
    for lot in sorted(CORPUS.glob("*.lot")):
        cases.append((
            f"hypothesis_{lot.stem}.json",
            ["lot", "check", str(lot), "--huck-rose-hypothesis", "--json"],
        ))
    # the least-weight walk witnesses: T(4) and weight-test cycles, WEIGHTED
    # paths and a condition-2 forest cycle
    for pres in sorted(WALKS.glob("*.pres")):
        for command, extra in (("c4t4", []), ("weighttest", ["--weights", "1/3"]),
                               ("dr2", ["--weights", "1/2"])):
            cases.append((
                f"walks_{command}_{pres.stem}.json",
                ["complex", command, str(pres), *extra, "--json"],
            ))
    # larger certificate trees: seeded reduced injective LOTs of 12-13 vertices
    for lot in sorted((FIXTURES / "lots").glob("*.lot")):
        cases.append((f"lots_decide_{lot.stem}.json", ["lot", "decide", str(lot), "--json"]))
        cases.append((f"lots_analyze_{lot.stem}.json", ["analyze", str(lot), "--json"]))
    cases.append((
        "walks_coloringtest_torus_zero.json",
        ["complex", "coloringtest", str(CORPUS / "torus.pres"),
         "--angles", str(WALKS / "torus_zero_angles.json"), "--json"],
    ))
    return cases


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name,argv", golden_cases(), ids=[n for n, _ in golden_cases()])
def test_output_matches_golden(name, argv):
    code, out = run_main(argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in golden_cases():
        code, out = run_main(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / name).write_text(out, encoding="utf-8")
        print(f"wrote {GOLDEN / name}")
