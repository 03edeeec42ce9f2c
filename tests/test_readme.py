"""README's Python example and CLI lines, run as a user would run them."""
import json
import os
import re
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from mpmath import mp

from filtropt import cli, likelihood

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
CLI_LINES = [shlex.split(line, comments=True)[1:]
             for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S)
             for line in block.splitlines() if line.startswith("filtropt ")]
SCHEMA = {"cosets": "cosets", "lc": "lc", "analyze": "analyze", "prob": "prob",
          "enumerate": "experiment", "sample": "experiment"}


def test_readme_example_runs_and_prints_its_comments():
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    assert len(blocks) == 1
    code = blocks[0]
    # each print states its expected output as the first word of its comment
    expected = [m.group(1) for m in re.finditer(r"^print\(.*\)\s+# ([^\s,]+)", code, re.M)]
    assert expected == ["67675234241018881/72624976666034176", "63"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == expected


def test_readme_lists_every_subcommand():
    assert {argv[0] for argv in CLI_LINES} == set(SCHEMA)


@pytest.mark.parametrize("argv", CLI_LINES, ids=" ".join)
def test_readme_cli_line_exits_0_with_valid_json(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "keystream.txt").write_text("1001011 1001011\n")
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    schema = resources.files("filtropt").joinpath(f"schemas/{SCHEMA[argv[0]]}.schema.json")
    jsonschema.validate(json.loads(out), json.loads(schema.read_text()))


PROB_ROWS = re.findall(r"^\| `prob -L (\d+) -k (\d+)` \| ([\d.]+) \| ([\d.]+) \| ([\d.]+) \|$",
                       README, re.M)


@pytest.mark.parametrize("row", PROB_ROWS, ids=lambda row: f"L{row[0]}-k{row[1]}")
def test_readme_bound_table_matches_pr_report(row):
    L, k, *quoted = row
    report = likelihood.pr_report(int(L), int(k))
    values = (report.pr_float, report.bound_general, report.bound_asymptotic)
    assert [mp.nstr(v, len(q) - 2, strip_zeros=False) for v, q in zip(values, quoted)] == quoted


def test_readme_bound_claims_match_pr_report():
    assert len(PROB_ROWS) == 3
    flat = " ".join(README.split())
    assert ("~80 significant digits at L = 257, k = 128 (3.6 and 3.1 at L = 7, k = 3)"
            in flat)
    for L, k, places, quoted in ((257, 128, 0, (80, 80)), (7, 3, 1, (3.6, 3.1))):
        report = likelihood.pr_report(L, k, digits=100)
        pr = report.pr_float
        with mp.workdps(110):
            agreement = [-mp.log10(abs(pr - bound) / pr)
                         for bound in (report.bound_general, report.bound_asymptotic)]
        assert tuple(round(float(a), places) for a in agreement) == quoted
    assert "at L = 257, k = 128 the probability exceeds 0.998" in flat
    assert likelihood.pr_report(257, 128).pr_float > 0.998
