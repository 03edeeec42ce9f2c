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

from filtropt import cli

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
