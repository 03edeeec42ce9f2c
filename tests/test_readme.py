"""README's Python example, run as a user would run it."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_example_runs_and_prints_its_comments():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
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
