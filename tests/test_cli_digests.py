"""``tools/cli_digests.py``, the byte-identity check of the command-line
outputs, runs to completion.  It pins no digest: two checkouts' outputs are
compared by diffing what the script prints on each."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "cli_digests.py"


def test_cli_digests_runs_every_command():
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 102
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
