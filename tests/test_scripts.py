"""The scripts under tests/ that pytest does not collect still run: each
runs once in a fresh interpreter on its smallest input, so a name they
import that `src/` renamed fails here rather than when the script is
next run by hand.  `check_agreement.py` is left out: its smallest input
takes seconds."""
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize(
    "argv", [("braid_agreement.py", "0"), ("deep_chains.py", "20"), ("o1_agreement.py", "0")], ids=" ".join
)
def test_script_runs(argv):
    script, *args = argv
    proc = subprocess.run(
        [sys.executable, str(TESTS / script), *args], capture_output=True, text=True, cwd=TESTS.parent, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
