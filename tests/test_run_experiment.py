import os
import subprocess
import sys
from pathlib import Path

import pytest

import offerbandit

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_experiment.py"


@pytest.mark.parametrize("args, message", [
    (["--seeds", "0"], "argument --seeds: must be at least 1, got 0"),
    (["--rounds", "0"], "argument --rounds: must be at least 1, got 0"),
    (["--policies", "nope"], "argument --policies: invalid choice: 'nope'"),
    (["--kappa", "-1"], "kappa_initial must be > 0, got -1.0"),
])
def test_bad_argument_exits_2_with_one_line(tmp_path, args, message):
    env = dict(os.environ, PYTHONPATH=str(Path(offerbandit.__file__).parents[1]))
    out = tmp_path / "exp"
    done = subprocess.run([sys.executable, str(SCRIPT), *args, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    [line] = done.stderr.splitlines()
    assert line.startswith("run_experiment.py: error: ") and message in line
    assert not out.exists()
