import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_synthetic_benchmark_script_beats_the_prior_baseline(tmp_path):
    """The README quickstart script runs end to end and typing beats the prior."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_synthetic_benchmark.py"),
         "--workdir", str(tmp_path / "run"), "--train-sentences", "300",
         "--test-examples", "100", "--feature-dim", "4096", "--epochs", "2", "--quiet"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr

    def value(label):
        return float(re.search(rf"^{label}\s+(\S+)$", proc.stdout, re.M).group(1))

    assert value("typing linking accuracy") > value("most-frequent-entity")
