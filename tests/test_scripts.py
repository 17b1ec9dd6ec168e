import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def run_script(name, *argv):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, env=ENV, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def benchmark_value(stdout, label):
    return float(re.search(rf"^{label}\s+(\S+)$", stdout, re.M).group(1))


def test_synthetic_benchmark_script_beats_the_prior_baseline(tmp_path):
    """The README quickstart script runs end to end and typing beats the prior."""
    out = run_script("run_synthetic_benchmark.py",
                     "--workdir", str(tmp_path / "run"), "--train-sentences", "300",
                     "--test-examples", "100", "--feature-dim", "4096", "--epochs", "2",
                     "--quiet")
    assert benchmark_value(out, "typing linking accuracy") > \
        benchmark_value(out, "most-frequent-entity")


def test_benchmark_on_a_generated_corpus_beats_the_prior_baseline(tmp_path):
    """make_synthetic_data.py writes a corpus that run_synthetic_benchmark.py --corpus reads."""
    corpus = tmp_path / "corpus"
    run_script("make_synthetic_data.py", "--out", str(corpus),
               "--train-sentences", "300", "--test-examples", "60")
    out = run_script("run_synthetic_benchmark.py", "--corpus", str(corpus),
                     "--workdir", str(tmp_path / "run"), "--feature-dim", "4096",
                     "--epochs", "2", "--quiet")
    assert benchmark_value(out, "typing linking accuracy") > \
        benchmark_value(out, "most-frequent-entity")
