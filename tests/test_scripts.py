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


def test_make_synthetic_data_refuses_too_few_categories_before_writing(tmp_path):
    out = tmp_path / "corpus"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "make_synthetic_data.py"),
                           "--out", str(out), "--n-categories", "0"],
                          capture_output=True, text=True, env=ENV, timeout=300)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == \
        "make_synthetic_data.py: error: n_categories must be at least 2, got 0"
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_code_lines_since_a_revision_counts_each_file_then_and_now(tmp_path):
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)

    def git(*argv):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *argv], cwd=repo,
                       check=True, capture_output=True)

    git("init", "-q")
    (repo / "pkg" / "kept.py").write_text("a = 1\nb = 2\n", encoding="utf-8")
    (repo / "pkg" / "gone.py").write_text("c = 3\n", encoding="utf-8")
    (repo / "notes.txt").write_text("not python\n", encoding="utf-8")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    (repo / "pkg" / "kept.py").write_text('"""Doc."""\na = 1\n# gone\n', encoding="utf-8")
    (repo / "pkg" / "gone.py").unlink()
    (repo / "pkg" / "new.py").write_text("d = 4\ne = 5\nf = 6\n", encoding="utf-8")
    git("add", "-A")
    git("commit", "-q", "-m", "second")
    (repo / "pkg" / "new.py").write_text("d = 4\n", encoding="utf-8")  # not committed

    out = run_script("code_lines.py", "--since", "HEAD~1", str(repo / "pkg"))
    assert out.splitlines() == ["     1      0     -1  pkg/gone.py",
                                "     2      1     -1  pkg/kept.py",
                                "     0      1     +1  pkg/new.py",
                                "     3      2     -1  total"]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "code_lines.py"),
                           "--since", "no-such-rev", str(repo / "pkg")],
                          capture_output=True, text=True, env=ENV, timeout=300)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr


def test_code_lines_counts_neither_blanks_comments_nor_docstrings(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text('''"""Module docstring,
over two lines."""

# a comment
import os  # code with a comment


class Thing:
    """Class docstring."""

    def method(self):
        """Method
        docstring."""
        text = """a string that is
not a docstring"""
        return text


def one_liner(): """Docstring on a code line."""
''', encoding="utf-8")
    out = run_script("code_lines.py", str(tmp_path))
    # import, class, def method, the two lines of `text`, return, def one_liner
    assert out.splitlines() == [f"     7  {module}", "     7  total"]
