import json
import os
import pathlib
import subprocess
import sys

from typelink.synthetic import BenchmarkSpec, corpus_paths, write_benchmark

ROOT = pathlib.Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def run_script(name, *argv):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, env=ENV, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_readme_quick_start_beats_the_prior_baseline(tmp_path):
    """The README quick start at small sizes: make_synthetic_data.py, then
    `python -m typelink pipeline`, whose report puts typing above the prior."""
    corpus, workdir = tmp_path / "corpus", tmp_path / "run"
    run_script("make_synthetic_data.py", "--out", str(corpus),
               "--train-sentences", "300", "--test-examples", "100")
    proc = subprocess.run(
        [sys.executable, "-m", "typelink", "pipeline",
         "--articles", str(corpus / "train_articles.txt"),
         "--eval-articles", str(corpus / "eval_articles.txt"),
         "--prior-articles", str(corpus / "prior_articles.txt"),
         "--categories", str(corpus / "categories.tsv"), "--workdir", str(workdir),
         "--feature-dim", "4096", "--epochs", "2", "--seed", "13"],
        capture_output=True, text=True, env=ENV, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
    assert report["linking_accuracy"] > report["prior_accuracy"]
    assert f"prior_accuracy   {report['prior_accuracy']:.4f}" in proc.stdout.splitlines()


def test_make_synthetic_data_defaults_write_the_default_benchmark_spec(tmp_path):
    run_script("make_synthetic_data.py", "--out", str(tmp_path / "script"))
    expected = write_benchmark(str(tmp_path / "spec"), BenchmarkSpec())
    written = corpus_paths(str(tmp_path / "script"))
    for kind, path in expected.items():
        assert pathlib.Path(written[kind]).read_bytes() == pathlib.Path(path).read_bytes(), kind


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
