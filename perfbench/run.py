#!/usr/bin/env python3
"""Benchmark of the typelink pipeline, run from the root of a repository checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is train_wide, text_heavy, link_reuse, or all.  The benchmark makes
its inputs from the seed, sets up (corpus generation, plus model training
for link_reuse), then runs the workload's timed CLI commands, each as a
fresh ``python -m typelink`` process with tracing off, until S seconds have
passed.  Right before each iteration of those commands a fixed reference
task (reference.py) runs in its own process; the commands' wall and CPU
time are reported as multiples of the reference's.  Set-up is repeated
between those runs, at least three times in all, and its median reported.
Every run's outputs are checked.  With ``--trace 1`` a separate traced run
follows (see tracer.py) and the per-layer metrics are reported instead of
the end-to-end ones.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with an error.  Scratch files go to
``.bench_work/`` in the checkout; the merged spans of a traced run are kept
in ``.bench_work/traces/``.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads, here and in every child process:
# the program runs at --workers 1 and the measurement should not depend on
# how many idle cores the machine happens to have.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set-up runs at least this often, and until SETUP_MIN_S has passed, so a
# cheap set-up still reports the median of enough samples.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_S = 3, 11, 2.0
MIN_ITERATIONS = 3
# Every run must finish well inside the 180 s a caller allows it.
DEADLINE_S = 165.0

END_TO_END_UNITS = {
    "wall_rel": "ratio", "cpu_rel": "ratio", "peak_rss_mb": "MB", "artifact_mb": "MB",
    "linking_accuracy": "ratio", "typing_f1": "ratio", "setup_s": "s",
}
# Printed in the table only: the raw times the ratios are made of.
RAW_UNITS = {"wall_s": "s", "cpu_s": "s", "reference_wall_s": "s"}


class CheckFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list[str], stderr_path: Path, timeout: float) -> dict:
    """Run one child to completion; wall time, and CPU and max RSS from its own rusage."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=child_env(),
                                cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def stderr_tail(path: Path) -> str:
    try:
        lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    except OSError:
        return ""
    return " | ".join(lines[-3:])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# --- output checks ---------------------------------------------------------------

def reload_artifacts(plan) -> dict:
    """Reload every artifact through the package's own loaders; returns facts for later checks."""
    from typelink.categories import CategoryVocab
    from typelink.ingest import read_examples
    from typelink.model import TypingModel
    from typelink.prior import PriorTable

    prior = PriorTable.load(plan.artifacts["prior"])
    vocab = CategoryVocab.load(plan.artifacts["vocab"])
    model = TypingModel.load(plan.artifacts["model"])
    if len(model.vocab) != len(vocab):
        raise CheckFailed("model vocabulary differs from vocab.txt")
    mentions = {kind: read_examples(path) for kind, path in plan.artifacts.items()
                if kind.endswith("mentions") or kind.endswith("mentions_raw")}
    return {"prior": prior, "eval_examples": mentions["eval_mentions"]}


def mfe_accuracy(prior, examples) -> float:
    """Most-frequent-entity accuracy from the same prior, as scripts/run_synthetic_benchmark.py computes it."""
    from typelink.linker import most_frequent_entity
    from typelink.prior import DEFAULT_CANDIDATE_THRESHOLD

    hits = 0
    for ex in examples:
        cands = prior.candidates(ex.mention, DEFAULT_CANDIDATE_THRESHOLD)
        if len(cands) and most_frequent_entity(cands) == ex.entity:
            hits += 1
    return hits / len(examples)


class Checker:
    """Checks each run's outputs; the first passing run becomes the byte reference."""

    def __init__(self, workload):
        self.workload = workload
        self.reference: dict[str, str] | None = None  # output basename -> sha256
        self.n_eval = None
        self.report = None
        self.mfe = None

    def first_run(self, plan) -> None:
        facts = reload_artifacts(plan)
        self.n_eval = len(facts["eval_examples"])
        with open(plan.predictions, encoding="utf-8") as fh:
            for line in fh:
                json.loads(line)
        with open(plan.report, encoding="utf-8") as fh:
            self.report = json.load(fh)
        if self.workload.mfe_check:
            self.mfe = mfe_accuracy(facts["prior"], facts["eval_examples"])
            if self.report["linking_accuracy"] < self.mfe:
                raise CheckFailed(f"linking accuracy {self.report['linking_accuracy']:.4f} is "
                                  f"below the most-frequent-entity baseline {self.mfe:.4f}")

    def check(self, plan, results: list[dict]) -> list[str]:
        """Names the failed commands of one run, with the reason printed to stderr."""
        failed = []
        for command, res in zip(plan.timed, results):
            try:
                if res["code"] != 0:
                    raise CheckFailed(f"exit code {res['code']}: {res.get('stderr', '')}")
                if plan.predictions in command.outputs:
                    rows = count_lines(plan.predictions)
                    if self.n_eval is not None and rows != self.n_eval:
                        raise CheckFailed(f"{rows} predictions for {self.n_eval} eval mentions")
                if self.reference is not None:
                    for path in command.outputs:
                        if sha256(path) != self.reference[os.path.basename(path)]:
                            raise CheckFailed(f"{os.path.basename(path)} differs from the first run")
            except (CheckFailed, OSError) as err:
                failed.append(command.label)
                print(f"check failed: {self.workload.name} {command.label}: {err}", file=sys.stderr)
        if not failed and self.reference is None:
            try:
                self.first_run(plan)
                rows = count_lines(plan.predictions)
                if rows != self.n_eval:
                    raise CheckFailed(f"{rows} predictions for {self.n_eval} eval mentions")
            except (CheckFailed, OSError, ValueError, KeyError) as err:
                print(f"check failed: {self.workload.name} reload: {err}", file=sys.stderr)
                return [c.label for c in plan.timed]
            self.reference = {os.path.basename(p): sha256(p) for c in plan.timed for p in c.outputs}
        return failed


# --- one workload ------------------------------------------------------------------

def set_up(workload, seed: int, preset: str, workdir: Path) -> tuple[dict, Path, float]:
    """Generate the corpus (and train, for link_reuse) into `workdir`; returns its wall time."""
    import typelink.cli

    corpus_dir, art = workdir / "corpus", workdir / "setup"
    shutil.rmtree(workdir, ignore_errors=True)
    art.mkdir(parents=True)
    t0 = time.perf_counter()
    corpus = workload.make_corpus(str(corpus_dir), seed, preset)
    for argv in workload.setup_argvs(corpus, str(art)):
        code = typelink.cli.main(argv)
        if code != 0:
            raise SystemExit(f"error: set-up command failed with code {code}: {' '.join(argv)}")
    return corpus, art, time.perf_counter() - t0


def wants_setup(times: list[float]) -> bool:
    return len(times) < SETUP_MIN_REPEATS or (sum(times) < SETUP_MIN_S
                                              and len(times) < SETUP_MAX_REPEATS)


def run_reference(workdir: Path, deadline: float) -> dict:
    err = workdir / "reference.stderr"
    res = run_process([sys.executable, str(BENCH / "reference.py")], err,
                      max(1.0, deadline - time.perf_counter()))
    if res["code"] != 0:
        raise SystemExit(f"error: reference task failed with code {res['code']}: "
                         f"{stderr_tail(err)}")
    return res


def run_timed(plan, workdir: Path, deadline: float) -> list[dict]:
    results = []
    for command in plan.timed:
        err = workdir / f"{command.label}.stderr"
        res = run_process([sys.executable, "-m", "typelink", *command.argv], err,
                          max(1.0, deadline - time.perf_counter()))
        if res["code"] != 0:
            res["stderr"] = stderr_tail(err)
        results.append(res)
    return results


def run_traced(workload, corpus, art, workdir: Path, checker: Checker, deadline: float):
    """Traced run: one tracer process per timed command, plus a set-up replay for link_reuse."""
    import tracer as tr

    trace_dir = workdir / "trace"
    trace_dir.mkdir()
    plan = workload.plan(corpus, str(art), str(trace_dir / "out"))
    (trace_dir / "out").mkdir()
    jobs = []  # (label, commands, timed?)
    replay = workload.setup_argvs(corpus, str(trace_dir / "setup"))
    if replay:
        (trace_dir / "setup").mkdir()
        jobs.append(("setup", [(f"setup:{argv[0]}", argv) for argv in replay], False))
    jobs += [(c.label, [(c.label, c.argv)], True) for c in plan.timed]

    records, walls, failed = [], {}, []
    for label, commands, timed in jobs:
        spec, out = trace_dir / f"{label}.commands.json", trace_dir / f"{label}.spans.json"
        spec.write_text(json.dumps(commands), encoding="utf-8")
        err = trace_dir / f"{label}.stderr"
        res = run_process([sys.executable, str(BENCH / "tracer.py"), str(spec), str(out)], err,
                          max(1.0, deadline - time.perf_counter()))
        if res["code"] != 0 or not out.exists():
            print(f"check failed: traced {label}: exit code {res['code']}: {stderr_tail(err)}",
                  file=sys.stderr)
            failed.append(label)
            continue
        records.append(json.loads(out.read_text(encoding="utf-8")))
        walls[label] = (res["wall"], timed)
    if replay and "setup" not in failed:
        replayed = workload.plan(corpus, str(trace_dir / "setup"), str(trace_dir / "out"))
        for kind, path in replayed.artifacts.items():
            original = os.path.join(str(art), os.path.basename(path))
            if sha256(path) != sha256(original):
                print(f"check failed: traced set-up replay wrote a different {kind}", file=sys.stderr)
                failed.append("setup")
                break
    timed_results = [{"code": 0 if c.label not in failed else 1} for c in plan.timed]
    failed += checker.check(plan, timed_results) if not failed else []
    return plan, records, walls, failed, len(jobs)


def run_workload(workload, seed: int, seconds: float, trace: bool, preset: str,
                 workdir: Path, started: float) -> dict:
    deadline = started + DEADLINE_S
    corpus, art, first_setup = set_up(workload, seed, preset, workdir / "input")
    setup_times = [first_setup]
    checker = Checker(workload)
    iterations, attempted, failed = [], 0, 0
    loop_start = time.perf_counter()
    while True:
        out = workdir / f"run{len(iterations)}"
        out.mkdir()
        plan = workload.plan(corpus, str(art), str(out))
        ref = run_reference(workdir, deadline)
        results = run_timed(plan, workdir, deadline)
        bad = checker.check(plan, results)
        attempted += len(plan.timed)
        failed += len(bad)
        iterations.append({
            "wall": sum(r["wall"] for r in results),
            "cpu": sum(r["cpu"] for r in results),
            "ref_wall": ref["wall"],
            "ref_cpu": ref["cpu"],
            "rss_mb": max(r["rss_mb"] for r in results),
            "bytes": sum(os.path.getsize(p) for c in plan.timed for p in c.outputs
                         if os.path.exists(p)),
        })
        shutil.rmtree(out)
        if wants_setup(setup_times):
            # Repeats are spread over the run, between iterations, so the set-up
            # median sees the same machine as the timed commands.
            setup_times.append(set_up(workload, seed, preset, workdir / "repeat")[2])
            shutil.rmtree(workdir / "repeat")
        elapsed = time.perf_counter() - loop_start
        if bad and checker.reference is None:
            break  # nothing to compare against; more runs would only repeat the failure
        step = iterations[-1]["wall"] + iterations[-1]["ref_wall"]
        if len(iterations) >= MIN_ITERATIONS and elapsed + step > seconds:
            break
        if time.perf_counter() + 2 * step > deadline - (30 if trace else 0):
            break

    series = {
        "wall_rel": [it["wall"] / it["ref_wall"] for it in iterations],
        "cpu_rel": [it["cpu"] / it["ref_cpu"] for it in iterations],
        "wall_s": [it["wall"] for it in iterations],
        "cpu_s": [it["cpu"] for it in iterations],
        "reference_wall_s": [it["ref_wall"] for it in iterations],
        "peak_rss_mb": [it["rss_mb"] for it in iterations],
        "artifact_mb": [it["bytes"] / 1e6 for it in iterations],
        "setup_s": setup_times,
    }
    report = checker.report or {}
    buckets = report.get("typing_buckets") or []
    totals = [row for row in buckets if row[0] == "total"]
    series["linking_accuracy"] = [report["linking_accuracy"]] if report else []
    series["typing_f1"] = [totals[0][3]] if totals else []
    result = {"workload": workload.name, "series": series, "attempted": attempted,
              "failed": failed, "mfe": checker.mfe}

    if trace:
        plan, records, walls, trace_failed, n_jobs = run_traced(
            workload, corpus, art, workdir, checker, deadline)
        result["attempted"] += n_jobs
        result["failed"] += len(trace_failed)
        result["per_layer"] = trace_metrics(workload, plan, records, walls,
                                            statistics.median(series["wall_s"]), seed)
    return result


def trace_metrics(workload, plan, records, walls, untraced_wall: float, seed: int) -> dict:
    import tracer as tr

    merged = tr.merge(records)
    metrics = tr.per_layer_metrics(merged)
    traced_wall = sum(w for w, _ in walls.values())
    timed_wall = sum(w for w, timed in walls.values() if timed)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.unattributed_s"] = traced_wall - tr.root_seconds(merged["spans"])
    metrics["trace.overhead_s"] = timed_wall - untraced_wall
    timed_ids = {c.label for c in plan.timed}
    own = tr.self_seconds_by_layer(merged["spans"], timed_ids)
    metrics["trace.named_layers_share"] = (
        sum(own[name] for name in workload.named_layers) / timed_wall if timed_wall else None)
    try:
        with open(plan.predictions, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
        metrics["linker.backoff_ratio"] = sum(1 for r in rows if r["used_backoff"]) / len(rows)
    except (OSError, KeyError, ValueError, ZeroDivisionError):
        metrics["linker.backoff_ratio"] = None
    for site in merged["missing"]:
        print(f"trace: wrap target missing, its metrics are null: {site}", file=sys.stderr)
    for layer in merged["broken"]:
        print(f"trace: counters of {layer} could not be read, they are null", file=sys.stderr)

    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    with open(traces / f"{workload.name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": seed, "walls": walls,
                   "fields": ["name", "start_ns", "end_ns", "parent", "run_id"],
                   "spans": merged["spans"]}, fh)
    ranked = sorted(tr.self_seconds_by_layer(merged["spans"]).items(), key=lambda kv: -kv[1])
    print(f"traced wall {traced_wall:.3f} s; top self times:", file=sys.stderr)
    for name, secs in ranked[:10]:
        print(f"  {name:40s} {secs:8.3f} s  {secs / traced_wall:6.1%}", file=sys.stderr)
    return metrics


# --- reporting ---------------------------------------------------------------------

def per_layer_units(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_share") or name.endswith("_per_lookup"):
        return "ratio"
    if name == "model.bytes":
        return "bytes"
    return "count"


def print_table(result: dict, out) -> None:
    print(f"workload {result['workload']}: attempted {result['attempted']} commands, "
          f"failed_ops {result['failed']}"
          + (f", most-frequent-entity baseline {result['mfe']:.4f}" if result["mfe"] is not None
             else ""), file=out)
    print(f"  {'metric':18s} {'unit':6s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s}", file=out)
    for name, unit in {**END_TO_END_UNITS, **RAW_UNITS}.items():
        values = result["series"].get(name) or []
        if not values:
            print(f"  {name:18s} {unit:6s} {0:3d} {'-':>12s}", file=out)
            continue
        q1, med, q3 = quartiles(values)
        print(f"  {name:18s} {unit:6s} {len(values):3d} {med:12.4f} {q1:12.4f} {q3:12.4f}", file=out)
    for name, value in (result.get("per_layer") or {}).items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:44s} {per_layer_units(name):6s} {shown:>14s}", file=out)


def metrics_of(result: dict, trace: bool) -> dict:
    if trace:
        return {name: {"value": value, "unit": per_layer_units(name)}
                for name, value in result["per_layer"].items()}
    out = {}
    for name, unit in END_TO_END_UNITS.items():
        values = result["series"].get(name) or []
        out[name] = {"value": statistics.median(values) if values else None, "unit": unit}
    return out


def environment() -> dict:
    import platform

    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
            "machine": platform.machine()}


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train_wide", "text_heavy", "link_reuse", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--preset", choices=["full", "smoke"], default="full",
                        help="input sizes; smoke is a seconds-long run for the self-tests")
    args = parser.parse_args(argv)

    if not (SRC / "typelink" / "__init__.py").is_file():
        print(f"error: {SRC / 'typelink'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    results = []
    for name in names:
        workdir = WORK / f"{name}-seed{args.seed}-pid{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            results.append(run_workload(WORKLOADS[name], args.seed, args.seconds,
                                        bool(args.trace), args.preset, workdir, time.perf_counter()))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for result in results:
        print_table(result, sys.stdout)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = metrics_of(results[0], bool(args.trace))
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in metrics_of(r, bool(args.trace)).items()}
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
