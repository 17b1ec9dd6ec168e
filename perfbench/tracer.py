"""Outside-in span tracing of the typelink CLI, and the per-layer metrics derived from it.

Run as a script, this module imports ``typelink`` from the checkout,
replaces the functions the stages call through (at the module attributes
where the callers look them up) with timing wrappers, runs
``typelink.cli.main`` for each command it is given, and writes every span
plus a few counters to a JSON file.  Nothing inside ``src/`` is modified.

A span is (name, start_ns, end_ns, parent index, run id).  A function's
self time is its spans' durations minus the parts covered by their direct
children, so the self times of one process add up to its root spans.

A wrap target that no longer exists (after a refactor, say) is recorded as
missing; every metric derived from it is then reported as null instead of
failing the run.

Usage: python perfbench/tracer.py COMMANDS.json OUT.json
where COMMANDS.json is a list of [run_id, argv] pairs.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

# (layer name, module whose attribute is replaced, attribute path, kind).
# Where a function is imported into several modules, each import site is
# wrapped under the same layer name.
TARGETS = [
    ("cli.stage_build_prior", "typelink.cli", "stage_build_prior", "func"),
    ("cli.stage_ingest", "typelink.cli", "stage_ingest", "func"),
    ("cli.stage_build_vocab", "typelink.cli", "stage_build_vocab", "func"),
    ("cli.stage_train", "typelink.cli", "stage_train", "func"),
    ("cli.stage_link", "typelink.cli", "stage_link", "func"),
    ("cli.stage_eval", "typelink.cli", "stage_eval", "func"),
    ("ingest.iter_articles", "typelink.cli", "iter_articles", "generator"),
    ("ingest.extract_examples", "typelink.cli", "extract_examples", "func"),
    ("ingest.attach_categories", "typelink.cli", "attach_categories", "func"),
    ("ingest.read_examples", "typelink.cli", "read_examples", "func"),
    ("ingest.write_examples", "typelink.cli", "write_examples", "func"),
    ("ingest.load_category_assignments", "typelink.cli", "load_category_assignments", "func"),
    ("prior.accumulate", "typelink.cli", "accumulate", "func"),
    ("prior.save", "typelink.prior", "PriorTable.save", "func"),
    ("prior.load", "typelink.prior", "PriorTable.load", "classmethod"),
    ("prior.candidates", "typelink.prior", "PriorTable.candidates", "func"),
    ("categories.expand_category", "typelink.ingest", "expand_category", "func"),
    ("categories.expand_category", "typelink.linker", "expand_category", "func"),
    ("categories.expand_category", "typelink.cli", "expand_category", "func"),
    ("categories.select_vocabulary", "typelink.cli", "select_vocabulary", "func"),
    ("model.featurize", "typelink.model", "featurize", "func"),
    ("model.train", "typelink.cli", "train", "func"),
    ("model.save", "typelink.model", "TypingModel.save", "func"),
    ("model.load", "typelink.model", "TypingModel.load", "classmethod"),
    ("model.predict", "typelink.model", "predict", "func"),
    ("linker.build_category_index", "typelink.cli", "build_category_index", "func"),
    ("linker.link", "typelink.cli", "link", "func"),
    ("evaluation.build_context", "typelink.cli", "build_context", "func"),
    ("evaluation.typing_metrics", "typelink.cli", "typing_metrics", "func"),
]

# Root spans the tracer itself opens: importing the package, and one per command.
IMPORT_SPAN = "python.import_typelink"
MAIN_SPAN = "cli.main"

# Percentiles are reported only where at least ten samples lie beyond p99.
PERCENTILE_MIN_CALLS = 1000

# Per-layer metric name -> (layer, statistic).  Statistics: "s" is inclusive
# time, "self_s" self time, "calls" span count, "p50_us"/"p99_us" inclusive
# per-call percentiles.
TIMED_METRICS = {
    **{f"cli.stage_{s}.s": (f"cli.stage_{s}", "s")
       for s in ("build_prior", "ingest", "build_vocab", "train", "link", "eval")},
    "ingest.iter_articles.self_s": ("ingest.iter_articles", "self_s"),
    "ingest.extract_examples.calls": ("ingest.extract_examples", "calls"),
    "ingest.extract_examples.self_s": ("ingest.extract_examples", "self_s"),
    "ingest.attach_categories.self_s": ("ingest.attach_categories", "self_s"),
    "ingest.read_examples.self_s": ("ingest.read_examples", "self_s"),
    "ingest.write_examples.self_s": ("ingest.write_examples", "self_s"),
    "ingest.load_category_assignments.calls": ("ingest.load_category_assignments", "calls"),
    "ingest.load_category_assignments.self_s": ("ingest.load_category_assignments", "self_s"),
    "prior.accumulate.self_s": ("prior.accumulate", "self_s"),
    "prior.save.self_s": ("prior.save", "self_s"),
    "prior.load.calls": ("prior.load", "calls"),
    "prior.load.self_s": ("prior.load", "self_s"),
    "prior.candidates.calls": ("prior.candidates", "calls"),
    "prior.candidates.self_s": ("prior.candidates", "self_s"),
    "categories.expand_category.calls": ("categories.expand_category", "calls"),
    "categories.expand_category.self_s": ("categories.expand_category", "self_s"),
    "categories.select_vocabulary.self_s": ("categories.select_vocabulary", "self_s"),
    "model.featurize.calls": ("model.featurize", "calls"),
    "model.featurize.self_s": ("model.featurize", "self_s"),
    "model.featurize.p50_us": ("model.featurize", "p50_us"),
    "model.featurize.p99_us": ("model.featurize", "p99_us"),
    "model.train.self_s": ("model.train", "self_s"),
    "model.save.self_s": ("model.save", "self_s"),
    "model.load.calls": ("model.load", "calls"),
    "model.load.self_s": ("model.load", "self_s"),
    "model.predict.calls": ("model.predict", "calls"),
    "model.predict.self_s": ("model.predict", "self_s"),
    "model.predict.p50_us": ("model.predict", "p50_us"),
    "model.predict.p99_us": ("model.predict", "p99_us"),
    "linker.build_category_index.self_s": ("linker.build_category_index", "self_s"),
    "linker.link.calls": ("linker.link", "calls"),
    "linker.link.self_s": ("linker.link", "self_s"),
    "linker.link.p50_us": ("linker.link", "p50_us"),
    "linker.link.p99_us": ("linker.link", "p99_us"),
    "evaluation.build_context.calls": ("evaluation.build_context", "calls"),
    "evaluation.build_context.self_s": ("evaluation.build_context", "self_s"),
    "evaluation.typing_metrics.self_s": ("evaluation.typing_metrics", "self_s"),
}

# Counters the wrappers accumulate from arguments and results -> the layer
# whose wrapper feeds them (null when that layer could not be wrapped).
COUNTERS = {
    "ingest.examples": "ingest.extract_examples",
    "model.features_hashed": "model.featurize",
    "model.train.examples": "model.train",
    "model.bytes": "model.save",
    "prior.rows": "prior.save",
}


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = ""
        self.counters: Counter = Counter()
        self.diagnostics: Counter = Counter()
        self.missing: list[str] = []
        self.wrapped: set[str] = set()
        self.broken: set[str] = set()

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), 0, parent, self.run_id])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                try:
                    after(tracer, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, ValueError, OSError):
                    tracer.broken.add(name)  # the counter no longer fits the code it reads
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        """Time each step of the generator `fn` returns, while it is consumed."""
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                yield item

        traced.__wrapped__ = fn
        return traced


# --- counters fed from wrapped calls -----------------------------------------

def _count_examples(tracer, args, kwargs, result):
    tracer.counters["ingest.examples"] += len(result)


def _count_attached(tracer, args, kwargs, result):
    examples = args[0] if args else kwargs["examples"]
    tracer.counters["ingest.attach_in"] += len(examples)
    tracer.counters["ingest.attach_labeled"] += sum(1 for ex in result if ex.categories)


def _count_features(tracer, args, kwargs, result):
    tracer.counters["model.features_hashed"] += int(result.values.sum())


def _count_train(tracer, args, kwargs, result):
    pairs = args[0] if args else kwargs["pairs"]
    tracer.counters["model.train.examples"] += len(pairs)


def _count_model_save(tracer, args, kwargs, result):
    model = args[0]
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counters["model.bytes"] += os.path.getsize(path)
    tracer.counters["model.columns"] += model.weights.shape[1]
    tracer.counters["model.nonzero_columns"] += int((model.weights != 0).any(axis=0).sum())


def _count_prior_save(tracer, args, kwargs, result):
    tracer.counters["prior.rows"] += sum(len(v) for v in args[0].counts.values())


def _count_candidates(tracer, args, kwargs, result):
    tracer.counters["prior.candidates_returned"] += len(result)


def _count_diagnostics(tracer, args, kwargs, result):
    counts = getattr(result, "counts", None)
    if isinstance(counts, Counter):
        tracer.diagnostics.update(counts)


AFTER = {
    "ingest.extract_examples": _count_examples,
    "ingest.attach_categories": _count_attached,
    "model.featurize": _count_features,
    "model.train": _count_train,
    "model.save": _count_model_save,
    "prior.save": _count_prior_save,
    "prior.candidates": _count_candidates,
    "cli.stage_build_prior": _count_diagnostics,
    "cli.stage_ingest": _count_diagnostics,
    "cli.stage_link": _count_diagnostics,
}


def install(tracer: Tracer, targets=TARGETS) -> None:
    """Replace every reachable target with a traced wrapper; record the rest as missing."""
    for name, module_name, attr_path, kind in targets:
        site = f"{module_name}.{attr_path}"
        try:
            owner = importlib.import_module(module_name)
            *owner_path, attr = attr_path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            tracer.missing.append(site)
            continue
        if kind == "classmethod":
            if not isinstance(raw, classmethod):
                tracer.missing.append(site)
                continue
            wrapped = classmethod(tracer.wrap(name, raw.__func__, AFTER.get(name)))
        elif kind == "generator":
            wrapped = tracer.wrap_generator(name, raw)
        else:
            wrapped = tracer.wrap(name, raw, AFTER.get(name))
        setattr(owner, attr, wrapped)
        tracer.wrapped.add(name)


# --- derived metrics ----------------------------------------------------------

# The reasons typelink.diagnostics defines; each is reported as a count.
DIAGNOSTIC_REASONS = (
    "malformed_link", "unclosed_link", "empty_target", "empty_anchor", "empty_title",
    "misaligned_anchor", "no_candidates", "entity_without_categories",
    "no_vocab_categories", "candidate_without_categories", "unlabeled_example",
)


def merge(records) -> dict:
    """Join the outputs of several traced processes, re-basing parent indices."""
    spans: list[list] = []
    counters: Counter = Counter()
    diagnostics: Counter = Counter()
    missing: set = set()
    broken: set = set()
    wrapped = None
    for rec in records:
        base = len(spans)
        spans.extend([name, start, end, parent + base if parent >= 0 else -1, run]
                     for name, start, end, parent, run in rec["spans"])
        counters.update(rec["counters"])
        diagnostics.update(rec["diagnostics"])
        missing.update(rec["missing"])
        broken.update(rec["broken"])
        wrapped = set(rec["wrapped"]) if wrapped is None else wrapped & set(rec["wrapped"])
    return {"spans": spans, "counters": counters, "diagnostics": diagnostics,
            "missing": sorted(missing), "broken": sorted(broken), "wrapped": wrapped or set()}


def self_times(spans) -> list[int]:
    """Per-span self time: duration minus the durations of its direct children."""
    out = [end - start for _name, start, end, _parent, _run in spans]
    for _name, start, end, parent, _run in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def self_seconds_by_layer(spans, run_ids=None) -> Counter:
    """Total self time per span name, optionally only over spans of `run_ids`."""
    ns: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        if run_ids is None or span[4] in run_ids:
            ns[span[0]] += own
    return Counter({name: total / 1e9 for name, total in ns.items()})


def root_seconds(spans) -> float:
    """Total duration of the spans without a parent; equals the sum of all self times."""
    return sum(end - start for _name, start, end, parent, _run in spans if parent < 0) / 1e9


def _percentile(sorted_values, q: float):
    rank = -(-len(sorted_values) * q // 1)  # nearest rank: ceil(q * n)
    return sorted_values[max(1, int(rank)) - 1]


def layer_stats(spans) -> dict[str, dict]:
    """calls, inclusive s, self_s and (for >= 1000 calls) p50_us/p99_us per span name."""
    durations: dict[str, list[int]] = defaultdict(list)
    self_ns: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        durations[span[0]].append(span[2] - span[1])
        self_ns[span[0]] += own
    stats = {}
    for name, ds in durations.items():
        entry = {"calls": len(ds), "s": sum(ds) / 1e9, "self_s": self_ns[name] / 1e9,
                 "p50_us": None, "p99_us": None}
        if len(ds) >= PERCENTILE_MIN_CALLS:
            ds = sorted(ds)
            entry["p50_us"] = _percentile(ds, 0.50) / 1e3
            entry["p99_us"] = _percentile(ds, 0.99) / 1e3
        stats[name] = entry
    return stats


def _ratio(num, den):
    return num / den if den else None


def per_layer_metrics(trace: dict) -> dict:
    """The named per-layer metrics of a merged trace; None where a layer could not be read."""
    stats = layer_stats(trace["spans"])
    wrapped = trace["wrapped"]
    counted = wrapped - set(trace["broken"])
    counters = trace["counters"]
    out = {}
    for metric, (layer, stat) in TIMED_METRICS.items():
        if layer not in wrapped:
            out[metric] = None
        elif layer in stats:
            out[metric] = stats[layer][stat]
        else:
            out[metric] = None if stat.startswith("p") else 0
    for metric, layer in COUNTERS.items():
        out[metric] = counters[metric] if layer in counted else None
    out["ingest.kept_ratio"] = (
        _ratio(counters["ingest.attach_labeled"], counters["ingest.attach_in"])
        if "ingest.attach_categories" in counted else None)
    out["prior.candidates_per_lookup"] = (
        _ratio(counters["prior.candidates_returned"], stats.get("prior.candidates", {}).get("calls"))
        if "prior.candidates" in counted else None)
    out["model.nonzero_column_ratio"] = (
        _ratio(counters["model.nonzero_columns"], counters["model.columns"])
        if "model.save" in counted else None)
    for reason in DIAGNOSTIC_REASONS:
        out[f"diagnostics.{reason}"] = trace["diagnostics"].get(reason, 0)
    return out


# --- traced child process -------------------------------------------------------

def run_commands(commands, out_path: str) -> int:
    tracer = Tracer()
    tracer.run_id = "import"
    idx = tracer.open(IMPORT_SPAN)
    import typelink.cli
    tracer.close(idx)
    install(tracer)
    codes = []
    for run_id, argv in commands:
        tracer.run_id = run_id
        idx = tracer.open(MAIN_SPAN)
        try:
            codes.append(typelink.cli.main(argv))
        finally:
            tracer.close(idx)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"codes": codes, "spans": tracer.spans, "counters": tracer.counters,
                   "diagnostics": tracer.diagnostics, "missing": tracer.missing,
                   "wrapped": sorted(tracer.wrapped), "broken": sorted(tracer.broken)}, fh)
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        sys.exit(run_commands(json.load(fh), sys.argv[2]))
