"""Tracing for the traced benchmark run.

The tracer wraps the public functions and methods of every ``pcnn`` module
from outside the package: no file under ``src/`` carries a hook. Each wrapped
call pushes a frame on a stack, so a call's self time is its duration minus
the time its wrapped children cover.

Two kinds of boundary are recorded:

* coarse calls (pipeline stages, CLI commands, training, evaluation) become
  spans with name, start, end, parent span and run id, kept in memory and
  written as JSON lines when the run ends;
* fine calls that run thousands of times per job (autodiff ops, distance
  kernels, per-query retrieval, model forwards) only add to per-name
  aggregates, so the trace stays small and cheap.

Every call, coarse or fine, adds to the aggregates of the current phase
(``setup``, ``job`` or ``check``); the per-layer metrics are derived from
the ``job`` phase and divided by the number of timed jobs.
"""

import contextlib
import json
import os
import statistics
import time
from collections import defaultdict

NK_OPS = (
    "matmul", "add", "sub", "mul", "pow_scalar", "softmax", "gelu", "sigmoid",
    "transpose", "reshape", "concat", "slice_axis", "broadcast_to", "mean_axis",
    "bce_with_logits",
)

# (stage, span names); a span counts for its stage only when none of its
# ancestors is itself a stage span, so evaluation inside training is
# training time
STAGES = (
    ("data", ("synthgen.synth_gen", "embedstore.load")),
    ("index", ("nnindex.build", "nnindex.subsample")),
    ("classifier", ("classifier.predict_split",)),
    ("sampling", ("pairsampler.sample_train", "pairsampler.sample_eval")),
    ("training", ("comparator.train",)),
    ("evaluation", ("comparator.evaluate_binary", "reranker.evaluate_rerank",
                    "reranker.sanity_suite", "reranker.topq_ceiling")),
    ("artifacts", ("comparator.save_checkpoint", "reranker.save_results",
                   "pairsampler.save_pairs", "embedstore.save")),
)
STAGE_OF = {name: stage for stage, names in STAGES for name in names}

CLI_COMMANDS = ("eval", "rerank", "sanity", "ceiling")

# per-layer metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = (
    *[(f"numkernel.fwd_self_s.{op}", "s") for op in NK_OPS],
    *[(f"numkernel.bwd_s.{op}", "s") for op in NK_OPS],
    ("numkernel.backward_s", "s"),
    ("numkernel.tape_nodes_per_step", "count"),
    ("kernels.sqdist_calls", "count"),
    ("kernels.sqdist_rows", "count"),
    ("kernels.busy_s", "s"),
    ("kernels.bytes_computed", "B"),
    ("kernels.flops_computed", "flop"),
    ("nnindex.calls", "count"),
    ("nnindex.busy_s", "s"),
    ("nnindex.self_s", "s"),
    ("classifier.predict_split_s", "s"),
    ("classifier.rows", "count"),
    ("pairsampler.sample_train_s", "s"),
    ("pairsampler.sample_eval_s", "s"),
    ("pairsampler.self_s", "s"),
    ("pairsampler.pairs", "count"),
    ("pairsampler.calls", "count"),
    ("pairsampler.eval_kept_ratio", "ratio"),
    ("embedstore.grid_calls", "count"),
    ("embedstore.load_s", "s"),
    ("embedstore.load_bytes", "B"),
    ("comparator.train_s", "s"),
    ("comparator.train_steps", "count"),
    ("comparator.train_pairs_per_s", "1/s"),
    ("comparator.step_ms_p50", "ms"),
    ("comparator.forward_train_s", "s"),
    ("comparator.eval_in_train_s", "s"),
    ("comparator.pairs_scored", "count"),
    ("comparator.save_checkpoint_s", "s"),
    ("comparator.load_checkpoint_s", "s"),
    ("comparator.binary_f1", "ratio"),
    ("reranker.evaluate_rerank_s", "s"),
    ("reranker.rerank_split_calls", "count"),
    ("reranker.pairs_scored", "count"),
    ("reranker.score_dup_ratio", "ratio"),
    ("reranker.sanity_s", "s"),
    ("reranker.ceiling_s", "s"),
    ("reranker.save_results_s", "s"),
    ("reranker.acc_soft", "ratio"),
    ("reranker.acc_hard", "ratio"),
    ("synthgen.synth_gen_s", "s"),
    ("experiment.prepare_s", "s"),
    ("experiment.prepare_calls", "count"),
    *[(f"experiment.stage_s.{stage}", "s") for stage, _ in STAGES],
    ("experiment.span_coverage", "ratio"),
    *[(f"cli.{cmd}_s", "s") for cmd in CLI_COMMANDS],
    *[(f"cli.{cmd}.prepare_share", "ratio") for cmd in CLI_COMMANDS],
    ("trace.job_s", "s"),
    ("trace.setup_s", "s"),
    ("trace.peak_rss_mb", "MB"),
    ("trace.spans", "count"),
)


class _Agg:
    __slots__ = ("calls", "total", "self_s")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0


class _Frame:
    __slots__ = ("name", "start", "child", "span_id")

    def __init__(self, name, start, span_id):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id


class Tracer:
    """In-memory spans, per-name aggregates and layer counters for one run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.phase = "setup"
        self.origin = time.perf_counter()
        self.spans = []
        # phase -> name -> value; phases are "setup", "warmup", "job" and "check"
        self.aggs = defaultdict(lambda: defaultdict(_Agg))
        self.counters = defaultdict(lambda: defaultdict(float))
        self.samples = defaultdict(lambda: defaultdict(list))
        self.jobs = 0
        self._stack = []
        self._step_start = None
        self._rerank_pairs = None

    # ---- recording -----------------------------------------------------

    def enter(self, name, coarse):
        span_id = None
        if coarse:
            span_id = len(self.spans)
            parent = next((f.span_id for f in reversed(self._stack)
                           if f.span_id is not None), None)
            self.spans.append({"id": span_id, "name": name, "parent": parent,
                               "run": self.run_id, "phase": self.phase,
                               "start": None, "end": None})
        frame = _Frame(name, time.perf_counter(), span_id)
        self._stack.append(frame)
        return frame

    def exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame.start
        agg = self.aggs[self.phase][frame.name]
        agg.calls += 1
        agg.total += dur
        agg.self_s += dur - frame.child
        if self._stack:
            self._stack[-1].child += dur
        if frame.span_id is not None:
            span = self.spans[frame.span_id]
            span["start"] = frame.start - self.origin
            span["end"] = end - self.origin
        return dur

    def inside(self, name):
        return any(f.name == name for f in self._stack)

    def count(self, name, value=1):
        self.counters[self.phase][name] += value

    def sample(self, name, value):
        self.samples[self.phase][name].append(value)

    @contextlib.contextmanager
    def span(self, name):
        """A coarse span opened by the benchmark itself."""
        frame = self.enter(name, True)
        try:
            yield
        finally:
            self.exit(frame)

    # ---- training-step boundaries -------------------------------------

    def step_mark(self, now):
        """Close the open training step at `now`, if one is open."""
        if self._step_start is not None:
            self.sample("comparator.step_s", now - self._step_start)
            self._step_start = None

    def step_open(self, now):
        self.step_mark(now)
        self._step_start = now

    # ---- output --------------------------------------------------------

    def write(self, path, env):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"run": self.run_id, "env": env}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def stage_seconds(self):
        """Job-phase seconds per pipeline stage, outermost stage spans only."""
        totals = {stage: 0.0 for stage, _ in STAGES}
        by_id = {s["id"]: s for s in self.spans}
        for span in self.spans:
            stage = STAGE_OF.get(span["name"])
            if span["phase"] != "job" or stage is None or span["end"] is None:
                continue
            parent = span["parent"]
            nested = False
            while parent is not None:
                if by_id[parent]["name"] in STAGE_OF:
                    nested = True
                    break
                parent = by_id[parent]["parent"]
            if not nested:
                totals[stage] += span["end"] - span["start"]
        return totals

    def prepare_seconds_under(self, root_name):
        """Total job-phase `experiment.prepare` time inside spans `root_name`."""
        by_id = {s["id"]: s for s in self.spans}
        total = 0.0
        for span in self.spans:
            if span["name"] != "experiment.prepare" or span["phase"] != "job":
                continue
            parent = span["parent"]
            while parent is not None and by_id[parent]["name"] != root_name:
                parent = by_id[parent]["parent"]
            if parent is not None:
                total += span["end"] - span["start"]
        return total


# ---------------------------------------------------------------- wrapping


class Installation:
    """Replaces pcnn callables with traced wrappers; `undo` restores them."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module, attr, name, coarse, after=None, before=None,
                 modules=()):
        """Wrap module-level function `attr`, and every `from x import attr`
        binding of the same object in `modules`."""
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, coarse, after, before)
        self._set(module, attr, wrapper)
        for other in modules:
            if other.__dict__.get(attr) is original:
                self._set(other, attr, wrapper)
        return wrapper

    def method(self, cls, attr, name, coarse, after=None, before=None):
        raw = cls.__dict__[attr]
        is_static = isinstance(raw, staticmethod)
        func = raw.__func__ if is_static else raw
        wrapper = self._wrap(func, name, coarse, after, before)
        self._set(cls, attr, staticmethod(wrapper) if is_static else wrapper)

    def counter(self, cls, attr, name):
        """Count calls of a very hot method without timing them."""
        func = cls.__dict__[attr]
        tracer = self.tracer

        def counted(*args, **kwargs):
            tracer.counters[tracer.phase][name] += 1
            return func(*args, **kwargs)

        self._set(cls, attr, counted)

    def _wrap(self, func, name, coarse, after, before):
        tracer = self.tracer

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            frame = tracer.enter(name, coarse)
            try:
                result = func(*args, **kwargs)
            finally:
                dur = tracer.exit(frame)
            if after is not None:
                after(tracer, args, kwargs, result, dur)
            return result

        return traced

    def undo(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _nk_op(op):
    """After-hook for an autodiff op: time its backward closure by op name."""

    def after(tracer, args, kwargs, out, dur):
        back = getattr(out, "_backward", None)
        if back is None:
            return

        def timed_back(g):
            t0 = time.perf_counter()
            back(g)
            tracer.counters[tracer.phase][f"bwd.{op}"] += time.perf_counter() - t0

        out._backward = timed_back

    return after


def install(tracer):
    """Wrap every traced pcnn boundary; returns the Installation to undo."""
    from pcnn import (classifier, cli, comparator, embedstore, experiment,
                      kernels, nnindex, numkernel, pairsampler, reranker,
                      synthgen)

    mods = (classifier, cli, comparator, embedstore, experiment, kernels,
            nnindex, numkernel, pairsampler, reranker, synthgen)
    inst = Installation(tracer)

    # numkernel: forward self time and backward time per op
    for op in NK_OPS:
        inst.function(numkernel, op, f"numkernel.{op}", False,
                      after=_nk_op(op), modules=mods)

    def after_backward(tr, args, kwargs, result, dur):
        tr.sample("numkernel.tape_nodes", len(args[0].nodes))

    inst.function(numkernel, "backward", "numkernel.backward", False,
                  after=after_backward, modules=mods)

    # kernels: distance work as computed from array shapes
    def after_one(tr, args, kwargs, out, dur):
        query, base = args[0], args[1]
        n, d = base.shape
        tr.count("kernels.rows", n)
        tr.count("kernels.bytes", 8 * (n * d + d + n))
        tr.count("kernels.flops", 3 * n * d)

    def after_many(tr, args, kwargs, out, dur):
        queries, base = args[0], args[1]
        m, d = queries.shape
        n = base.shape[0]
        tr.count("kernels.rows", m * n)
        tr.count("kernels.bytes", 8 * (m * d + n * d + m * n))
        tr.count("kernels.flops", 2 * m * n * d + 3 * (m + n) * d + 3 * m * n)

    inst.function(kernels, "sqdist_one", "kernels.sqdist_one", False,
                  after=after_one, modules=mods)
    inst.function(kernels, "sqdist_many", "kernels.sqdist_many", False,
                  after=after_many, modules=mods)

    # nnindex
    inst.method(nnindex.ClassIndex, "build", "nnindex.build", True)
    inst.method(nnindex.ClassIndex, "subsample", "nnindex.subsample", True)
    for attr in ("nearest_in_class", "nearest_k_in_class", "topk_global"):
        inst.method(nnindex.ClassIndex, attr, f"nnindex.{attr}", False)

    # classifier
    def after_predict(tr, args, kwargs, out, dur):
        tr.count("classifier.rows", len(out.ids))

    inst.method(classifier.SyntheticClassifier, "predict_split",
                "classifier.predict_split", True, after=after_predict)

    # pairsampler
    def after_sample(tr, args, kwargs, out, dur):
        tr.count("pairsampler.pairs", len(out.pairs))

    def after_sample_eval(tr, args, kwargs, out, dur):
        after_sample(tr, args, kwargs, out, dur)
        q = out.config.q
        raw = sum(2 * q - 1 if hit else 2 * q for hit in out.gt_in_topq.values())
        tr.count("pairsampler.eval_raw", raw)
        tr.count("pairsampler.eval_kept", len(out.pairs))

    inst.function(pairsampler, "sample_train", "pairsampler.sample_train", True,
                  after=after_sample, modules=mods)
    inst.function(pairsampler, "sample_eval", "pairsampler.sample_eval", True,
                  after=after_sample_eval, modules=mods)
    inst.function(pairsampler, "pair_count_audit", "pairsampler.pair_count_audit",
                  True, modules=mods)
    inst.function(pairsampler, "save_pairs", "pairsampler.save_pairs", True,
                  modules=mods)
    inst.function(pairsampler, "load_pairs", "pairsampler.load_pairs", True,
                  modules=mods)

    # embedstore
    def after_load(tr, args, kwargs, out, dur):
        tr.count("embedstore.load_bytes",
                 os.path.getsize(args[0]) + os.path.getsize(args[1]))

    inst.counter(embedstore.EmbeddingStore, "grid", "embedstore.grid_calls")
    inst.method(embedstore.EmbeddingStore, "load", "embedstore.load", True,
                after=after_load)
    inst.method(embedstore.EmbeddingStore, "save", "embedstore.save", True)

    # comparator
    def before_forward(tr, args, kwargs):
        mode = kwargs.get("mode", args[3] if len(args) > 3 else "eval")
        if mode == "train":
            tr.step_open(time.perf_counter())

    def after_forward(tr, args, kwargs, out, dur):
        mode = kwargs.get("mode", args[3] if len(args) > 3 else "eval")
        if mode == "train":
            tr.count("comparator.forward_train_s", dur)
            tr.count("comparator.train_rows", len(args[1]))
            tr.count("comparator.train_steps")

    def before_eval_binary(tr, args, kwargs):
        tr.step_mark(time.perf_counter())

    def after_eval_binary(tr, args, kwargs, out, dur):
        if tr.inside("comparator.train"):
            tr.count("comparator.eval_in_train_s", dur)

    def after_train(tr, args, kwargs, out, dur):
        tr.step_mark(time.perf_counter())

    def after_score(tr, args, kwargs, out, dur):
        tr.count("comparator.pairs_scored", len(args[1]))

    inst.method(comparator.ComparatorModel, "forward_logits",
                "comparator.forward_logits", False,
                before=before_forward, after=after_forward)
    inst.method(comparator.ComparatorModel, "score_pairs",
                "comparator.score_pairs", False, after=after_score)
    inst.function(comparator, "train", "comparator.train", True,
                  after=after_train, modules=mods)
    inst.function(comparator, "evaluate_binary", "comparator.evaluate_binary",
                  True, before=before_eval_binary, after=after_eval_binary,
                  modules=mods)
    inst.function(comparator, "save_checkpoint", "comparator.save_checkpoint",
                  True, modules=mods)
    inst.function(comparator, "load_checkpoint", "comparator.load_checkpoint",
                  True, modules=mods)

    # reranker
    def before_rerank(tr, args, kwargs):
        tr._rerank_pairs = [0, set()]

    def after_rerank(tr, args, kwargs, out, dur):
        scored, distinct = tr._rerank_pairs
        tr.count("reranker.dup_scored", scored)
        tr.count("reranker.dup_distinct", len(distinct))
        tr._rerank_pairs = None

    def after_model_score(tr, args, kwargs, out, dur):
        meta = args[3] if len(args) > 3 else kwargs.get("meta")
        tr.count("reranker.pairs_scored", len(args[1]))
        if tr._rerank_pairs is not None and meta is not None:
            tr._rerank_pairs[0] += len(meta)
            tr._rerank_pairs[1].update(meta)

    inst.function(reranker, "evaluate_rerank", "reranker.evaluate_rerank", True,
                  before=before_rerank, after=after_rerank, modules=mods)
    inst.function(reranker, "rerank_split", "reranker.rerank_split", True,
                  modules=mods)
    inst.method(reranker.ModelScorer, "score", "reranker.score", False,
                after=after_model_score)
    for attr in ("sanity_suite", "topq_ceiling", "save_results"):
        inst.function(reranker, attr, f"reranker.{attr}", True, modules=mods)

    # synthgen, experiment
    inst.function(synthgen, "synth_gen", "synthgen.synth_gen", True, modules=mods)
    for attr in ("prepare", "train_comparator", "run_seed", "run"):
        inst.function(experiment, attr, f"experiment.{attr}", True, modules=mods)
    return inst


# ------------------------------------------------------------ derivation


def _median(values):
    return statistics.median(values) if values else 0.0


def per_layer_metrics(tracer, cli_times):
    """Per-layer metric values (per timed job) from the job phase.

    cli_times: command -> list of per-call seconds (traced), possibly empty.
    """
    jobs = max(tracer.jobs, 1)
    agg = tracer.aggs["job"]
    cnt = tracer.counters["job"]
    smp = tracer.samples["job"]

    def total(name):
        return agg[name].total if name in agg else 0.0

    def self_s(name):
        return agg[name].self_s if name in agg else 0.0

    def calls(name):
        return agg[name].calls if name in agg else 0

    m = {}
    for op in NK_OPS:
        m[f"numkernel.fwd_self_s.{op}"] = self_s(f"numkernel.{op}") / jobs
        m[f"numkernel.bwd_s.{op}"] = cnt.get(f"bwd.{op}", 0.0) / jobs
    m["numkernel.backward_s"] = total("numkernel.backward") / jobs
    nodes = smp.get("numkernel.tape_nodes", [])
    m["numkernel.tape_nodes_per_step"] = _median(nodes)

    kern = ("kernels.sqdist_one", "kernels.sqdist_many")
    m["kernels.sqdist_calls"] = sum(calls(k) for k in kern) / jobs
    m["kernels.sqdist_rows"] = cnt.get("kernels.rows", 0) / jobs
    m["kernels.busy_s"] = sum(total(k) for k in kern) / jobs
    m["kernels.bytes_computed"] = cnt.get("kernels.bytes", 0) / jobs
    m["kernels.flops_computed"] = cnt.get("kernels.flops", 0) / jobs

    nn = [n for n in agg if n.startswith("nnindex.")]
    m["nnindex.calls"] = sum(calls(n) for n in nn) / jobs
    m["nnindex.busy_s"] = sum(total(n) for n in nn) / jobs
    m["nnindex.self_s"] = sum(self_s(n) for n in nn) / jobs

    m["classifier.predict_split_s"] = total("classifier.predict_split") / jobs
    m["classifier.rows"] = cnt.get("classifier.rows", 0) / jobs

    samplers = ("pairsampler.sample_train", "pairsampler.sample_eval")
    m["pairsampler.sample_train_s"] = total(samplers[0]) / jobs
    m["pairsampler.sample_eval_s"] = total(samplers[1]) / jobs
    m["pairsampler.self_s"] = sum(self_s(n) for n in samplers) / jobs
    m["pairsampler.pairs"] = cnt.get("pairsampler.pairs", 0) / jobs
    m["pairsampler.calls"] = sum(calls(n) for n in samplers) / jobs
    raw = cnt.get("pairsampler.eval_raw", 0)
    m["pairsampler.eval_kept_ratio"] = cnt.get("pairsampler.eval_kept", 0) / raw if raw else 0.0

    m["embedstore.grid_calls"] = cnt.get("embedstore.grid_calls", 0) / jobs
    m["embedstore.load_s"] = total("embedstore.load") / jobs
    m["embedstore.load_bytes"] = cnt.get("embedstore.load_bytes", 0) / jobs

    train_s = total("comparator.train")
    m["comparator.train_s"] = train_s / jobs
    m["comparator.train_steps"] = cnt.get("comparator.train_steps", 0) / jobs
    rows = cnt.get("comparator.train_rows", 0)
    m["comparator.train_pairs_per_s"] = rows / train_s if train_s else 0.0
    m["comparator.step_ms_p50"] = 1e3 * _median(smp.get("comparator.step_s", []))
    m["comparator.forward_train_s"] = cnt.get("comparator.forward_train_s", 0.0) / jobs
    m["comparator.eval_in_train_s"] = cnt.get("comparator.eval_in_train_s", 0.0) / jobs
    m["comparator.pairs_scored"] = cnt.get("comparator.pairs_scored", 0) / jobs
    m["comparator.save_checkpoint_s"] = total("comparator.save_checkpoint") / jobs
    m["comparator.load_checkpoint_s"] = total("comparator.load_checkpoint") / jobs

    m["reranker.evaluate_rerank_s"] = total("reranker.evaluate_rerank") / jobs
    m["reranker.rerank_split_calls"] = calls("reranker.rerank_split") / jobs
    m["reranker.pairs_scored"] = cnt.get("reranker.pairs_scored", 0) / jobs
    distinct = cnt.get("reranker.dup_distinct", 0)
    m["reranker.score_dup_ratio"] = cnt.get("reranker.dup_scored", 0) / distinct if distinct else 0.0
    m["reranker.sanity_s"] = total("reranker.sanity_suite") / jobs
    m["reranker.ceiling_s"] = total("reranker.topq_ceiling") / jobs
    m["reranker.save_results_s"] = total("reranker.save_results") / jobs

    # generated in the job where the job makes its data, else in set-up
    synth = agg if calls("synthgen.synth_gen") else tracer.aggs["setup"]
    s = synth.get("synthgen.synth_gen")
    m["synthgen.synth_gen_s"] = s.total / s.calls if s else 0.0

    m["experiment.prepare_s"] = total("experiment.prepare") / jobs
    m["experiment.prepare_calls"] = calls("experiment.prepare") / jobs
    stages = tracer.stage_seconds()
    for stage, _ in STAGES:
        m[f"experiment.stage_s.{stage}"] = stages[stage] / jobs
    job_total = total("bench.job")
    m["experiment.span_coverage"] = sum(stages.values()) / job_total if job_total else 0.0

    for cmd in CLI_COMMANDS:
        cmd_total = total(f"cli.{cmd}")
        prep = tracer.prepare_seconds_under(f"cli.{cmd}")
        m[f"cli.{cmd}.prepare_share"] = prep / cmd_total if cmd_total else 0.0
        m[f"cli.{cmd}_s"] = _median(cli_times.get(cmd, []))
    return {k: float(v) for k, v in m.items()}

