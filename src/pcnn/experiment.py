"""End-to-end experiment orchestration driven by one JSON config.

Stages per seed: generate (or load) data, build the index, run the
synthetic classifier, sample pairs, train the comparator, evaluate the
binary task and the re-ranking task, run sanity checks, and write every
artifact under the output directory. The step functions below own the
seed directory's files. `run_seed` runs the pairs, training, re-rank,
sanity and ceiling steps, and each `pcnn` config command runs one step, so
both write the same bytes.
"""

import contextlib
import json
import os
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from . import comparator, pairsampler, reranker
from .atomicio import atomic_open
from .classifier import SyntheticClassifier
from .comparator import ComparatorConfig, ComparatorModel, TrainConfig
from .embedstore import EmbeddingStore
from .nnindex import ClassIndex, kept_per_class
from .pairsampler import SamplerConfig
from .reranker import ModelScorer, RerankConfig
from .synthgen import SyntheticSpec, synth_gen


class StageError(RuntimeError):
    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@contextlib.contextmanager
def _stage(name):
    """Re-raise a failure inside the block as StageError(name); a StageError
    from a stage read inside the block keeps its own name."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


@dataclass
class ExperimentConfig:
    seeds: list = field(default_factory=lambda: [42])
    output_dir: str = "out"
    synthetic: dict = field(default_factory=dict)  # SyntheticSpec fields
    manifest_path: str = None  # alternative to synthetic
    payload_path: str = None
    sampler: dict = field(default_factory=dict)  # SamplerConfig fields
    comparator: dict = field(default_factory=dict)  # ComparatorConfig overrides
    train: dict = field(default_factory=dict)  # TrainConfig fields
    rerank: dict = field(default_factory=dict)  # RerankConfig fields
    subsample_fraction: float = 1.0

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("seed list must be non-empty")
        if not 0 < self.subsample_fraction <= 1:
            raise ValueError("subsample fraction must be in (0, 1]")

    @staticmethod
    def from_json(text):
        return ExperimentConfig(**json.loads(text))

    @staticmethod
    def load(path):
        with open(path) as fh:
            return ExperimentConfig.from_json(fh.read())


def _build_data(cfg, seed):
    spec = SyntheticSpec(**cfg.synthetic)
    if not cfg.manifest_path:
        store, centroids = synth_gen(spec, seed)
        return store, centroids, spec
    store = EmbeddingStore.load(cfg.manifest_path, cfg.payload_path)
    # frozen-classifier files are a secondary concern; fall back to
    # class-mean centroids over the train split
    labels = store.labels("train")
    pooled = store.pooled_all("train")
    centroids = np.stack(
        [pooled[labels == c].mean(axis=0) for c in range(store.manifest.num_classes)]
    )
    return store, centroids, spec


class Pipeline:
    """One seed's stages up to (but not including) comparator training.

    The data stage (`store`, `centroids`, `spec`) loads at construction,
    and the classifier and the sampler, comparator, training and re-rank
    configs are built then too, so a bad config section fails, as
    StageError naming the stage that reads it, before any stage runs (a
    class with fewer indexed train records than `n_neighbors` fails as
    "evaluation"); `index`, `out_train`, `out_test`, `train_pairs` and
    `eval_pairs` are each built on first read and then kept, so a caller
    pays only for the stages it reads. Every stage is seeded per record or
    per query, so build order does not change any output. A stage that
    fails raises StageError naming it and stays unbuilt.
    """

    def __init__(self, cfg, seed):
        self.cfg, self.seed = cfg, seed
        with _stage("data"):
            self.store, self.centroids, self.spec = _build_data(cfg, seed)
        spec = self.spec
        with _stage("classifier"):
            self.classifier = SyntheticClassifier(
                self.centroids, tau=spec.tau, corruption_rate=spec.corruption_rate,
                corruption_q=spec.corruption_q, seed=seed,
            )
        with _stage("sampling"):
            self.sampler_cfg = SamplerConfig(**{"seed": seed, **cfg.sampler})
        manifest = self.store.manifest
        with _stage("training"):
            self.comparator_cfg = ComparatorConfig(
                **{"depth": manifest.depth, "tokens": manifest.tokens, **cfg.comparator}
            )
            self.train_cfg = TrainConfig(**{"seed": seed, **cfg.train})
        with _stage("evaluation"):
            self.rerank_cfg = RerankConfig(**cfg.rerank)
            sizes = np.bincount(self.store.labels("train"), minlength=manifest.num_classes)
            kept = kept_per_class(sizes, cfg.subsample_fraction)
            need = self.rerank_cfg.n_neighbors
            short = (kept < need).nonzero()[0]
            if len(short):
                raise ValueError(f"class {short[0]}: n_neighbors {need} exceeds its "
                                 f"{kept[short[0]]} indexed train records")

    @cached_property
    def index(self):
        with _stage("index"):
            index = ClassIndex.build(self.store)
            if self.cfg.subsample_fraction < 1.0:
                index = index.subsample(self.cfg.subsample_fraction, self.seed)
            return index

    @cached_property
    def out_train(self):
        with _stage("classifier"):
            return self.classifier.predict_split(self.store, "train")

    @cached_property
    def out_test(self):
        with _stage("classifier"):
            return self.classifier.predict_split(self.store, "test")

    @cached_property
    def train_pairs(self):
        with _stage("sampling"):
            return pairsampler.sample_train(
                self.store, self.out_train, self.index, self.sampler_cfg
            )

    @cached_property
    def eval_pairs(self):
        with _stage("sampling"):
            return pairsampler.sample_eval(
                self.store, self.out_test, self.index, self.sampler_cfg
            )


def prepare(cfg, seed):
    """Load the data stage of one seed; every later stage builds on first read.

    Raises StageError at once for a bad manifest or payload ("data") or a
    bad config section (the stage that reads it); the returned Pipeline
    raises StageError naming any later stage that fails.
    """
    return Pipeline(cfg, seed)


def train_comparator(pipe):
    """Train a fresh comparator on the pipeline's train pairs, selecting the
    epoch by F1 on its eval pairs."""
    with _stage("training"):
        model = ComparatorModel(pipe.comparator_cfg, seed=pipe.seed)
        return comparator.train(
            model, pipe.store, pipe.train_pairs, pipe.eval_pairs, pipe.train_cfg
        )


# ------------------------------------------------------------------ steps
#
# Each step reads the lazy Pipeline, writes its files into a seed directory
# and returns the JSON document it reports.


def seed_dir(cfg, seed):
    """The output directory of one seed, created if missing."""
    path = os.path.join(cfg.output_dir, f"seed_{seed}")
    os.makedirs(path, exist_ok=True)
    return path


def checkpoint_paths(out):
    """(blob, header) paths of the checkpoint in a seed directory."""
    return os.path.join(out, "checkpoint.bin"), os.path.join(out, "checkpoint.json")


def data_step(pipe, out):
    """Write the store and the classifier centroids."""
    manifest = os.path.join(out, "manifest.json")
    pipe.store.save(manifest, os.path.join(out, "payload.bin"))
    with atomic_open(os.path.join(out, "centroids.json")) as fh:
        json.dump(pipe.centroids.tolist(), fh)
    return {"manifest": manifest,
            "records": {s: pipe.store.size(s) for s in ("train", "test")}}


def pairs_step(pipe, out):
    """Write the train and eval pairs; report their counts and the 2Q-1/2Q audit."""
    pairsampler.save_pairs(pipe.train_pairs, os.path.join(out, "pairs_train.jsonl"))
    pairsampler.save_pairs(pipe.eval_pairs, os.path.join(out, "pairs_eval.jsonl"))
    audit = pairsampler.pair_count_audit(
        pipe.train_pairs, pipe.store.ids("train"), pipe.sampler_cfg.q
    )
    return {"train_pairs": len(pipe.train_pairs), "eval_pairs": len(pipe.eval_pairs),
            "audit_ok": audit.ok, "audit_expected": audit.expected}


def train_step(pipe, out):
    """Train the comparator; write checkpoint.* and train_report.json.

    Returns the model, restored to the selected epoch, the training report
    and the selected epoch with its F1, which the checkpoint header's
    `extra` also holds next to the seed.
    """
    model, report = train_comparator(pipe)
    doc = {"selected_epoch": report.selected_epoch,
           "f1": report.epochs[report.selected_epoch]["f1"]}
    comparator.save_checkpoint(model, *checkpoint_paths(out),
                               extra={"seed": pipe.seed, **doc})
    with atomic_open(os.path.join(out, "train_report.json")) as fh:
        fh.write(report.to_json())
    return model, report, doc


def eval_step(pipe, model):
    """Binary pair metrics of the model on the eval pairs, as a JSON document:
    an empty confusion cell's mean confidence (NaN) is None."""
    with _stage("evaluation"):
        doc = asdict(comparator.evaluate_binary(model, pipe.store, pipe.eval_pairs))
    doc["mean_confidence"] = {cell: None if np.isnan(v) else v
                              for cell, v in doc["mean_confidence"].items()}
    return doc


def rerank_step(pipe, model, out):
    """Soft and hard re-ranking of the test split; write both rerank_*.jsonl."""
    with _stage("evaluation"):
        rr = reranker.evaluate_rerank(pipe.store, pipe.out_test, pipe.index,
                                      ModelScorer(model), pipe.rerank_cfg)
    reranker.save_results(rr.results_soft, os.path.join(out, "rerank_soft.jsonl"))
    reranker.save_results(rr.results_hard, os.path.join(out, "rerank_hard.jsonl"))
    return {"accuracy_c": rr.accuracy_c, "accuracy_soft": rr.accuracy_soft,
            "accuracy_hard": rr.accuracy_hard,
            "mean_comparator_queries": rr.mean_comparator_queries}


def sanity_step(pipe, model):
    """Rates of self, random-valued and shuffled pairs scored as a match."""
    with _stage("evaluation"):
        return asdict(reranker.sanity_suite(model, pipe.store, seed=pipe.seed))


def ceiling_step(pipe):
    """Top-Q accuracy of the classifier on the test split, Q = 1..min(C, 20)."""
    with _stage("evaluation"):
        q_max = min(pipe.store.manifest.num_classes, 20)
        return reranker.topq_ceiling(pipe.store, pipe.out_test, range(1, q_max + 1))


def run_seed(cfg, seed, out_dir):
    """Every step of one seed into out_dir, then results.json."""
    os.makedirs(out_dir, exist_ok=True)
    pipe = prepare(cfg, seed)
    pairs_step(pipe, out_dir)
    model, report, _ = train_step(pipe, out_dir)
    # the restored model is the selected epoch's, so its eval metrics stand
    best = report.epochs[report.selected_epoch]
    results = {
        "seed": seed,
        "binary": {"accuracy": best["eval_accuracy"],
                   **{k: best[k] for k in ("precision", "recall", "f1")}},
        "rerank": rerank_step(pipe, model, out_dir),
        "sanity": sanity_step(pipe, model),
        "topq_ceiling": ceiling_step(pipe),
        "selected_epoch": report.selected_epoch,
    }
    with atomic_open(os.path.join(out_dir, "results.json")) as fh:
        json.dump(results, fh, indent=2)
    return results


def run(cfg):
    """Execute every seed and write per-seed plus mean/std summaries."""
    per_seed = [run_seed(cfg, seed, seed_dir(cfg, seed)) for seed in cfg.seeds]

    def agg(path):
        vals = per_seed
        for key in path:
            vals = [v[key] for v in vals]
        return {"mean": float(np.mean(vals)), "std": float(np.std(vals))}

    summary = {
        "seeds": cfg.seeds,
        "binary_accuracy": agg(["binary", "accuracy"]),
        "binary_f1": agg(["binary", "f1"]),
        "accuracy_c": agg(["rerank", "accuracy_c"]),
        "accuracy_soft": agg(["rerank", "accuracy_soft"]),
        "accuracy_hard": agg(["rerank", "accuracy_hard"]),
        "mean_comparator_queries": agg(["rerank", "mean_comparator_queries"]),
        "per_seed": per_seed,
    }
    with atomic_open(os.path.join(cfg.output_dir, "summary.json")) as fh:
        json.dump(summary, fh, indent=2)
    return summary
