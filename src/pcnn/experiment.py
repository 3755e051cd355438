"""End-to-end experiment orchestration driven by one JSON config.

Stages per seed: generate (or load) data, build the index, run the
synthetic classifier, sample pairs, train the comparator, evaluate the
binary task and the re-ranking task, run sanity checks, and write every
artifact under the output directory.
"""

import contextlib
import json
import os
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from . import comparator, pairsampler, reranker
from .classifier import SyntheticClassifier
from .comparator import ComparatorConfig, ComparatorModel, TrainConfig
from .embedstore import EmbeddingStore
from .nnindex import ClassIndex
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

    @staticmethod
    def from_json(text):
        return ExperimentConfig(**json.loads(text))

    @staticmethod
    def load(path):
        with open(path) as fh:
            return ExperimentConfig.from_json(fh.read())


def _build_data(cfg, seed):
    if cfg.manifest_path:
        store = EmbeddingStore.load(cfg.manifest_path, cfg.payload_path)
        spec = SyntheticSpec(**cfg.synthetic) if cfg.synthetic else SyntheticSpec()
        centroids = None
    else:
        spec = SyntheticSpec(**cfg.synthetic)
        store, centroids = synth_gen(spec, seed)
    if centroids is None:
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

    The data stage (`store`, `centroids`, `spec`) loads at construction;
    `index`, `classifier`, `out_train`, `out_test`, `train_pairs` and
    `eval_pairs` are each built on first read and then kept, so a caller
    pays only for the stages it reads. Every stage is seeded per record or
    per query, so build order does not change any output. A stage that
    fails raises StageError naming it and stays unbuilt.
    """

    def __init__(self, cfg, seed):
        self.cfg, self.seed = cfg, seed
        with _stage("data"):
            self.store, self.centroids, self.spec = _build_data(cfg, seed)
        self.sampler_cfg = SamplerConfig(**{**{"seed": seed}, **cfg.sampler})

    @cached_property
    def index(self):
        with _stage("index"):
            index = ClassIndex.build(self.store)
            if self.cfg.subsample_fraction < 1.0:
                index = index.subsample(self.cfg.subsample_fraction, self.seed)
            return index

    @cached_property
    def classifier(self):
        spec = self.spec
        with _stage("classifier"):
            return SyntheticClassifier(
                self.centroids, tau=spec.tau, corruption_rate=spec.corruption_rate,
                corruption_q=spec.corruption_q, seed=self.seed,
            )

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

    Raises StageError("data") at once for a bad manifest or payload; the
    returned Pipeline raises StageError naming any later stage that fails.
    """
    return Pipeline(cfg, seed)


def train_comparator(cfg, seed, pipe):
    comp_cfg = ComparatorConfig(
        **{
            **{"depth": pipe.store.manifest.depth, "tokens": pipe.store.manifest.tokens},
            **cfg.comparator,
        }
    )
    train_cfg = TrainConfig(**{**{"seed": seed}, **cfg.train})
    model = ComparatorModel(comp_cfg, seed=seed)
    with _stage("training"):
        return comparator.train(
            model, pipe.store, pipe.train_pairs, pipe.eval_pairs, train_cfg
        )


def run_seed(cfg, seed, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    pipe = prepare(cfg, seed)
    model, report = train_comparator(cfg, seed, pipe)
    store, index, out_test = pipe.store, pipe.index, pipe.out_test
    train_pairs, eval_pairs = pipe.train_pairs, pipe.eval_pairs

    # the restored model is the selected epoch's, so its eval metrics stand
    best = report.epochs[report.selected_epoch]
    binary = {"accuracy": best["eval_accuracy"],
              **{k: best[k] for k in ("precision", "recall", "f1")}}
    with _stage("evaluation"):
        rr_cfg = RerankConfig(**cfg.rerank)
        rr = reranker.evaluate_rerank(store, out_test, index, ModelScorer(model), rr_cfg)
        sanity = reranker.sanity_suite(model, store, seed=seed)
        ceiling = reranker.topq_ceiling(
            store, out_test, range(1, min(store.manifest.num_classes, 20) + 1)
        )

    comparator.save_checkpoint(
        model,
        os.path.join(out_dir, "checkpoint.bin"),
        os.path.join(out_dir, "checkpoint.json"),
        extra={"seed": seed, "selected_epoch": report.selected_epoch, "f1": binary["f1"]},
    )
    with open(os.path.join(out_dir, "train_report.json"), "w") as fh:
        fh.write(report.to_json())
    reranker.save_results(rr.results_soft, os.path.join(out_dir, "rerank_soft.jsonl"))
    reranker.save_results(rr.results_hard, os.path.join(out_dir, "rerank_hard.jsonl"))
    pairsampler.save_pairs(train_pairs, os.path.join(out_dir, "pairs_train.jsonl"))
    pairsampler.save_pairs(eval_pairs, os.path.join(out_dir, "pairs_eval.jsonl"))

    results = {
        "seed": seed,
        "binary": binary,
        "rerank": {
            "accuracy_c": rr.accuracy_c,
            "accuracy_soft": rr.accuracy_soft,
            "accuracy_hard": rr.accuracy_hard,
            "mean_comparator_queries": rr.mean_comparator_queries,
        },
        "sanity": asdict(sanity),
        "topq_ceiling": ceiling,
        "selected_epoch": report.selected_epoch,
    }
    with open(os.path.join(out_dir, "results.json"), "w") as fh:
        json.dump(results, fh, indent=2)
    return results


def run(cfg):
    """Execute every seed and write per-seed plus mean/std summaries."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    per_seed = []
    for seed in cfg.seeds:
        out_dir = os.path.join(cfg.output_dir, f"seed_{seed}")
        per_seed.append(run_seed(cfg, seed, out_dir))

    def agg(path):
        vals = [r for r in per_seed]
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
    with open(os.path.join(cfg.output_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary
