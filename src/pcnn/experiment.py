"""End-to-end experiment orchestration driven by one JSON config.

Stages per seed: generate (or load) data, build the index, run the
synthetic classifier, sample pairs, train the comparator, evaluate the
binary task and the re-ranking task, run sanity checks, and write every
artifact under the output directory. The step functions below own the
seed directory's files, and each takes only the lazy `Pipeline`, which owns
the seed directory and the trained model. `run_seed` runs the pairs,
training, re-rank, sanity and ceiling steps, and each `pcnn` config command
runs one entry of `STEPS`, so both write the same bytes.
"""

import contextlib
import json
import os
from collections import Counter
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
from .validate import check_ints, check_reals, is_int, is_int64


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
    comparator: dict = field(default_factory=dict)  # ComparatorConfig fields but depth, tokens
    train: dict = field(default_factory=dict)  # TrainConfig fields
    rerank: dict = field(default_factory=dict)  # RerankConfig fields
    subsample_fraction: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.seeds, list) and self.seeds
                and all(is_int(seed) and seed >= 0 for seed in self.seeds)):
            raise ValueError(f"seeds must be a non-empty list of integers >= 0, "
                             f"got {self.seeds!r}")
        if not all(is_int64(seed) for seed in self.seeds):
            raise ValueError(f"seeds must be integers that int64 holds, got {self.seeds!r}")
        check_reals(self, subsample_fraction="(0, 1]")
        if (self.manifest_path is None) != (self.payload_path is None):
            raise ValueError("manifest_path and payload_path must be set together")
        # a repeated seed would train twice into one directory and count
        # twice in the summary's means
        repeated = sorted(seed for seed, n in Counter(self.seeds).items() if n > 1)
        if repeated:
            raise ValueError(f"seeds must be distinct, got {self.seeds!r}: "
                             f"{', '.join(map(str, repeated))} repeated")

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
    """One seed's stages, its seed directory and its comparator.

    The data stage (`store`, `centroids`, `spec`) loads at construction,
    and the classifier and the sampler, comparator, training and re-rank
    configs are built then too, so a bad config section fails, as
    StageError naming the stage that reads it, before any stage runs (a
    class with fewer indexed train records than `n_neighbors` fails as
    "evaluation"; a `comparator.depth` or `tokens`, which the store fixes,
    as "training"), and a `seed` that is not an integer >= 0 fails as a
    ValueError naming it before the data stage; `index`, `out_train`,
    `out_test`, `train_pairs`, `eval_pairs`, `out`, `trained` and `model`
    are each built on first read and then kept, so a caller pays only for
    the stages it reads. Every stage is seeded per record or per query, so
    build order does not change any output. A stage that fails raises
    StageError naming it and stays unbuilt.
    """

    def __init__(self, cfg, seed, out=None):
        self.cfg, self.seed, self._out = cfg, seed, out
        check_ints(self, seed=0)
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
                **cfg.comparator, depth=manifest.depth, tokens=manifest.tokens
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

    @cached_property
    def out(self):
        """The seed directory, `<output_dir>/seed_<seed>` unless given; created
        on first read."""
        path = self._out or os.path.join(self.cfg.output_dir, f"seed_{self.seed}")
        os.makedirs(path, exist_ok=True)
        return path

    @cached_property
    def trained(self):
        """(model, report) of a comparator trained on this seed's pairs."""
        return train_comparator(self)

    @cached_property
    def model(self):
        """The comparator in the seed directory's checkpoint; a CheckpointError
        naming the first field where its config differs from this run's."""
        blob, header = checkpoint_paths(self.out)
        if not os.path.exists(blob):
            raise FileNotFoundError(f"no checkpoint at {blob}; run `train` first")
        model = comparator.load_checkpoint(blob, header)[0]
        saved, run = model.cfg, self.comparator_cfg
        if saved != run:
            name = next(n for n in asdict(saved) if getattr(saved, n) != getattr(run, n))
            raise comparator.CheckpointError(
                f"{header}: comparator {name} is {getattr(saved, name)!r}, "
                f"the config's {getattr(run, name)!r}")
        return model


def prepare(cfg, seed, out=None):
    """Load the data stage of one seed; every later stage builds on first read.

    Raises StageError at once for a bad manifest or payload ("data") or a
    bad config section (the stage that reads it); the returned Pipeline
    raises StageError naming any later stage that fails. `out` is the seed
    directory, `<output_dir>/seed_<seed>` by default.
    """
    return Pipeline(cfg, seed, out)


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
# Each step reads the lazy Pipeline, writes its files into `pipe.out` and
# returns the JSON document it reports. A step that scores reads
# `pipe.model` before its evaluation stage, so a missing checkpoint stays a
# FileNotFoundError.


def checkpoint_paths(out):
    """(blob, header) paths of the checkpoint in a seed directory."""
    return os.path.join(out, "checkpoint.bin"), os.path.join(out, "checkpoint.json")


def data_step(pipe):
    """Write the store and the classifier centroids."""
    manifest = os.path.join(pipe.out, "manifest.json")
    pipe.store.save(manifest, os.path.join(pipe.out, "payload.bin"))
    with atomic_open(os.path.join(pipe.out, "centroids.json")) as fh:
        json.dump(pipe.centroids.tolist(), fh)
    return {"manifest": manifest,
            "records": {s: pipe.store.size(s) for s in ("train", "test")}}


def pairs_step(pipe):
    """Write the train and eval pairs; report their counts and the 2Q-1/2Q audit."""
    pairsampler.save_pairs(pipe.train_pairs, os.path.join(pipe.out, "pairs_train.jsonl"))
    pairsampler.save_pairs(pipe.eval_pairs, os.path.join(pipe.out, "pairs_eval.jsonl"))
    audit = pairsampler.pair_count_audit(
        pipe.train_pairs, pipe.store.ids("train"), pipe.sampler_cfg.q
    )
    return {"train_pairs": len(pipe.train_pairs), "eval_pairs": len(pipe.eval_pairs),
            "audit_ok": audit.ok, "audit_expected": audit.expected}


def train_step(pipe):
    """Train the comparator; write checkpoint.* and train_report.json.

    Returns the selected epoch and its F1, which the checkpoint header's
    `extra` also holds next to the seed.
    """
    model, report = pipe.trained
    doc = {"selected_epoch": report.selected_epoch,
           "f1": report.epochs[report.selected_epoch]["f1"]}
    comparator.save_checkpoint(model, *checkpoint_paths(pipe.out),
                               extra={"seed": pipe.seed, **doc})
    with atomic_open(os.path.join(pipe.out, "train_report.json")) as fh:
        fh.write(report.to_json())
    return doc


def eval_step(pipe):
    """Binary pair metrics of the model on the eval pairs, as a JSON document:
    an empty confusion cell's mean confidence (NaN) is None."""
    model = pipe.model
    with _stage("evaluation"):
        doc = asdict(comparator.evaluate_binary(model, pipe.store, pipe.eval_pairs))
    doc["mean_confidence"] = {cell: None if np.isnan(v) else v
                              for cell, v in doc["mean_confidence"].items()}
    return doc


def rerank_step(pipe):
    """Soft and hard re-ranking of the test split; write both rerank_*.jsonl."""
    model = pipe.model
    with _stage("evaluation"):
        rr = reranker.evaluate_rerank(pipe.store, pipe.out_test, pipe.index,
                                      ModelScorer(model), pipe.rerank_cfg)
    reranker.save_results(rr.results_soft, os.path.join(pipe.out, "rerank_soft.jsonl"))
    reranker.save_results(rr.results_hard, os.path.join(pipe.out, "rerank_hard.jsonl"))
    return {"accuracy_c": rr.accuracy_c, "accuracy_soft": rr.accuracy_soft,
            "accuracy_hard": rr.accuracy_hard,
            "mean_comparator_queries": rr.mean_comparator_queries}


def sanity_step(pipe):
    """Rates of self, random-valued and shuffled pairs scored as a match."""
    model = pipe.model
    with _stage("evaluation"):
        return asdict(reranker.sanity_suite(model, pipe.store, seed=pipe.seed))


def ceiling_step(pipe):
    """Top-Q accuracy of the classifier on the test split, Q = 1..min(C, 20)."""
    with _stage("evaluation"):
        q_max = min(pipe.store.manifest.num_classes, 20)
        return reranker.topq_ceiling(pipe.store, pipe.out_test, range(1, q_max + 1))


# `pcnn <command>` runs one step on `prepare(config, seed)`
STEPS = {"synth": data_step, "sample": pairs_step, "train": train_step,
         "eval": eval_step, "rerank": rerank_step, "sanity": sanity_step,
         "ceiling": ceiling_step}


def run_seed(cfg, seed, out_dir=None):
    """Every step of one seed into out_dir (by default `<output_dir>/seed_<seed>`),
    then results.json. After training, each step reads the model from the
    checkpoint, as a `pcnn` command does."""
    pipe = prepare(cfg, seed, out_dir)
    pairs_step(pipe)
    train_step(pipe)
    # the checkpoint holds the selected epoch, so its eval metrics stand
    report = pipe.trained[1]
    best = report.epochs[report.selected_epoch]
    results = {
        "seed": seed,
        "binary": {"accuracy": best["eval_accuracy"],
                   **{k: best[k] for k in ("precision", "recall", "f1")}},
        "rerank": rerank_step(pipe),
        "sanity": sanity_step(pipe),
        "topq_ceiling": ceiling_step(pipe),
        "selected_epoch": report.selected_epoch,
    }
    with atomic_open(os.path.join(pipe.out, "results.json")) as fh:
        json.dump(results, fh, indent=2)
    return results


def run(cfg):
    """Execute every seed and write per-seed plus mean/std summaries."""
    per_seed = [run_seed(cfg, seed) for seed in cfg.seeds]

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
