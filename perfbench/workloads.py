"""The benchmark workloads: set-up, warm-up, timed job and output check each.

A workload's `setup` is timed as set-up and repeated; `warmup` runs once
after it, untimed, so that first-call costs stay out of the timed jobs; `job`
is the timed unit and returns the operations it attempted with their wall
times; `check` runs outside the timed region and returns the problems it
found, each naming the operation it fails. A failed operation counts against
`success_rate` and gives no timing.

Every input is generated from the workload seed. SHAPES holds the sizes the
benchmark runs; TINY holds the sizes the self-tests run.
"""

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from pcnn import cli, pairsampler
from pcnn.classifier import SyntheticClassifier
from pcnn.experiment import ExperimentConfig, run_seed
from pcnn.nnindex import ClassIndex
from pcnn.pairsampler import SamplerConfig
from pcnn.synthgen import SyntheticSpec, synth_gen

from perfbench.trace import CLI_COMMANDS

SHAPES = {
    # acceptance shape: default SyntheticSpec, Q=10, K=10; ten epochs is the
    # shortest run in which the comparator lifts C x S above C
    "seed": {"spec": {}, "q": 10, "k": 10, "epochs": 10, "max_lr": 0.05,
             "warmup_spec": {"classes": 4, "train_per_class": 6, "test_per_class": 4,
                             "depth": 16, "tokens": 2, "groups": 2}},
    # the c02 scale: 10k train queries, each sampled against 10 classes
    "prepare_10k": {"spec": {"classes": 20, "train_per_class": 500, "test_per_class": 50,
                             "depth": 16, "tokens": 2}, "q": 10},
    # 1200 test queries; one training epoch suffices because inference cost
    # does not depend on how well the checkpoint was trained
    "posttrain_cli": {"spec": {"classes": 20, "train_per_class": 30, "test_per_class": 60},
                      "q": 10, "k": 10, "epochs": 1, "max_lr": 0.05},
}

_TINY_SPEC = {"classes": 4, "train_per_class": 6, "test_per_class": 4,
              "depth": 16, "tokens": 2, "groups": 2}
TINY = {
    "seed": {"spec": _TINY_SPEC, "q": 2, "k": 3, "epochs": 1, "max_lr": 0.05,
             "warmup_spec": _TINY_SPEC},
    "prepare_10k": {"spec": _TINY_SPEC, "q": 3},
    "posttrain_cli": {"spec": _TINY_SPEC, "q": 2, "k": 3, "epochs": 1, "max_lr": 0.05},
}


class SetupError(RuntimeError):
    pass


@dataclass
class Op:
    name: str
    seconds: float
    error: str = None


@dataclass
class JobOutput:
    ops: list
    values: dict = field(default_factory=dict)  # what `check` inspects


def _timed(name, fn, *args):
    """Run fn(*args) as one operation; an exception becomes the op's error."""
    t0 = time.perf_counter()
    try:
        value = fn(*args)
        error = None
    except Exception as exc:  # a failed operation is counted, not fatal
        value, error = None, f"{type(exc).__name__}: {exc}"
    return Op(name, time.perf_counter() - t0, error), value


# -------------------------------------------------------------------- seed

SEED_ARTIFACTS = ("checkpoint.bin", "checkpoint.json", "train_report.json",
                  "rerank_soft.jsonl", "rerank_hard.jsonl", "pairs_train.jsonl",
                  "pairs_eval.jsonl", "results.json")
RESULT_KEYS = {
    "binary": ("accuracy", "precision", "recall", "f1"),
    "rerank": ("accuracy_c", "accuracy_soft", "accuracy_hard", "mean_comparator_queries"),
    "sanity": ("self_pair_rate", "random_grid_rate", "shuffled_grid_rate"),
}


class SeedWorkload:
    """One `experiment.run_seed` at the acceptance shape."""

    name = "seed"
    # set-up is short, so it is repeated often enough for a steady median
    setup_repeats = 9
    min_jobs = 1

    def __init__(self, shape, seed, workdir):
        self.shape, self.seed, self.workdir = shape, seed, workdir
        self.jobs = 0

    def _config(self, spec, q, k, epochs, out):
        return ExperimentConfig(
            seeds=[self.seed], output_dir=out, synthetic=dict(spec),
            sampler={"q": q}, train={"epochs": epochs, "max_lr": self.shape["max_lr"]},
            rerank={"k": k},
        )

    def setup(self, repeat):
        # warm-up: a tiny seed through every stage, so imports, BLAS start-up
        # and first-call costs are paid before timing
        out = os.path.join(self.workdir, f"warmup{repeat}")
        cfg = self._config(self.shape["warmup_spec"], 2, 3, 1, out)
        run_seed(cfg, self.seed, out)

    def warmup(self):
        pass  # set-up already runs every stage

    def job(self, span):
        out = os.path.join(self.workdir, f"job{self.jobs}")
        self.jobs += 1
        shape = self.shape
        cfg = self._config(shape["spec"], shape["q"], shape["k"], shape["epochs"], out)
        op, results = _timed("run_seed", run_seed, cfg, self.seed, out)
        return JobOutput([op], {"results": results, "out": out})

    def check(self, output):
        results, out = output.values["results"], output.values["out"]
        if results is None:
            return [], {}
        problems = []
        for name in SEED_ARTIFACTS:
            if not os.path.isfile(os.path.join(out, name)):
                problems.append(f"missing artifact {name}")
        try:
            with open(os.path.join(out, "results.json")) as fh:
                stored = json.load(fh)
        except (OSError, ValueError) as exc:
            return [("run_seed", f"results.json unreadable: {exc}")], {}
        if stored != json.loads(json.dumps(results)):
            problems.append("results.json differs from the returned results")
        for group, keys in RESULT_KEYS.items():
            for key in keys:
                if key not in stored.get(group, {}):
                    problems.append(f"results.json lacks {group}.{key}")
        if problems:
            return [("run_seed", p) for p in problems], {}
        rr, binary = stored["rerank"], stored["binary"]
        if stored.get("seed") != self.seed:
            problems.append(f"seed {stored.get('seed')} != {self.seed}")
        if not 0 <= stored.get("selected_epoch", -1) < self.shape["epochs"]:
            problems.append(f"selected epoch {stored.get('selected_epoch')} out of range")
        for value in (*rr.values(), *binary.values(), *stored["sanity"].values()):
            if not isinstance(value, (int, float)) or not np.isfinite(value):
                problems.append(f"non-finite metric {value!r}")
        for key in ("accuracy_c", "accuracy_soft", "accuracy_hard"):
            if not 0 <= rr[key] <= 1:
                problems.append(f"{key} {rr[key]} outside [0, 1]")
        if stored["topq_ceiling"].get("1") != rr["accuracy_c"]:
            problems.append("top-1 ceiling differs from C accuracy")
        if rr["mean_comparator_queries"] != self.shape["k"]:
            problems.append(f"mean comparator queries {rr['mean_comparator_queries']}")
        # the paper's claim at this shape: re-ranking with S beats C alone
        if self.shape["epochs"] >= 10 and not rr["accuracy_soft"] > rr["accuracy_c"]:
            problems.append(f"C x S {rr['accuracy_soft']} does not beat C {rr['accuracy_c']}")
        with open(os.path.join(out, "rerank_soft.jsonl")) as fh:
            lines = sum(1 for _ in fh)
        n_test = self.shape["spec"].get("classes", 20) * self.shape["spec"].get(
            "test_per_class", 30)
        if lines != n_test:
            problems.append(f"rerank_soft.jsonl has {lines} lines, expected {n_test}")
        quality = {"acc_c": rr["accuracy_c"], "acc_soft": rr["accuracy_soft"],
                   "acc_hard": rr["accuracy_hard"], "binary_f1": binary["f1"]}
        return [("run_seed", p) for p in problems], quality


# ------------------------------------------------------------- prepare_10k


class PrepareWorkload:
    """Index, classifier outputs and train/eval pair sampling at c02 scale."""

    name = "prepare_10k"
    setup_repeats = 9
    min_jobs = 2
    CHECKED_QUERIES = 100

    def __init__(self, shape, seed, workdir):
        self.shape, self.seed, self.workdir = shape, seed, workdir
        self.spec = SyntheticSpec(**shape["spec"])
        self.digest = None

    def setup(self, repeat):
        store, centroids = synth_gen(self.spec, self.seed)
        if repeat and store.manifest.checksum != self.store.manifest.checksum:
            raise SetupError("synth_gen is not deterministic for one seed")
        self.store, self.centroids = store, centroids

    def warmup(self):
        # the first pass of a process runs 5-15% slower while the heap grows
        self._prepare()

    def _prepare(self):
        store, spec = self.store, self.spec
        index = ClassIndex.build(store)
        clf = SyntheticClassifier(self.centroids, tau=spec.tau,
                                  corruption_rate=spec.corruption_rate,
                                  corruption_q=spec.corruption_q, seed=self.seed)
        out_train = clf.predict_split(store, "train")
        out_test = clf.predict_split(store, "test")
        cfg = SamplerConfig(q=self.shape["q"], seed=self.seed)
        train_pairs = pairsampler.sample_train(store, out_train, index, cfg)
        eval_pairs = pairsampler.sample_eval(store, out_test, index, cfg)
        return {"out_train": out_train, "out_test": out_test, "train_pairs": train_pairs,
                "eval_pairs": eval_pairs}

    def job(self, span):
        op, values = _timed("prepare", self._prepare)
        return JobOutput([op], values or {})

    def check(self, output):
        v = output.values
        if not v:
            return [], {}
        problems = []
        store, q = self.store, self.shape["q"]
        train_pairs, out_train = v["train_pairs"], v["out_train"]
        ids = store.ids("train")
        audit = pairsampler.pair_count_audit(train_pairs, ids, q)
        if not audit.ok:
            problems.append(f"pair count audit failed: {audit.violations[:3]}")
        # the gt-in-top-Q flags and the 2Q-1 / 2Q total, recomputed here
        labels = store.labels("train")
        order = np.argsort(-out_train.probs, axis=1, kind="stable")[:, :q]
        hit = (order == labels[:, None]).any(axis=1)
        expected = int(np.sum(np.where(hit, 2 * q - 1, 2 * q)))
        if len(train_pairs) != expected:
            problems.append(f"{len(train_pairs)} train pairs, expected {expected}")
        if any(train_pairs.gt_in_topq.get(rid) != bool(h) for rid, h in zip(ids, hit)):
            problems.append("gt_in_topq flags disagree with the classifier outputs")
        problems += self._check_neighbors(train_pairs)
        eval_pairs = v["eval_pairs"]
        n_pos = len(eval_pairs.positives())
        if n_pos != len(eval_pairs.negatives()) or n_pos == 0:
            problems.append(f"eval pairs unbalanced: {n_pos} positives of {len(eval_pairs)}")
        digest = hashlib.sha256(repr(
            [(p.query_id, p.neighbor_id, p.label) for p in train_pairs.pairs]
            + [(p.query_id, p.neighbor_id, p.label) for p in eval_pairs.pairs]
        ).encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("pairs differ from the first job's pairs")
        test_labels = store.labels("test")
        acc_c = float(np.mean(np.argmax(v["out_test"].probs, axis=1) == test_labels))
        return [("prepare", p) for p in problems], {"acc_c": acc_c}

    def _check_neighbors(self, train_pairs):
        """Sampled (query, class) retrievals against a brute-force exact-L2
        order with ties broken by ascending id."""
        store, q = self.store, self.shape["q"]
        pooled = store.pooled_all("train")
        labels = store.labels("train")
        all_ids = np.array(store.ids("train"), dtype=np.int64)
        by_query = {}
        for p in train_pairs.pairs:
            by_query.setdefault(p.query_id, []).append(p)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xC4EC]))
        picked = rng.choice(all_ids, size=min(self.CHECKED_QUERIES, len(all_ids)),
                            replace=False)

        def brute(query, cid, exclude):
            mask = labels == cid
            cand, vecs = all_ids[mask], pooled[mask]
            diff = vecs - query
            dist = np.einsum("ij,ij->i", diff, diff)
            ranked = cand[np.lexsort((cand, dist))]
            return [int(i) for i in ranked if i != exclude]

        problems = []
        for qid in picked:
            qid = int(qid)
            pairs = by_query.get(qid, [])
            query = store.pooled("train", qid)
            gt = store.class_of("train", qid)
            pos = [p.neighbor_id for p in pairs if p.label == pairsampler.POSITIVE]
            want = brute(query, gt, qid)[:q]
            if pos != want:
                problems.append(f"query {qid}: positives {pos[:3]}.. != exact {want[:3]}..")
            negs = [p for p in pairs if p.label == pairsampler.NEGATIVE]
            if not negs:
                problems.append(f"query {qid}: no negatives")
                continue
            neg = negs[int(rng.integers(len(negs)))]
            want = brute(query, neg.source_class, None)[0]
            if neg.neighbor_id != want:
                problems.append(f"query {qid} class {neg.source_class}: neighbor "
                                f"{neg.neighbor_id} != exact {want}")
        return problems[:5]


# ----------------------------------------------------------- posttrain_cli

CLI_KEYS = {
    "eval": ("accuracy", "precision", "recall", "f1", "confusion", "mean_confidence"),
    "rerank": ("accuracy_c", "accuracy_soft", "accuracy_hard", "mean_comparator_queries"),
    "sanity": ("self_pair_rate", "random_grid_rate", "shuffled_grid_rate"),
}


def call_cli(argv):
    """Run `pcnn.cli.main` in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class PosttrainCliWorkload:
    """eval, rerank, sanity and ceiling of a trained checkpoint via the CLI."""

    name = "posttrain_cli"
    setup_repeats = 3
    min_jobs = 2
    COMMANDS = CLI_COMMANDS

    def __init__(self, shape, seed, workdir):
        self.shape, self.seed, self.workdir = shape, seed, workdir

    def _call(self, cmd, config_path):
        return call_cli([cmd, "--config", config_path, "--seed", str(self.seed)])

    def _run(self, cmd, config_path):
        code, out, err = self._call(cmd, config_path)
        if code != 0:
            raise SetupError(f"pcnn {cmd} exited {code}: {err.strip()}")
        return out

    def setup(self, repeat):
        """synth a store and train a checkpoint on it; every set-up of one
        seed must train the same checkpoint."""
        base = os.path.join(self.workdir, f"setup{repeat}")
        out_dir = os.path.join(base, "out")
        cfg = {"seeds": [self.seed], "output_dir": out_dir,
               "synthetic": dict(self.shape["spec"]), "sampler": {"q": self.shape["q"]},
               "train": {"epochs": self.shape["epochs"], "max_lr": self.shape["max_lr"]},
               "rerank": {"k": self.shape["k"]}}
        os.makedirs(base, exist_ok=True)
        synth_path = os.path.join(base, "synth.json")
        with open(synth_path, "w") as fh:
            json.dump(cfg, fh)
        self._run("synth", synth_path)
        seed_dir = os.path.join(out_dir, f"seed_{self.seed}")
        cfg["manifest_path"] = os.path.join(seed_dir, "manifest.json")
        cfg["payload_path"] = os.path.join(seed_dir, "payload.bin")
        config_path = os.path.join(base, "store.json")
        with open(config_path, "w") as fh:
            json.dump(cfg, fh)
        trained = json.loads(self._run("train", config_path))
        if repeat and trained != self.trained:
            raise SetupError("two set-ups of one seed trained different checkpoints")
        self.config_path, self.trained = config_path, trained

    def warmup(self):
        """One call of each command, recording what it prints; every timed
        call must print exactly the same."""
        self.reference = {cmd: self._run(cmd, self.config_path) for cmd in self.COMMANDS}

    def job(self, span):
        ops, outputs = [], {}
        for cmd in self.COMMANDS:
            with span(f"cli.{cmd}"):
                t0 = time.perf_counter()
                code, out, err = self._call(cmd, self.config_path)
                seconds = time.perf_counter() - t0
            error = None if code == 0 else f"exit {code}: {err.strip()[:300]}"
            ops.append(Op(cmd, seconds, error))
            outputs[cmd] = out
        return JobOutput(ops, outputs)

    def check(self, output):
        problems, docs = [], {}
        for op in output.ops:
            if op.error is not None:
                continue
            try:
                docs[op.name] = json.loads(output.values[op.name].strip().splitlines()[-1])
            except (ValueError, IndexError) as exc:
                problems.append((op.name, f"stdout is not JSON: {exc}"))
                continue
            for key in CLI_KEYS.get(op.name, ()):
                if key not in docs[op.name]:
                    problems.append((op.name, f"output lacks {key!r}"))
            if output.values[op.name] != self.reference[op.name]:
                problems.append((op.name, "output differs from the set-up call"))
        if problems:
            return problems, {}
        if "rerank" in docs and docs["rerank"]["mean_comparator_queries"] != self.shape["k"]:
            problems.append(("rerank", "not K comparator queries per query"))
        if "eval" in docs and docs["eval"]["f1"] != self.trained["f1"]:
            problems.append(("eval", f"f1 {docs['eval']['f1']} != trained "
                                     f"{self.trained['f1']}"))
        if "ceiling" in docs:
            table = docs["ceiling"]
            acc_c = json.loads(self.reference["rerank"])["accuracy_c"]
            q_max = min(self.shape["spec"]["classes"], 20)
            if sorted(table, key=int) != [str(q) for q in range(1, q_max + 1)]:
                problems.append(("ceiling", "rows are not 1..Q"))
            elif table["1"] != acc_c:
                problems.append(("ceiling", "top-1 ceiling differs from C accuracy"))
        if "sanity" in docs:
            if not all(0 <= docs["sanity"][k] <= 1 for k in CLI_KEYS["sanity"]):
                problems.append(("sanity", "rate outside [0, 1]"))
        quality = {}
        if "rerank" in docs:
            rr = docs["rerank"]
            quality = {"acc_c": rr["accuracy_c"], "acc_soft": rr["accuracy_soft"],
                       "acc_hard": rr["accuracy_hard"]}
        if "eval" in docs:
            quality["binary_f1"] = docs["eval"]["f1"]
        return problems, quality


WORKLOADS = {w.name: w for w in (SeedWorkload, PrepareWorkload, PosttrainCliWorkload)}
