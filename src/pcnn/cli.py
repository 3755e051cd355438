"""Command-line harness.

Every stage is driven by a single JSON experiment config; commands are
idempotent with respect to their declared outputs. On failure the process
exits nonzero after printing one machine-readable error JSON to stderr.
"""

import argparse
import json
import os
import sys

from . import comparator, pairsampler, reranker
from .atomicio import atomic_open
from .comparator import load_checkpoint
from .embedstore import EmbeddingStore
from .experiment import ExperimentConfig, prepare, run, train_comparator
from .nnindex import ClassIndex


def _fail(command, exc):
    err = {"command": command, "error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(err), file=sys.stderr)
    return 1


def _seed_dir(cfg, seed):
    path = os.path.join(cfg.output_dir, f"seed_{seed}")
    os.makedirs(path, exist_ok=True)
    return path


def _load_cfg(args):
    return ExperimentConfig.load(args.config)


def cmd_synth(args):
    cfg = _load_cfg(args)
    pipe = prepare(cfg, args.seed)
    out = _seed_dir(cfg, args.seed)
    pipe.store.save(os.path.join(out, "manifest.json"), os.path.join(out, "payload.bin"))
    with atomic_open(os.path.join(out, "centroids.json")) as fh:
        json.dump(pipe.centroids.tolist(), fh)
    print(json.dumps({"manifest": os.path.join(out, "manifest.json"),
                      "records": {s: pipe.store.size(s) for s in ("train", "test")}}))


def cmd_ingest(args):
    store = EmbeddingStore.load(args.manifest, args.payload)
    print(
        json.dumps(
            {
                "dataset": store.manifest.dataset,
                "classes": store.manifest.num_classes,
                "tokens": store.manifest.tokens,
                "depth": store.manifest.depth,
                "train": store.size("train"),
                "test": store.size("test"),
                "checksum": store.manifest.checksum,
            }
        )
    )


def cmd_index(args):
    store = EmbeddingStore.load(args.manifest, args.payload)
    index = ClassIndex.build(store)
    query = store.pooled(args.split, args.query_id)
    exclude = {args.query_id} if args.split == "train" else ()
    if args.class_id is not None:
        hits = index.nearest_k_in_class(query, args.class_id, args.k, exclude=exclude)
        table = [{"id": i, "distance": d} for i, d in hits]
    else:
        hits = index.topk_global(query, args.k, exclude=exclude)
        table = [{"id": i, "distance": d, "class": c} for i, d, c in hits]
    print(json.dumps({"query": args.query_id, "neighbors": table}))


def cmd_sample(args):
    cfg = _load_cfg(args)
    pipe = prepare(cfg, args.seed)
    out = _seed_dir(cfg, args.seed)
    pairsampler.save_pairs(pipe.train_pairs, os.path.join(out, "pairs_train.jsonl"))
    pairsampler.save_pairs(pipe.eval_pairs, os.path.join(out, "pairs_eval.jsonl"))
    audit = pairsampler.pair_count_audit(
        pipe.train_pairs, pipe.store.ids("train"), pipe.sampler_cfg.q
    )
    print(
        json.dumps(
            {
                "train_pairs": len(pipe.train_pairs),
                "eval_pairs": len(pipe.eval_pairs),
                "audit_ok": audit.ok,
                "audit_expected": audit.expected,
            }
        )
    )


def cmd_train(args):
    cfg = _load_cfg(args)
    pipe = prepare(cfg, args.seed)
    model, report = train_comparator(cfg, args.seed, pipe)
    out = _seed_dir(cfg, args.seed)
    comparator.save_checkpoint(
        model,
        os.path.join(out, "checkpoint.bin"),
        os.path.join(out, "checkpoint.json"),
        extra={"seed": args.seed, "selected_epoch": report.selected_epoch},
    )
    with atomic_open(os.path.join(out, "train_report.json")) as fh:
        fh.write(report.to_json())
    print(json.dumps({"selected_epoch": report.selected_epoch,
                      "f1": report.epochs[report.selected_epoch]["f1"]}))


def _load_model(cfg, seed):
    out = _seed_dir(cfg, seed)
    blob = os.path.join(out, "checkpoint.bin")
    header = os.path.join(out, "checkpoint.json")
    if not os.path.exists(blob):
        raise FileNotFoundError(f"no checkpoint at {blob}; run `train` first")
    model, _ = load_checkpoint(blob, header)
    return model, out


def cmd_rerank(args):
    cfg = _load_cfg(args)
    pipe = prepare(cfg, args.seed)
    model, out = _load_model(cfg, args.seed)
    rr_cfg = reranker.RerankConfig(**cfg.rerank)
    rr = reranker.evaluate_rerank(
        pipe.store, pipe.out_test, pipe.index, reranker.ModelScorer(model), rr_cfg
    )
    reranker.save_results(rr.results_soft, os.path.join(out, "rerank_soft.jsonl"))
    reranker.save_results(rr.results_hard, os.path.join(out, "rerank_hard.jsonl"))
    print(
        json.dumps(
            {
                "accuracy_c": rr.accuracy_c,
                "accuracy_soft": rr.accuracy_soft,
                "accuracy_hard": rr.accuracy_hard,
                "mean_comparator_queries": rr.mean_comparator_queries,
            }
        )
    )


def cmd_eval(args):
    cfg = _load_cfg(args)
    pipe = prepare(cfg, args.seed)
    model, _ = _load_model(cfg, args.seed)
    metrics = comparator.evaluate_binary(model, pipe.store, pipe.eval_pairs)
    print(
        json.dumps(
            {
                "accuracy": metrics.accuracy,
                "precision": metrics.precision,
                "recall": metrics.recall,
                "f1": metrics.f1,
                "confusion": metrics.confusion,
                "mean_confidence": metrics.mean_confidence,
            }
        )
    )


def cmd_sanity(args):
    cfg = _load_cfg(args)
    pipe = prepare(cfg, args.seed)
    model, _ = _load_model(cfg, args.seed)
    rep = reranker.sanity_suite(model, pipe.store, seed=args.seed)
    print(
        json.dumps(
            {
                "self_pair_rate": rep.self_pair_rate,
                "random_grid_rate": rep.random_grid_rate,
                "shuffled_grid_rate": rep.shuffled_grid_rate,
            }
        )
    )


def cmd_ceiling(args):
    cfg = _load_cfg(args)
    pipe = prepare(cfg, args.seed)
    q_max = min(pipe.store.manifest.num_classes, args.q_max)
    table = reranker.topq_ceiling(pipe.store, pipe.out_test, range(1, q_max + 1))
    print(json.dumps(table))


def cmd_explain(args):
    store = EmbeddingStore.load(args.manifest, args.payload)
    docs = []
    valid_test = set(store.ids("test"))
    valid_train = set(store.ids("train"))
    with open(args.results) as fh:
        for line in fh:
            doc = json.loads(line)
            if doc["query"] not in valid_test:
                raise KeyError(f"dangling query id {doc['query']}")
            for entry in doc["classes"]:
                for nid in entry["neighbors"]:
                    if nid not in valid_train:
                        raise KeyError(f"dangling neighbor id {nid}")
                entry["class_name"] = store.manifest.class_names[entry["class"]]
            docs.append(doc)
    with atomic_open(args.out) as fh:
        json.dump({"explanations": docs}, fh, indent=2)
    print(json.dumps({"queries": len(docs), "out": args.out}))


def cmd_sweep(args):
    cfg = _load_cfg(args)
    summary = run(cfg)
    print(
        json.dumps(
            {
                "seeds": summary["seeds"],
                "accuracy_c": summary["accuracy_c"],
                "accuracy_soft": summary["accuracy_soft"],
                "accuracy_hard": summary["accuracy_hard"],
            }
        )
    )


def build_parser():
    p = argparse.ArgumentParser(prog="pcnn", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def cfg_cmd(name, fn, **extra):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, default=42)
        for arg, kw in extra.items():
            sp.add_argument(arg, **kw)
        sp.set_defaults(fn=fn)
        return sp

    cfg_cmd("synth", cmd_synth)
    cfg_cmd("sample", cmd_sample)
    cfg_cmd("train", cmd_train)
    cfg_cmd("rerank", cmd_rerank)
    cfg_cmd("eval", cmd_eval)
    cfg_cmd("sanity", cmd_sanity)
    cfg_cmd("ceiling", cmd_ceiling, **{"--q-max": {"type": int, "default": 20}})

    sp = sub.add_parser("ingest")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--payload", required=True)
    sp.set_defaults(fn=cmd_ingest)

    sp = sub.add_parser("index")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--payload", required=True)
    sp.add_argument("--split", default="test")
    sp.add_argument("--query-id", type=int, required=True)
    sp.add_argument("--class-id", type=int, default=None)
    sp.add_argument("--k", type=int, default=5)
    sp.set_defaults(fn=cmd_index)

    sp = sub.add_parser("explain")
    sp.add_argument("--results", required=True)
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--payload", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_explain)

    sp = sub.add_parser("sweep")
    sp.add_argument("--config", required=True)
    sp.set_defaults(fn=cmd_sweep)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except Exception as exc:  # single exit point with error JSON
        return _fail(args.command, exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
