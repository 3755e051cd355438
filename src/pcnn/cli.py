"""Command-line harness.

Every stage is driven by a single JSON experiment config; commands are
idempotent with respect to their declared outputs. The config commands
are `experiment.STEPS`: each runs its step on `experiment.prepare(config,
seed)`, which writes the same files as `run_seed`, and prints the JSON
document the step returns. On failure the process exits
nonzero after printing one machine-readable error JSON to stderr.
"""

import argparse
import json
import sys

from . import experiment
from .atomicio import atomic_open
from .comparator import load_checkpoint  # unused here; perfbench's trace test reads it
from .embedstore import EmbeddingStore
from .experiment import ExperimentConfig
from .nnindex import ClassIndex


def _fail(command, exc):
    err = {"command": command, "error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(err), file=sys.stderr)
    return 1


def cmd_sweep(args):
    summary = experiment.run(ExperimentConfig.load(args.config))
    return {k: summary[k] for k in ("seeds", "accuracy_c", "accuracy_soft", "accuracy_hard")}


def cmd_ingest(args):
    store = EmbeddingStore.load(args.manifest, args.payload)
    return {
        "dataset": store.manifest.dataset,
        "classes": store.manifest.num_classes,
        "tokens": store.manifest.tokens,
        "depth": store.manifest.depth,
        "train": store.size("train"),
        "test": store.size("test"),
        "checksum": store.manifest.checksum,
    }


def cmd_index(args):
    store = EmbeddingStore.load(args.manifest, args.payload)
    index = ClassIndex.build(store)
    query = store.pooled(args.split, args.query_id)
    exclude = args.query_id if args.split == "train" else None
    if args.class_id is not None:
        hits = index.nearest_k_in_class(query, args.class_id, args.k, exclude=exclude)
        table = [{"id": i, "distance": d} for i, d in hits]
    else:
        hits = index.topk_global(query, args.k, exclude=exclude)
        table = [{"id": i, "distance": d, "class": c} for i, d, c in hits]
    return {"query": args.query_id, "neighbors": table}


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
                if not 0 <= entry["class"] < store.manifest.num_classes:
                    raise KeyError(f"unknown class id {entry['class']}")
                entry["class_name"] = store.manifest.class_names[entry["class"]]
            docs.append(doc)
    with atomic_open(args.out) as fh:
        json.dump({"explanations": docs}, fh, indent=2)
    return {"queries": len(docs), "out": args.out}


def build_parser():
    p = argparse.ArgumentParser(prog="pcnn", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    for name, step in experiment.STEPS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, default=42)
        sp.set_defaults(fn=lambda args, step=step: step(
            experiment.prepare(ExperimentConfig.load(args.config), args.seed)))

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
        doc = args.fn(args)
    except Exception as exc:  # single exit point with error JSON
        return _fail(args.command, exc)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
