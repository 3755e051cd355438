"""Binary pair comparator: CLS + positional embedding, L blocks of
(N shared-branch self-attention layers, M cross-attention fusions), then a
4-layer MLP head (2D -> 512 -> 32 -> 2 -> 1, GELU + batch norm on the first
two layers) and a sigmoid score.

Trained with momentum SGD under a one-cycle learning-rate schedule on
binary cross-entropy; the checkpoint with the best eval F1 is kept.
"""

import ctypes
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field

import numpy as np

from . import blas
from . import numkernel as nk
from .atomicio import check_blob, sha256, write_blob
from .pairsampler import POSITIVE, pairset_rows
from .validate import check_ints, check_reals

class TrainingError(RuntimeError):
    pass


def _scoring_worker():
    """The thread that scores next to the caller (`_split`), or None: only
    with OpenBLAS pinned to one thread, which leaves a core free, and a
    second CPU to run it on.

    glibc would give the worker a malloc arena of its own, where the
    temporaries it frees stay resident on top of the caller's (+11% peak RSS
    on the `posttrain_cli` benchmark), so the process keeps one arena
    (`mallopt(M_ARENA_MAX, 1)`) and each thread reuses what the other frees.
    """
    if not (blas.PINNED and len(os.sched_getaffinity(0)) >= 2):
        return None
    libc = ctypes.CDLL(None)
    if hasattr(libc, "mallopt"):
        libc.mallopt.argtypes, libc.mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        libc.mallopt(-8, 1)  # M_ARENA_MAX
    return ThreadPoolExecutor(1, thread_name_prefix="pcnn-score")


_WORKER = _scoring_worker()


@dataclass
class ComparatorConfig:
    depth: int  # D
    tokens: int  # T
    blocks: int = 1  # L
    cross_layers: int = 1  # M
    self_layers: int = 1  # N
    heads: int = 8
    mlp_hidden: int = 32
    jitter_sigma: float = 0.0

    def __post_init__(self):
        check_ints(self, depth=1, tokens=1, heads=1, mlp_hidden=1, blocks=0,
                   cross_layers=0, self_layers=0)
        check_reals(self, jitter_sigma="[0, inf)")
        if self.blocks > 0 and self.depth % self.heads != 0:
            raise nk.ConfigError(
                f"depth {self.depth} not divisible by {self.heads} heads"
            )


def expected_param_count(cfg):
    """Closed-form parameter count; must match the built model exactly."""
    d = cfg.depth
    attn = 4 * (d * d + d)
    n_attn = cfg.blocks * (cfg.self_layers + cfg.cross_layers)
    mlp_in = 2 * d
    mlp = 0
    widths = (mlp_in, 512, cfg.mlp_hidden, 2, 1)
    for a, b in zip(widths, widths[1:]):
        mlp += a * b + b
    bn = 2 * (512 + cfg.mlp_hidden)
    cls_pos = d + (1 + cfg.tokens) * d
    return cls_pos + n_attn * attn + mlp + bn


class ComparatorModel:
    def __init__(self, cfg, seed=42):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        d = cfg.depth
        self.x_cls = nk.Tensor(rng.normal(0, 0.02, size=(1, d)), requires_grad=True)
        self.x_pos = nk.Tensor(
            rng.normal(0, 0.02, size=(1 + cfg.tokens, d)), requires_grad=True
        )
        self.self_attn = [
            [nk.AttentionParams(d, rng) for _ in range(cfg.self_layers)]
            for _ in range(cfg.blocks)
        ]
        self.cross_attn = [
            [nk.AttentionParams(d, rng) for _ in range(cfg.cross_layers)]
            for _ in range(cfg.blocks)
        ]
        widths = (2 * d, 512, cfg.mlp_hidden, 2, 1)
        self.mlp_w, self.mlp_b = [], []
        for i, (a, b) in enumerate(zip(widths, widths[1:])):
            if i == len(widths) - 2:  # zero-init final layer: untrained score 0.5
                w = np.zeros((a, b))
            else:
                w = rng.normal(0, math.sqrt(2.0 / a), size=(a, b))
            self.mlp_w.append(nk.Tensor(w, requires_grad=True))
            self.mlp_b.append(nk.Tensor(np.zeros(b), requires_grad=True))
        self.bn1 = nk.BatchNormParams(512)
        self.bn2 = nk.BatchNormParams(cfg.mlp_hidden)

    def parameters(self):
        params = [("x_cls", self.x_cls), ("x_pos", self.x_pos)]
        for l, layers in enumerate(self.self_attn):
            for n, p in enumerate(layers):
                for j, t in enumerate(p.tensors()):
                    params.append((f"self.{l}.{n}.{j}", t))
        for l, layers in enumerate(self.cross_attn):
            for m, p in enumerate(layers):
                for j, t in enumerate(p.tensors()):
                    params.append((f"cross.{l}.{m}.{j}", t))
        for i, (w, b) in enumerate(zip(self.mlp_w, self.mlp_b)):
            params.append((f"mlp.{i}.w", w))
            params.append((f"mlp.{i}.b", b))
        params.append(("bn1.gamma", self.bn1.gamma))
        params.append(("bn1.beta", self.bn1.beta))
        params.append(("bn2.gamma", self.bn2.gamma))
        params.append(("bn2.beta", self.bn2.beta))
        return params

    def param_count(self):
        return sum(t.data.size for _, t in self.parameters())

    def state_arrays(self):
        """All mutable numeric state, including batch-norm running stats."""
        arrs = {name: t.data for name, t in self.parameters()}
        arrs["bn1.running_mean"] = self.bn1.running_mean
        arrs["bn1.running_var"] = self.bn1.running_var
        arrs["bn2.running_mean"] = self.bn2.running_mean
        arrs["bn2.running_var"] = self.bn2.running_var
        return arrs

    def snapshot(self):
        return {k: v.copy() for k, v in self.state_arrays().items()}

    def restore(self, snap):
        for name, t in self.parameters():
            t.data = snap[name].copy()
        self.bn1.running_mean = snap["bn1.running_mean"].copy()
        self.bn1.running_var = snap["bn1.running_var"].copy()
        self.bn2.running_mean = snap["bn2.running_mean"].copy()
        self.bn2.running_var = snap["bn2.running_var"].copy()

    # ---- forward -------------------------------------------------------

    def _embed(self, grids):
        b = grids.shape[0]
        d = self.cfg.depth
        cls = nk.broadcast_to(nk.reshape(self.x_cls, (1, 1, d)), (b, 1, d))
        x = nk.concat([cls, nk.Tensor(grids)], axis=1)
        return nk.add(x, self.x_pos)

    def _branch_cls(self, x):
        """Reduce one branch to its CLS row.

        With no attention blocks the CLS row never saw the tokens, so the
        L = 0 model pools the embedded tokens into the CLS path and the MLP
        becomes a standalone comparator on pooled features.
        """
        if self.cfg.blocks == 0:
            cls = nk.slice_axis(x, 1, 0, 1)
            pooled = nk.mean_axis(nk.slice_axis(x, 1, 1, x.shape[1]), axis=1, keepdims=True)
            x = nk.add(cls, pooled)
            return nk.reshape(x, (x.shape[0], self.cfg.depth))
        return nk.reshape(
            nk.slice_axis(x, 1, 0, 1), (x.shape[0], self.cfg.depth)
        )

    def branch(self, grids):
        """One branch up to the first cross layer: the embedding, then block
        0's self-attention layers (the embedding alone when L = 0).

        Depends on one grid only, so a record's branch is the same in every
        pair it appears in.
        """
        cfg = self.cfg
        if grids.shape[1:] != (cfg.tokens, cfg.depth):
            raise nk.ShapeError(
                f"grid shape {grids.shape[1:]} vs config ({cfg.tokens}, {cfg.depth})"
            )
        x = self._embed(np.asarray(grids, dtype=np.float64))
        if cfg.blocks:
            for p in self.self_attn[0]:
                x = nk.add(x, nk.mhsa(x, p, cfg.heads))
        return x

    def records(self, grids):
        """Per-record work of a batch of (N, T, D) grids: a dict of tensors
        with one row per grid, holding what each record brings to every pair
        it is in, up to where the pair first matters.

        That is block 0's first cross layer's projections of the branch
        output: the CLS row's query "q" and every row's key "k" and value
        "v". Deeper configs also keep the token rows ("tokens") to rebuild
        per-pair states from. With no cross layer the whole model before the
        head is per record, and "cls" holds each record's half of the head
        input.
        """
        cfg = self.cfg
        x = self.branch(grids)
        if not (cfg.blocks and cfg.cross_layers):
            for l in range(1, cfg.blocks):
                for p in self.self_attn[l]:
                    x = nk.add(x, nk.mhsa(x, p, cfg.heads))
            return {"cls": self._branch_cls(x)}
        p = self.cross_attn[0][0]
        recs = {
            "q": nk.linear(nk.slice_axis(x, 1, 0, 1), p.wq, p.bq),
            "k": nk.linear(x, p.wk, p.bk),
            "v": nk.linear(x, p.wv, p.bv),
        }
        if cfg.blocks > 1 or cfg.cross_layers > 1:
            recs["tokens"] = nk.slice_axis(x, 1, 1, x.shape[1])
        return recs

    def pair_logits(self, recs, i1, i2, mode="eval"):
        """Logits of the pairs (record i1[j], record i2[j]) of `recs`.

        The two sides of the pairs are stacked pair-major, row 2j for pair
        j's first record and row 2j + 1 for its second, so both directions
        of a cross layer run as one attention and the head input is one
        reshape of the CLS rows.
        """
        cfg = self.cfg
        i1, i2 = np.asarray(i1, dtype=np.intp), np.asarray(i2, dtype=np.intp)
        shape = (len(i1), 2 * cfg.depth)
        sides = np.stack([i1, i2], axis=1).ravel()
        if "cls" in recs:
            return self._head(nk.reshape(nk.gather(recs["cls"], sides), shape), mode)
        # block 0's first cross layer: each CLS query over its partner's rows
        partners = np.stack([i2, i1], axis=1).ravel()
        cls = nk.attend(
            nk.gather(recs["q"], sides), nk.gather(recs["k"], partners),
            nk.gather(recs["v"], partners), self.cross_attn[0][0], cfg.heads,
        )
        if "tokens" in recs:
            cls = self._pair_layers(cls, nk.gather(recs["tokens"], sides))
        return self._head(nk.reshape(cls, shape), mode)

    def _pair_layers(self, cls, tokens):
        """The layers after block 0's first cross layer, on the stacked
        per-pair states [cls, tokens]: each later block's self-attention,
        then its cross layers. The last cross layer builds only the CLS rows
        the head reads."""
        cfg = self.cfg
        partner = np.arange(cls.shape[0]) ^ 1  # the other side of the same pair
        layers = [(l, m) for l in range(cfg.blocks) for m in range(cfg.cross_layers)]
        for l, m in layers[1:]:
            x = nk.concat([cls, tokens], axis=1)
            if m == 0:
                for p in self.self_attn[l]:
                    x = nk.add(x, nk.mhsa(x, p, cfg.heads))
                cls, tokens = nk.slice_axis(x, 1, 0, 1), nk.slice_axis(x, 1, 1, x.shape[1])
            cls = nk.attention(cls, nk.gather(x, partner), self.cross_attn[l][m], cfg.heads)
        return cls

    def _head(self, h, mode):
        """The MLP head on (B, 2D) pair features; (B,) logits."""
        h = nk.gelu(nk.batchnorm(nk.linear(h, self.mlp_w[0], self.mlp_b[0]), self.bn1, mode))
        h = nk.gelu(nk.batchnorm(nk.linear(h, self.mlp_w[1], self.mlp_b[1]), self.bn2, mode))
        h = nk.linear(h, self.mlp_w[2], self.mlp_b[2])
        h = nk.linear(h, self.mlp_w[3], self.mlp_b[3])
        return nk.reshape(h, (h.shape[0],))

    def forward_logits(self, grids1, grids2, mode="eval"):
        """Logits for a batch of pairs; grids are (B, T, D) arrays."""
        grids1, grids2 = np.asarray(grids1), np.asarray(grids2)
        if grids1.shape != grids2.shape:
            raise nk.ShapeError(f"pair grids {grids1.shape} vs {grids2.shape}")
        b = len(grids1)
        recs = self.records(np.concatenate([grids1, grids2]))
        return self.pair_logits(recs, np.arange(b), np.arange(b, 2 * b), mode)

    def score_pairs(self, grids1, grids2):
        logits = self.forward_logits(grids1, grids2, mode="eval")
        return nk.sigmoid(logits).data


# ----------------------------------------------------------- evaluation


@dataclass
class BinaryMetrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: dict
    mean_confidence: dict


def metrics_from_scores(scores, labels, threshold=0.5):
    if len(scores) == 0:
        raise ValueError("empty evaluation set")
    if not 0 < threshold < 1:
        raise ValueError("threshold must be in (0, 1)")
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pred = scores > threshold  # strict: 0.5 exactly is a reject
    pos = labels == POSITIVE
    tp = int(np.sum(pred & pos))
    fp = int(np.sum(pred & ~pos))
    tn = int(np.sum(~pred & ~pos))
    fn = int(np.sum(~pred & pos))
    acc = (tp + tn) / len(scores)
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0

    def mean_conf(mask, accept):
        if not np.any(mask):
            return float("nan")
        s = scores[mask]
        return float(np.mean(s if accept else 1.0 - s))

    return BinaryMetrics(
        accuracy=acc,
        precision=prec,
        recall=rec,
        f1=f1,
        confusion={"tp": tp, "fp": fp, "tn": tn, "fn": fn},
        mean_confidence={
            "correctly_accept": mean_conf(pred & pos, True),
            "incorrectly_accept": mean_conf(pred & ~pos, True),
            "correctly_reject": mean_conf(~pred & ~pos, False),
            "incorrectly_reject": mean_conf(~pred & pos, False),
        },
    )


def distinct_grids(grids1, rows1, grids2, rows2):
    """The distinct grids among the pair sides (grids1[rows1[i]],
    grids2[rows2[i]]), and each side's index into them. When both sides
    index the same array, a row on both sides counts once."""
    rows1, rows2 = np.asarray(rows1, dtype=np.intp), np.asarray(rows2, dtype=np.intp)
    if grids1 is grids2:
        distinct, at = np.unique(np.concatenate([rows1, rows2]), return_inverse=True)
        return grids1[distinct], at[: len(rows1)], at[len(rows1) :]
    distinct1, at1 = np.unique(rows1, return_inverse=True)
    distinct2, at2 = np.unique(rows2, return_inverse=True)
    return np.concatenate([grids1[distinct1], grids2[distinct2]]), at1, at2 + len(distinct1)


def _split(count, work):
    """Run work(i) for i in range(count): the caller takes the even i and, when
    `_WORKER` is set, the worker thread the odd ones. Returns once both are
    done, raising the caller's error first."""
    if _WORKER is None or count < 2:
        for i in range(count):
            work(i)
        return
    odd = _WORKER.submit(lambda: [work(i) for i in range(1, count, 2)])
    try:
        for i in range(0, count, 2):
            work(i)
    finally:
        wait([odd])
    odd.result()


def score_rows(model, grids1, rows1, grids2, rows2, batch_size=256):
    """Eval-mode scores of the pairs (grids1[rows1[i]], grids2[rows2[i]]).

    One record set serves the call: each distinct grid goes through
    `model.records` once, `batch_size` grids at a time, and `pair_logits`
    then runs `batch_size` pairs at a time. Both loops split their chunks
    between the caller and one worker thread (`_split`), each writing its
    own slice, so the scores are bitwise equal to `model.score_pairs` on the
    same pair batches. The tape stack is global, so no tape may be active.
    """
    if nk._TAPES:
        raise nk.TapeError("score_rows runs outside any tape")
    scores = np.empty(len(rows1))
    if not len(scores):
        return scores
    grids, at1, at2 = distinct_grids(grids1, rows1, grids2, rows2)
    recs, allocating = {}, threading.Lock()

    def record_chunk(i):
        lo = i * batch_size
        chunk = model.records(grids[lo : lo + batch_size])
        with allocating:  # the first chunk done sizes every array
            for name, t in chunk.items():
                if name not in recs:
                    recs[name] = np.empty((len(grids),) + t.shape[1:])
        for name, t in chunk.items():
            recs[name][lo : lo + len(t.data)] = t.data

    _split(math.ceil(len(grids) / batch_size), record_chunk)
    recs = {name: nk.Tensor(a) for name, a in recs.items()}

    def pair_batch(i):
        sl = slice(i * batch_size, (i + 1) * batch_size)
        scores[sl] = nk.sigmoid(model.pair_logits(recs, at1[sl], at2[sl], "eval")).data

    _split(math.ceil(len(scores) / batch_size), pair_batch)
    return scores


def score_pairset(model, store, pairset, batch_size=256):
    rows1, rows2 = pairset_rows(store, pairset)
    return score_rows(
        model, store.grids(pairset.split), rows1, store.grids("train"), rows2, batch_size
    )


def evaluate_binary(model, store, pairset, batch_size=256):
    scores = score_pairset(model, store, pairset, batch_size)
    return metrics_from_scores(scores, pairset.pairs.label)


# ------------------------------------------------------------- training


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 256
    momentum: float = 0.9
    max_lr: float = 0.01
    seed: int = 42
    warmup_fraction: float = 0.3
    div_factor: float = 25.0
    final_div_factor: float = 1e4

    def __post_init__(self):
        check_ints(self, epochs=1, batch_size=2, seed=0)  # batch norm needs 2 rows
        check_reals(self, warmup_fraction="[0, 1)", momentum="[0, 1)", max_lr="(0, inf)",
                    div_factor="(0, inf)", final_div_factor="(0, inf)")


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)  # dicts of per-epoch stats
    selected_epoch: int = -1

    def to_json(self):
        return json.dumps(
            {"epochs": self.epochs, "selected_epoch": self.selected_epoch}, indent=2
        )


def one_cycle_lr(step, total_steps, cfg):
    """Cosine warmup to max_lr, then cosine anneal to max_lr/final_div_factor."""
    t = step / max(total_steps - 1, 1)
    lo, hi = cfg.max_lr / cfg.div_factor, cfg.max_lr
    end = cfg.max_lr / cfg.final_div_factor

    def anneal(a, b, frac):
        return b + (a - b) / 2.0 * (1.0 + math.cos(math.pi * frac))

    if t < cfg.warmup_fraction:
        return anneal(lo, hi, t / cfg.warmup_fraction)
    return anneal(hi, end, (t - cfg.warmup_fraction) / (1.0 - cfg.warmup_fraction))


def train(model, store, train_pairs, eval_pairs, cfg):
    """Momentum-SGD training; returns the best-F1 checkpoint and a report."""
    if len(train_pairs) < 2 or not len(eval_pairs):
        raise ValueError("need >= 2 train pairs (batch norm) and >= 1 eval pair")
    rng = np.random.default_rng(cfg.seed)
    params = model.parameters()
    velocity = {name: np.zeros_like(t.data) for name, t in params}

    n = len(train_pairs)
    rows1, rows2 = pairset_rows(store, train_pairs)
    grids1, grids2 = store.grids(train_pairs.split), store.grids("train")
    labels_all = train_pairs.pairs.label.astype(np.float64)

    batches_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * batches_per_epoch
    report = TrainReport()
    best = (-1.0, -1, None)  # (f1, epoch, snapshot)
    step = 0
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        correct = trained = 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            if len(idx) < 2:  # batch norm cannot take a single sample
                continue
            y = labels_all[idx]
            if model.cfg.jitter_sigma > 0:  # every jittered grid is its own record
                g1, g2 = grids1[rows1[idx]], grids2[rows2[idx]]
                g1 = g1 + rng.normal(0, model.cfg.jitter_sigma, size=g1.shape)
                g2 = g2 + rng.normal(0, model.cfg.jitter_sigma, size=g2.shape)
                grids = np.concatenate([g1, g2])
                at1, at2 = np.arange(len(idx)), np.arange(len(idx), 2 * len(idx))
            else:
                grids, at1, at2 = distinct_grids(grids1, rows1[idx], grids2, rows2[idx])
            lr = one_cycle_lr(step, total_steps, cfg)
            with nk.Tape() as tape:
                logits = model.pair_logits(model.records(grids), at1, at2, "train")
                loss = nk.bce_with_logits(logits, y)
            if not np.isfinite(loss.data):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            for _, t in params:
                t.grad = None
            nk.backward(tape, loss)
            for name, t in params:
                if t.grad is None:
                    continue
                v = velocity[name]
                v *= cfg.momentum
                v += t.grad
                t.data = t.data - lr * v
            epoch_loss += float(loss.data) * len(idx)
            correct += int(np.sum((logits.data > 0) == (y == 1)))
            trained += len(idx)
            step += 1
        if bad := _non_finite(model.state_arrays()):
            raise TrainingError(f"non-finite parameter {bad!r} after epoch {epoch}")
        tape = logits = loss = None  # free the last step's graph before scoring
        metrics = evaluate_binary(model, store, eval_pairs, cfg.batch_size)
        row = {
            "epoch": epoch,
            "loss": epoch_loss / trained,
            "train_accuracy": correct / trained,
            "eval_accuracy": metrics.accuracy,
            "precision": metrics.precision,
            "recall": metrics.recall,
            "f1": metrics.f1,
        }
        report.epochs.append(row)
        if metrics.f1 > best[0]:  # strict: ties keep the earliest epoch
            best = (metrics.f1, epoch, model.snapshot())
    report.selected_epoch = best[1]
    model.restore(best[2])
    return model, report


# ----------------------------------------------------------- checkpoints


class CheckpointError(ValueError):
    """A checkpoint whose header or blob does not match what it declares."""


def _non_finite(arrays):
    """Name of the first array, in name order, with a non-finite value."""
    return next((name for name in sorted(arrays) if not np.isfinite(arrays[name]).all()), None)


def save_checkpoint(model, path_blob, path_header, extra=None):
    """Write the state arrays as one f8 blob, then a JSON header with the
    config, every array's shape and the blob's byte length and sha256; a
    non-finite array raises CheckpointError and nothing is written."""
    arrays = model.state_arrays()
    if bad := _non_finite(arrays):
        raise CheckpointError(f"{path_blob}: array {bad!r} holds a non-finite value")
    order = sorted(arrays)
    blob = b"".join(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes() for name in order)
    header = {
        "config": asdict(model.cfg),
        "arrays": {name: list(arrays[name].shape) for name in order},
        "blob_bytes": len(blob),
        "blob_sha256": sha256(blob),
        "extra": extra or {},
    }
    write_blob(path_blob, blob, path_header, json.dumps(header, indent=2))


def load_checkpoint(path_blob, path_header):
    """Load a checkpoint; raises CheckpointError naming the file when the
    header's shapes differ from a freshly built model's, the blob's byte
    length or sha256 differs from the header's, or an array is not finite."""
    try:
        with open(path_header) as fh:
            header = json.load(fh)
        cfg = ComparatorConfig(**header["config"])
        shapes = {name: tuple(shape) for name, shape in header["arrays"].items()}
        nbytes, digest = int(header["blob_bytes"]), str(header["blob_sha256"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path_header}: malformed header ({exc!r})") from exc
    model = ComparatorModel(cfg, seed=0)
    built = {name: a.shape for name, a in model.state_arrays().items()}
    for name in sorted(set(shapes) | set(built)):
        if shapes.get(name) != built.get(name):
            raise CheckpointError(
                f"{path_header}: array {name!r} has shape {shapes.get(name)}, "
                f"the configured model {built.get(name)}"
            )
    if nbytes != 8 * sum(math.prod(shape) for shape in shapes.values()):
        raise CheckpointError(f"{path_header}: blob_bytes {nbytes} does not fit the arrays")
    with open(path_blob, "rb") as fh:
        blob = fh.read()
    check_blob(blob, nbytes, digest, path_blob, CheckpointError)
    snap, offset = {}, 0
    for name in sorted(shapes):
        count = math.prod(shapes[name])
        snap[name] = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(
            shapes[name]).copy()
        offset += 8 * count
    if bad := _non_finite(snap):
        raise CheckpointError(f"{path_blob}: array {bad!r} holds a non-finite value")
    model.restore(snap)
    return model, header
