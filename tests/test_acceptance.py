"""Acceptance suite: one test per release criterion.

Each test prints nothing on its own; `pytest -v` yields the one pass/fail
line per criterion. Training-based criteria share session-scoped fixtures
so each comparator is trained once.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import erf

from pcnn import numkernel as nk
from pcnn.classifier import ClassifierOutput, SyntheticClassifier
from pcnn.comparator import ComparatorConfig, ComparatorModel, evaluate_binary
from pcnn.experiment import ExperimentConfig, prepare, run_seed, train_comparator
from pcnn.nnindex import ClassIndex
from pcnn.pairsampler import SamplerConfig, pair_count_audit, sample_train
from pcnn.reranker import (
    CosineScorer,
    ModelScorer,
    OracleScorer,
    RerankConfig,
    evaluate_rerank,
    knn_classify,
    rerank_split,
    sanity_suite,
    topq_ceiling,
)
from pcnn.synthgen import SyntheticSpec, synth_gen

SEEDS = (42, 43, 44)
ACCEPT_TRAIN = {"epochs": 20, "max_lr": 0.05}


def _bench_cfg(tmp, seed, **overrides):
    base = dict(
        seeds=[seed],
        output_dir=str(tmp),
        train=dict(ACCEPT_TRAIN),
        rerank={"k": 10},
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="session")
def hard_runs(tmp_path_factory):
    """Default-benchmark pipelines trained with hard top-Q negatives."""
    tmp = tmp_path_factory.mktemp("hard")
    runs = {}
    for seed in SEEDS:
        cfg = _bench_cfg(tmp, seed)
        pipe = prepare(cfg, seed)
        model, report = train_comparator(pipe)
        scorer = ModelScorer(model)
        rr = evaluate_rerank(pipe.store, pipe.out_test, pipe.index, scorer,
                             RerankConfig(k=10))
        rr_floor = evaluate_rerank(pipe.store, pipe.out_test, pipe.index, scorer,
                                   RerankConfig(k=10, prob_floor=0.01))
        sanity = sanity_suite(model, pipe.store, seed=seed)
        runs[seed] = dict(pipe=pipe, model=model, report=report,
                          rr=rr, rr_floor=rr_floor, sanity=sanity)
    return runs


@pytest.fixture(scope="session")
def random_runs(tmp_path_factory):
    """Same benchmark, comparators trained with random-class negatives."""
    tmp = tmp_path_factory.mktemp("random")
    accs = {}
    for seed in SEEDS:
        cfg = _bench_cfg(tmp, seed, sampler={"negative_mode": "random_class"})
        pipe = prepare(cfg, seed)
        model, _ = train_comparator(pipe)
        rr = evaluate_rerank(pipe.store, pipe.out_test, pipe.index,
                             ModelScorer(model), RerankConfig(k=10))
        accs[seed] = rr.accuracy_soft
    return accs


@pytest.fixture(scope="session")
def q3_run(tmp_path_factory):
    """Seed-42 comparator trained on Q=3 pairs."""
    tmp = tmp_path_factory.mktemp("q3")
    cfg = _bench_cfg(tmp, 42, sampler={"q": 3})
    pipe = prepare(cfg, 42)
    model, _ = train_comparator(pipe)
    return model


# ------------------------------------------------------ gradient oracle


def _np_linear(x, w, b):
    return x @ w + b


def _np_gelu(x):
    return x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def _np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _np_split(x, heads):
    b, s, d = x.shape
    return x.reshape(b, s, heads, d // heads).transpose(0, 2, 1, 3)


def _np_merge(x):
    b, h, s, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, h * dh)


def _np_attend(q, k, v, scale):
    return _np_softmax(q @ k.swapaxes(-1, -2) * scale) @ v


def _np_mhsa(x, p, heads):
    d = x.shape[-1]
    q = _np_split(_np_linear(x, p[0], p[1]), heads)
    k = _np_split(_np_linear(x, p[2], p[3]), heads)
    v = _np_split(_np_linear(x, p[4], p[5]), heads)
    ctx = _np_merge(_np_attend(q, k, v, 1.0 / math.sqrt(d // heads)))
    return _np_linear(ctx, p[6], p[7])


def _np_cross(y1, y2, p, heads):
    d = y1.shape[-1]
    scale = 1.0 / math.sqrt(d // heads)

    def fuse(a, b):
        q = _np_split(_np_linear(a[:, :1], p[0], p[1]), heads)
        k = _np_split(_np_linear(b, p[2], p[3]), heads)
        v = _np_split(_np_linear(b, p[4], p[5]), heads)
        new_cls = _np_linear(_np_merge(_np_attend(q, k, v, scale)), p[6], p[7])
        return np.concatenate([new_cls, a[:, 1:]], axis=1)

    return fuse(y1, y2), fuse(y2, y1)


def _np_batchnorm_train(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=0)
    var = ((x - mu) ** 2).mean(axis=0)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def oracle_loss(params, cfg, g1, g2, labels):
    """Independent forward pass + BCE from a flat name->array dict."""

    def attn(prefix, l, i):
        return [params[f"{prefix}.{l}.{i}.{j}"] for j in range(8)]

    def embed(g):
        b = g.shape[0]
        cls = np.broadcast_to(params["x_cls"][None], (b, 1, cfg.depth))
        return np.concatenate([cls, g], axis=1) + params["x_pos"]

    x1, x2 = embed(g1), embed(g2)
    for l in range(cfg.blocks):
        for n in range(cfg.self_layers):
            p = attn("self", l, n)
            x1 = x1 + _np_mhsa(x1, p, cfg.heads)
            x2 = x2 + _np_mhsa(x2, p, cfg.heads)
        for m in range(cfg.cross_layers):
            x1, x2 = _np_cross(x1, x2, attn("cross", l, m), cfg.heads)
    h = np.concatenate([x1[:, 0], x2[:, 0]], axis=1)
    h = _np_gelu(_np_batchnorm_train(
        _np_linear(h, params["mlp.0.w"], params["mlp.0.b"]),
        params["bn1.gamma"], params["bn1.beta"]))
    h = _np_gelu(_np_batchnorm_train(
        _np_linear(h, params["mlp.1.w"], params["mlp.1.b"]),
        params["bn2.gamma"], params["bn2.beta"]))
    h = _np_linear(h, params["mlp.2.w"], params["mlp.2.b"])
    z = _np_linear(h, params["mlp.3.w"], params["mlp.3.b"]).reshape(-1)
    y = labels
    return float(np.mean(np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))))


def fd_grad(fn, x, h=1e-5):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        up = fn(x)
        flat[i] = old - h
        dn = fn(x)
        flat[i] = old
        gf[i] = (up - dn) / (2 * h)
    return g


def rel_err(a, b, floor=1e-4):
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))


OP_CASES = []


def op_case(fn):
    OP_CASES.append(fn)
    return fn


def _loss_of(op):
    """Scalar loss wrapper so every op check reduces to one number."""

    def f(*tensors):
        out = op(*tensors)
        return out if out.data.shape == () else nk.sum_all(nk.mul(out, out))

    return f


def _check_op(op, *arrays):
    lossfn = _loss_of(op)
    tensors = [nk.Tensor(a, requires_grad=True) for a in arrays]
    with nk.Tape() as tape:
        loss = lossfn(*tensors)
    nk.backward(tape, loss)
    for i, t in enumerate(tensors):
        def scalar(x, i=i):
            probe = [nk.Tensor(a) for a in arrays]
            probe[i] = nk.Tensor(x)
            return float(_loss_of(op)(*probe).data)

        num = fd_grad(scalar, arrays[i])
        assert rel_err(t.grad, num) < 1e-4, f"op {op} input {i}"


def test_c01_gradient_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    a23 = rng.normal(size=(2, 3))
    b23 = rng.normal(size=(2, 3))
    m34 = rng.normal(size=(3, 4))
    batched = rng.normal(size=(2, 3, 4))
    w42 = rng.normal(size=(4, 2))

    _check_op(nk.add, a23, b23)
    _check_op(nk.sub, a23, b23)
    _check_op(nk.mul, a23, b23)
    _check_op(lambda a: nk.pow_scalar(a, 3.0), np.abs(a23) + 0.5)
    _check_op(nk.matmul, a23, m34)
    _check_op(nk.matmul, batched, rng.normal(size=(2, 4, 3)))
    _check_op(nk.matmul, batched, w42)  # stacked-weight case
    _check_op(lambda a: nk.reshape(a, (3, 2)), a23)
    _check_op(lambda a: nk.transpose(a, (2, 0, 1)), batched)
    _check_op(lambda a, b: nk.concat([a, b], axis=1), a23, b23)
    _check_op(lambda a: nk.slice_axis(a, 1, 1, 3), batched)
    _check_op(lambda a: nk.broadcast_to(a, (4, 2, 3)), a23)
    _check_op(lambda a: nk.mean_axis(a, 1), batched)
    _check_op(nk.sum_all, a23)
    _check_op(nk.mean_all, a23)
    _check_op(nk.gelu, a23)
    _check_op(nk.sigmoid, a23)
    _check_op(nk.softmax, batched)
    labels = (rng.random(6) > 0.5).astype(float)
    _check_op(lambda o: nk.bce_with_logits(o, labels), rng.normal(size=6))
    _check_op(nk.linear, a23, m34, rng.normal(size=4))

    bn = nk.BatchNormParams(3)
    bn_in = rng.normal(size=(6, 3))
    _check_op(lambda x, g, b: _bn_probe(x, g, b, "train"), bn_in,
              rng.normal(size=3), rng.normal(size=3))
    _check_op(lambda x, g, b: _bn_probe(x, g, b, "eval"), bn_in,
              rng.normal(size=3), rng.normal(size=3))

    ap = nk.AttentionParams(4, rng)
    x = rng.normal(size=(2, 3, 4))
    _check_op(lambda t: nk.mhsa(t, ap, 2), x)
    _check_op(lambda t, u: _cross_probe(t, u, ap), x, rng.normal(size=(2, 3, 4)))

    _full_model_gradcheck(rng)
    assert time.monotonic() - t0 < 30.0


def _bn_probe(x, gamma, beta, mode):
    params = nk.BatchNormParams(gamma.data.shape[0])
    params.gamma = gamma
    params.beta = beta
    params.running_mean = np.full(gamma.data.shape[0], 0.3)
    params.running_var = np.full(gamma.data.shape[0], 1.7)
    return nk.batchnorm(x, params, mode)


def _cross_probe(t, u, ap):
    o1, o2 = nk.cross_attention(t, u, ap, 2)
    return nk.add(nk.sum_all(nk.mul(o1, o1)), nk.sum_all(nk.mul(o2, o2)))


def _full_model_gradcheck(rng, coords_per_tensor=4):
    cfg = ComparatorConfig(depth=8, tokens=2, blocks=1, cross_layers=1,
                           self_layers=1, heads=2)
    model = ComparatorModel(cfg, seed=0)
    # nonzero final layer so its gradient path is exercised
    model.mlp_w[3].data = rng.normal(0, 0.5, size=model.mlp_w[3].data.shape)
    g1 = rng.normal(size=(6, 2, 8))
    g2 = rng.normal(size=(6, 2, 8))
    labels = (rng.random(6) > 0.5).astype(float)

    params = {name: t for name, t in model.parameters()}
    flat = {name: t.data for name, t in params.items()}
    # the independent forward must reproduce the model's own loss
    with nk.Tape() as tape:
        logits = model.forward_logits(g1, g2, mode="train")
        loss = nk.bce_with_logits(logits, labels)
    assert abs(float(loss.data) - oracle_loss(flat, cfg, g1, g2, labels)) < 1e-10
    for _, t in params.items():
        t.grad = None
    nk.backward(tape, loss)

    h = 1e-5
    worst = 0.0
    for name, t in params.items():
        idx = rng.choice(t.data.size, size=min(coords_per_tensor, t.data.size),
                         replace=False)
        for i in idx:
            view = flat[name].reshape(-1)
            old = view[i]
            view[i] = old + h
            up = oracle_loss(flat, cfg, g1, g2, labels)
            view[i] = old - h
            dn = oracle_loss(flat, cfg, g1, g2, labels)
            view[i] = old
            num = (up - dn) / (2 * h)
            got = t.grad.reshape(-1)[i] if t.grad is not None else 0.0
            worst = max(worst, abs(got - num) / max(abs(got), abs(num), 1e-4))
    assert worst < 1e-4, f"full-model gradient mismatch: {worst}"


# ---------------------------------------------------------------------


def test_c02_pair_count_identities():
    t0 = time.monotonic()
    spec = SyntheticSpec(classes=20, train_per_class=500, test_per_class=1,
                         depth=16, tokens=2)
    store, _ = synth_gen(spec, 0)
    assert store.size("train") == 10000
    # always-top-1-correct classifier: gt gets the dominant probability
    n_cls = spec.classes
    probs = np.full((10000, n_cls), 0.5 / (n_cls - 1))
    labels = store.labels("train")
    probs[np.arange(10000), labels] = 0.5
    output = ClassifierOutput("train", list(store.ids("train")), probs)
    index = ClassIndex.build(store)
    pairs = sample_train(store, output, index, SamplerConfig(q=10, seed=0))
    audit = pair_count_audit(pairs, store.ids("train"), 10)
    assert audit.ok
    assert all(pairs.gt_in_topq.values())
    assert len(pairs) == 10000 * 19  # the 2Q-1 arithmetic at scale
    assert time.monotonic() - t0 < 5.0


def test_c03_oracle_ceiling_equivalence():
    t0 = time.monotonic()
    for seed in range(5):
        spec = SyntheticSpec(classes=8, train_per_class=10, test_per_class=10,
                             depth=16, tokens=2, groups=2)
        store, centroids = synth_gen(spec, seed)
        clf = SyntheticClassifier(centroids, tau=spec.tau,
                                  corruption_rate=spec.corruption_rate,
                                  corruption_q=spec.corruption_q, seed=seed)
        out = clf.predict_split(store, "test")
        index = ClassIndex.build(store)
        k = 4
        results = rerank_split(store, out, index, OracleScorer(),
                               RerankConfig(k=k))
        acc = float(np.mean(
            [p == store.class_of("test", q)
             for q, p in zip(results.query_ids.tolist(), results.predicted.tolist())]
        ))
        assert acc == topq_ceiling(store, out, [k])[k]
    assert time.monotonic() - t0 < 30.0


def test_c04_k1_invariance():
    spec = SyntheticSpec(classes=10, train_per_class=8, test_per_class=8,
                         depth=16, tokens=2, groups=2)
    store, centroids = synth_gen(spec, 3)
    clf = SyntheticClassifier(centroids, tau=spec.tau,
                              corruption_rate=spec.corruption_rate,
                              corruption_q=spec.corruption_q, seed=3)
    out = clf.predict_split(store, "test")
    index = ClassIndex.build(store)
    results = rerank_split(store, out, index, CosineScorer(),
                           RerankConfig(k=1))
    agree = [p == int(np.argmax(out.probs[store.rows("test", [q])[0]]))
             for q, p in zip(results.query_ids.tolist(), results.predicted.tolist())]
    assert all(agree)


def test_c05_desk_scale_rerank_gain(hard_runs):
    acc_c = np.mean([hard_runs[s]["rr"].accuracy_c for s in SEEDS])
    acc_soft = np.mean([hard_runs[s]["rr"].accuracy_soft for s in SEEDS])
    acc_hard = np.mean([hard_runs[s]["rr"].accuracy_hard for s in SEEDS])
    # the benchmark must sit in the weak-classifier regime
    assert 0.60 <= acc_c <= 0.70
    for s in SEEDS:
        pipe = hard_runs[s]["pipe"]
        assert topq_ceiling(pipe.store, pipe.out_test, [10])[10] >= 0.99
    assert acc_soft >= acc_c + 0.05
    assert acc_soft >= acc_hard


def test_c06_hard_vs_random_negatives(hard_runs, random_runs):
    acc_hard_neg = np.mean([hard_runs[s]["rr"].accuracy_soft for s in SEEDS])
    acc_rand_neg = np.mean([random_runs[s] for s in SEEDS])
    assert acc_hard_neg > acc_rand_neg


def test_c07_sanity_suite(hard_runs):
    rep = hard_runs[42]["sanity"]
    assert rep.self_pair_rate == 1.0
    assert rep.random_grid_rate <= 0.10
    assert rep.shuffled_grid_rate <= 0.10


def test_c08_threshold_tradeoff(hard_runs):
    for s in SEEDS:
        full = hard_runs[s]["rr"]
        floored = hard_runs[s]["rr_floor"]
        assert abs(floored.accuracy_soft - full.accuracy_soft) <= 0.005
        assert full.mean_comparator_queries >= 2.0 * floored.mean_comparator_queries


def test_c09_binary_quality(hard_runs, q3_run):
    pipe = hard_runs[42]["pipe"]
    m10 = evaluate_binary(hard_runs[42]["model"], pipe.store, pipe.eval_pairs)
    m3 = evaluate_binary(q3_run, pipe.store, pipe.eval_pairs)
    assert m10.accuracy >= 0.90
    assert m10.accuracy >= m3.accuracy


def test_c10_determinism(tmp_path):
    cfg_dict = dict(
        seeds=[7],
        synthetic={"classes": 6, "train_per_class": 8, "test_per_class": 6,
                   "depth": 8, "tokens": 2, "groups": 2},
        sampler={"q": 3},
        comparator={"heads": 2},
        train={"epochs": 3, "batch_size": 64, "max_lr": 0.03},
        rerank={"k": 3},
    )
    outputs = []
    for run_id in ("a", "b"):
        out_dir = tmp_path / run_id
        cfg = ExperimentConfig(output_dir=str(out_dir), **cfg_dict)
        run_seed(cfg, 7, str(out_dir))
        outputs.append({
            p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
        })
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"


def test_c11_knn_agreement():
    spec = SyntheticSpec(classes=20, train_per_class=100, test_per_class=50,
                         depth=16, tokens=2)
    store, _ = synth_gen(spec, 1)
    assert store.size("train") == 2000
    assert store.size("test") == 1000
    index = ClassIndex.build(store)
    scorer = CosineScorer()
    k = 20
    pooled_train = store.pooled_all("train")
    ids = np.array(store.ids("train"))
    labels = store.labels("train")
    for qid in store.ids("test"):
        got = knn_classify(store, index, scorer, qid, k=k)
        # exhaustive brute force with the same tie-break contract
        q = store.pooled("test", qid)
        d = np.sum((pooled_train - q) ** 2, axis=1)
        order = sorted(range(len(ids)), key=lambda i: (d[i], ids[i]))[:k]
        qrow = store.rows("test", [qid])
        votes, ssum = {}, {}
        for i in order:
            c = int(labels[i])
            s = float(scorer.score(qrow, np.array([i]), store=store, query_split="test")[0])
            votes[c] = votes.get(c, 0) + 1
            ssum[c] = ssum.get(c, 0.0) + s
        want = max(votes, key=lambda c: (votes[c], ssum[c] / votes[c], -c))
        assert got == want, f"query {qid}: {got} vs {want}"
