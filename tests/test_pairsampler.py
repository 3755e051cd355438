import numpy as np
import pytest

from pcnn import pairsampler
from pcnn.classifier import ClassifierOutput, SyntheticClassifier, ValidationError, top_q
from pcnn.embedstore import build_store
from pcnn.nnindex import ClassIndex, InsufficientCandidatesError
from pcnn.pairsampler import (
    NEGATIVE,
    PAIR_FIELDS,
    POSITIVE,
    AuditReport,
    PairSet,
    SamplerConfig,
    load_pairs,
    pair_array,
    pair_count_audit,
    sample_eval,
    sample_train,
    save_pairs,
)

from conftest import toy_store


@pytest.fixture(scope="module")
def pipeline():
    store, centroids = toy_store(classes=6, per_class=8, seed=2)
    index = ClassIndex.build(store)
    clf = SyntheticClassifier(centroids, tau=1.0, corruption_rate=0.3, seed=7)
    out_train = clf.predict_split(store, "train")
    out_test = clf.predict_split(store, "test")
    return store, index, out_train, out_test


def reference_audit(pairset, query_ids, q):
    """Per-pair dict count of `pair_count_audit`."""
    per_query = {}
    for p in pairset.pairs:
        per_query[p.query_id] = per_query.get(p.query_id, 0) + 1
    expected = 0
    violations = []
    for qid in query_ids:
        want = 2 * q - 1 if pairset.gt_in_topq.get(qid, False) else 2 * q
        expected += want
        got = per_query.get(qid, 0)
        if got != want:
            violations.append({"query": int(qid), "expected": want, "actual": got})
    return AuditReport(expected=expected, actual=len(pairset.pairs), violations=violations)


class TestTrainSampling:
    def test_count_formula(self, pipeline):
        store, index, out_train, _ = pipeline
        cfg = SamplerConfig(q=4, seed=0)
        pairs = sample_train(store, out_train, index, cfg)
        for qid in store.ids("train"):
            n = sum(1 for p in pairs.pairs if p.query_id == qid)
            want = 2 * cfg.q - 1 if pairs.gt_in_topq[qid] else 2 * cfg.q
            assert n == want

    def test_audit_passes(self, pipeline):
        store, index, out_train, _ = pipeline
        cfg = SamplerConfig(q=3, seed=0)
        pairs = sample_train(store, out_train, index, cfg)
        report = pair_count_audit(pairs, store.ids("train"), cfg.q)
        assert report.ok
        assert report.actual == len(pairs)

    def test_audit_detects_missing_pair(self, pipeline):
        store, index, out_train, _ = pipeline
        cfg = SamplerConfig(q=3, seed=0)
        pairs = sample_train(store, out_train, index, cfg)
        pairs.pairs = pairs.pairs[:-1]
        report = pair_count_audit(pairs, store.ids("train"), cfg.q)
        assert not report.ok
        assert len(report.violations) == 1

    @pytest.mark.parametrize("edit", ["none", "drop", "duplicate", "stranger", "empty"])
    def test_audit_matches_dict_count_reference(self, pipeline, edit):
        store, index, out_train, _ = pipeline
        cfg = SamplerConfig(q=3, seed=0)
        pairs = sample_train(store, out_train, index, cfg)
        n = len(pairs)
        if edit == "drop":
            pairs.pairs = pairs.pairs[np.arange(n) != 7]
        elif edit == "duplicate":
            pairs.pairs = pairs.pairs[np.r_[0:n, 4]]
        elif edit == "stranger":  # a pair whose query is not audited
            pairs.pairs = pairs.pairs[np.r_[0:n, 0]]
            pairs.pairs.query_id[-1] = store.ids("train").max() + 1
        elif edit == "empty":
            pairs.pairs = pairs.pairs[:0]
        report = pair_count_audit(pairs, store.ids("train"), cfg.q)
        assert report == reference_audit(pairs, store.ids("train"), cfg.q)
        assert report.ok == (edit == "none")
        assert all(type(v) is int for bad in report.violations for v in bad.values())

    def test_positives_are_same_class_and_exclude_self(self, pipeline):
        store, index, out_train, _ = pipeline
        pairs = sample_train(store, out_train, index, SamplerConfig(q=4, seed=0))
        for p in pairs.positives():
            assert p.neighbor_id != p.query_id
            assert store.class_of("train", p.neighbor_id) == store.class_of(
                "train", p.query_id
            )
            assert p.source_class == store.class_of("train", p.query_id)

    def test_positives_match_knn_oracle(self, pipeline):
        store, index, out_train, _ = pipeline
        q = 4
        pairs = sample_train(store, out_train, index, SamplerConfig(q=q, seed=0))
        qid = store.ids("train")[5]
        gt = store.class_of("train", qid)
        pooled = store.pooled("train", qid)
        cands = sorted(
            (float(np.sum((store.pooled("train", r) - pooled) ** 2)), r)
            for r in store.by_class("train", gt)
            if r != qid
        )
        want = [r for _, r in cands[:q]]
        got = [p.neighbor_id for p in pairs.positives() if p.query_id == qid]
        assert got == want

    def test_hard_negatives_come_from_topq(self, pipeline):
        store, index, out_train, _ = pipeline
        q = 4
        pairs = sample_train(store, out_train, index, SamplerConfig(q=q, seed=0))
        for p in pairs.negatives():
            gt = store.class_of("train", p.query_id)
            pred = top_q(out_train.probs[store.rows("train", [p.query_id])[0]], q)
            assert p.source_class in set(pred.classes)
            assert p.source_class != gt
            assert store.class_of("train", p.neighbor_id) == p.source_class

    def test_negative_is_nn_rank_neighbor(self, pipeline):
        store, index, out_train, _ = pipeline
        cfg = SamplerConfig(q=3, nn_rank=2, seed=0)
        pairs = sample_train(store, out_train, index, cfg)
        p = pairs.negatives()[0]
        pooled = store.pooled("train", p.query_id)
        want, _ = index.nearest_in_class(pooled, p.source_class, rank=2)
        assert p.neighbor_id == want
        assert p.nn_rank == 2

    def test_random_mode_negatives(self, pipeline):
        store, index, out_train, _ = pipeline
        cfg = SamplerConfig(q=4, negative_mode="random_class", seed=3)
        pairs = sample_train(store, out_train, index, cfg)
        report = pair_count_audit(pairs, store.ids("train"), cfg.q)
        assert report.ok
        for p in pairs.negatives():
            assert p.source_class != store.class_of("train", p.query_id)
        # same seed reproduces the class draw, different seed changes it
        again = sample_train(store, out_train, index, cfg)
        assert [p.source_class for p in again.negatives()] == [
            p.source_class for p in pairs.negatives()
        ]
        other = sample_train(
            store, out_train, index,
            SamplerConfig(q=4, negative_mode="random_class", seed=4),
        )
        assert [p.source_class for p in other.negatives()] != [
            p.source_class for p in pairs.negatives()
        ]

    def test_outputs_must_be_the_split_in_store_order(self, pipeline):
        # both splits hold ids 0..47, so the test outputs differ only by split
        store, index, out_train, out_test = pipeline
        perm = np.roll(np.arange(len(out_train.ids)), 1)
        reordered = ClassifierOutput("train", np.array(out_train.ids)[perm],
                                     out_train.probs[perm])
        for out in (out_test, reordered):
            with pytest.raises(ValidationError, match="store order"):
                sample_train(store, out, index, SamplerConfig(q=3, seed=0))

    def test_class_too_small(self):
        store, centroids = toy_store(classes=3, per_class=3, seed=1)
        index = ClassIndex.build(store)
        out = SyntheticClassifier(centroids, tau=1.0).predict_split(store, "train")
        with pytest.raises(InsufficientCandidatesError):
            sample_train(store, out, index, SamplerConfig(q=3, seed=0))


class TestEvalSampling:
    def test_exact_balance(self, pipeline):
        store, index, _, out_test = pipeline
        pairs = sample_eval(store, out_test, index, SamplerConfig(q=4, seed=0))
        assert len(pairs.positives()) == len(pairs.negatives())

    def test_no_identical_grids(self, pipeline):
        store, index, _, out_test = pipeline
        pairs = sample_eval(store, out_test, index, SamplerConfig(q=4, seed=0))
        for p in pairs.pairs:
            assert not np.array_equal(
                store.grid("test", p.query_id), store.grid("train", p.neighbor_id)
            )

    def test_trim_deterministic(self, pipeline):
        store, index, _, out_test = pipeline
        cfg = SamplerConfig(q=4, seed=9)
        a = sample_eval(store, out_test, index, cfg)
        b = sample_eval(store, out_test, index, cfg)
        assert [(p.query_id, p.neighbor_id, p.label) for p in a.pairs] == [
            (p.query_id, p.neighbor_id, p.label) for p in b.pairs
        ]

    def test_test_queries_keep_self_rank(self, pipeline):
        # test-split queries do not exist in train, so no exclusion applies and
        # the rank-1 positive is simply the nearest same-class train record
        store, index, _, out_test = pipeline
        pairs = sample_eval(store, out_test, index, SamplerConfig(q=2, seed=0))
        p = next(p for p in pairs.positives() if p.nn_rank == 1)
        pooled = store.pooled("test", p.query_id)
        want, _ = index.nearest_in_class(pooled, p.source_class, rank=1)
        assert p.neighbor_id == want

    def test_duplicate_grid_pair_dropped(self):
        """A test grid equal to a train grid drops exactly the pairs that
        join the two; the rest stay, trimmed to an exact balance."""
        store, centroids = toy_store(classes=4, per_class=6, seed=4)
        qid = store.ids("test")[0]
        twin = store.by_class("train", store.class_of("test", qid))[2]
        grids = {s: store.grids(s).copy() for s in ("train", "test")}
        grids["test"][store.rows("test", [qid])[0]] = store.grid("train", twin)
        store = build_store("toy", store.manifest.class_names, store.manifest.records, grids)
        index = ClassIndex.build(store)
        out_test = SyntheticClassifier(centroids, tau=1.0, seed=7).predict_split(store, "test")
        cfg = SamplerConfig(q=3, seed=0)

        raw = [(p.query_id, p.neighbor_id, p.label)
               for p in pairsampler._sample(store, out_test, index, cfg, "test").pairs]
        assert (qid, twin, POSITIVE) in raw
        # loop reference of the dedupe: one grid comparison per pair
        undup = [t for t in raw if not np.array_equal(
            store.grid("test", t[0]), store.grid("train", t[1]))]
        assert len(undup) == len(raw) - 1

        pairs = sample_eval(store, out_test, index, cfg)
        got = [(p.query_id, p.neighbor_id, p.label) for p in pairs.pairs]
        assert (qid, twin, POSITIVE) not in got
        assert len(pairs.positives()) == len(pairs.negatives())
        n_pos = sum(1 for t in undup if t[2] == POSITIVE)
        assert len(got) == 2 * min(n_pos, len(undup) - n_pos)
        # kept pairs are a subsequence of the undeduplicated order
        it = iter(undup)
        assert all(t in it for t in got)


def reference_sample(store, output, index, config, split):
    """Per-query reference of `_sample`: (query, neighbor, label, class,
    rank) tuples and the gt-in-top-Q flags, retrieved one query and one
    class at a time."""
    pairs, flags = [], {}
    num_classes = store.manifest.num_classes
    for qid, pooled in zip(store.ids(split), store.pooled_all(split)):
        gt = store.class_of(split, qid)
        probs = output.probs[store.rows(split, [qid])[0]]
        top = sorted(range(num_classes), key=lambda c: (-probs[c], c))[: config.q]
        flags[qid] = gt in top
        exclude = qid if split == "train" else None
        for rank, (nid, _) in enumerate(
            index.nearest_k_in_class(pooled, gt, config.q, exclude), start=1
        ):
            pairs.append((qid, nid, POSITIVE, gt, rank))
        if config.negative_mode == "hard_topQ":
            negs = [c for c in top if c != gt]
        else:
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, qid]))
            others = np.array([c for c in range(num_classes) if c != gt])
            want = config.q - 1 if flags[qid] else config.q
            negs = rng.choice(others, size=want, replace=False).tolist()
        for cid in negs:
            nid, _ = index.nearest_in_class(pooled, cid, rank=config.nn_rank)
            pairs.append((qid, nid, NEGATIVE, cid, config.nn_rank))
    return pairs, flags


def reference_eval(store, raw, seed):
    """Per-pair reference of sample_eval's dedupe and seeded 50/50 trim;
    also returns how many more negatives than positives the dedupe left."""
    kept = [t for t in raw if not np.array_equal(store.grid("test", t[0]),
                                                 store.grid("train", t[1]))]
    pos = [t for t in kept if t[2] == POSITIVE]
    neg = [t for t in kept if t[2] == NEGATIVE]
    excess = len(neg) - len(pos)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBA1A]))
    target = min(len(pos), len(neg))
    for side in (pos, neg):
        if len(side) > target:
            drop = set(rng.choice(len(side), size=len(side) - target, replace=False))
            side[:] = [t for i, t in enumerate(side) if i not in drop]
    chosen = set(pos + neg)
    return [t for t in kept if t in chosen], excess


def as_tuples(pairset):
    return [(p.query_id, p.neighbor_id, p.label, p.source_class, p.nn_rank)
            for p in pairset.pairs]


class TestBatchedParity:
    @pytest.mark.parametrize("mode", ["hard_topQ", "random_class"])
    @pytest.mark.parametrize("split", ["train", "test"])
    def test_sample_matches_per_query_reference(self, pipeline, mode, split):
        store, index, out_train, out_test = pipeline
        output = out_train if split == "train" else out_test
        cfg = SamplerConfig(q=3, nn_rank=2, negative_mode=mode, seed=4)
        got = pairsampler._sample(store, output, index, cfg, split)
        want, flags = reference_sample(store, output, index, cfg, split)
        assert as_tuples(got) == want
        assert got.gt_in_topq == flags
        assert set(flags.values()) == {True, False}

    @pytest.mark.parametrize("mode", ["hard_topQ", "random_class"])
    @pytest.mark.parametrize("twins", [1, 24])
    def test_sample_eval_matches_per_pair_reference(self, mode, twins):
        """Planted duplicate grids drop their pairs; 24 of them leave fewer
        positives than negatives, so the trim then cuts the negatives."""
        store, centroids = toy_store(classes=4, per_class=6, seed=4)
        grids = {s: store.grids(s).copy() for s in ("train", "test")}
        for qid in store.ids("test")[:twins]:
            twin = store.by_class("train", store.class_of("test", qid))[qid % 6]
            grids["test"][store.rows("test", [qid])[0]] = store.grid("train", twin)
        store = build_store("toy", store.manifest.class_names, store.manifest.records, grids)
        index = ClassIndex.build(store)
        out_test = SyntheticClassifier(centroids, tau=1.0, corruption_rate=0.5,
                                       seed=7).predict_split(store, "test")
        cfg = SamplerConfig(q=3, negative_mode=mode, seed=1)
        raw = as_tuples(pairsampler._sample(store, out_test, index, cfg, "test"))
        want, excess = reference_eval(store, raw, cfg.seed)
        assert as_tuples(sample_eval(store, out_test, index, cfg)) == want
        assert excess > 0 if twins == 24 else excess < 0


    def test_same_pooled_vector_but_other_grid_is_kept(self):
        # swapping two tokens keeps the pooled vector bit for bit but not the
        # grid, so the pair passes the pooled comparison and is kept
        store, centroids = toy_store(classes=4, per_class=6, seed=4)
        qid = store.ids("test")[0]
        twin = store.by_class("train", store.class_of("test", qid))[0]
        grids = {s: store.grids(s).copy() for s in ("train", "test")}
        grids["test"][store.rows("test", [qid])[0]] = store.grid("train", twin)[[1, 0, 2]]
        store = build_store("toy", store.manifest.class_names, store.manifest.records, grids)
        np.testing.assert_array_equal(store.pooled_all("test")[store.rows("test", [qid])],
                                      store.pooled_all("train")[store.rows("train", [twin])])
        index = ClassIndex.build(store)
        out_test = SyntheticClassifier(centroids, tau=1.0, seed=7).predict_split(store, "test")
        cfg = SamplerConfig(q=3, seed=2)
        raw = as_tuples(pairsampler._sample(store, out_test, index, cfg, "test"))
        want, _ = reference_eval(store, raw, cfg.seed)
        assert len(want) == 2 * min(sum(t[2] for t in raw), sum(1 - t[2] for t in raw))
        assert as_tuples(sample_eval(store, out_test, index, cfg)) == want

    def test_same_first_pooled_column_but_other_grid_is_kept(self):
        # one test grid equals its train twin; another equals its twin in
        # the first column only, so it passes the first-column comparison
        # and must be kept
        store, centroids = toy_store(classes=4, per_class=6, seed=4)
        (qid, twin), (near, near_twin) = [
            (q, store.by_class("train", store.class_of("test", q))[0])
            for q in store.ids("test")[[0, 6]]]
        grids = {s: store.grids(s).copy() for s in ("train", "test")}
        grids["test"][store.rows("test", [qid])[0]] = store.grid("train", twin)
        grids["test"][store.rows("test", [near])[0]] = store.grid("train", near_twin) + [0, 1e-3, 0, 0, 0]
        store = build_store("toy", store.manifest.class_names, store.manifest.records, grids)
        pooled1, pooled2 = store.pooled("test", near), store.pooled("train", near_twin)
        assert pooled1[0] == pooled2[0] and not np.array_equal(pooled1, pooled2)
        index = ClassIndex.build(store)
        out_test = SyntheticClassifier(centroids, tau=1.0, seed=7).predict_split(store, "test")
        cfg = SamplerConfig(q=3, seed=0)
        raw = as_tuples(pairsampler._sample(store, out_test, index, cfg, "test"))
        assert {(qid, twin, POSITIVE), (near, near_twin, POSITIVE)} <= {t[:3] for t in raw}
        want, _ = reference_eval(store, raw, cfg.seed)
        got = as_tuples(sample_eval(store, out_test, index, cfg))
        assert got == want
        pairs = [t[:3] for t in got]
        assert (qid, twin, POSITIVE) not in pairs and (near, near_twin, POSITIVE) in pairs


def test_jsonl_roundtrip(pipeline, tmp_path):
    store, index, out_train, _ = pipeline
    cfg = SamplerConfig(q=3, nn_rank=2, negative_mode="random_class", seed=5)
    pairs = sample_train(store, out_train, index, cfg)
    save_pairs(pairs, tmp_path / "pairs.jsonl")
    loaded = load_pairs(tmp_path / "pairs.jsonl")
    assert loaded.config == cfg
    assert loaded == pairs
    loaded.pairs[0].label = 1 - loaded.pairs[0].label
    assert loaded != pairs


def test_empty_jsonl_roundtrip(tmp_path):
    empty = PairSet("test", SamplerConfig(q=3, seed=5), pair_array(*[[]] * len(PAIR_FIELDS)))
    save_pairs(empty, tmp_path / "pairs.jsonl")
    loaded = load_pairs(tmp_path / "pairs.jsonl")
    assert isinstance(loaded.pairs, np.recarray) and len(loaded) == 0
    assert loaded.pairs.dtype.names == PAIR_FIELDS
    assert all(loaded.pairs[name].dtype == np.int64 for name in PAIR_FIELDS)
    assert loaded.config == empty.config and loaded.gt_in_topq == {}


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(q=1)
    with pytest.raises(ValueError):
        SamplerConfig(nn_rank=0)
    with pytest.raises(ValueError):
        SamplerConfig(negative_mode="bogus")
