import numpy as np
import pytest

from pcnn.embedstore import build_store
from pcnn.nnindex import ClassIndex, InsufficientCandidatesError

from conftest import toy_store


@pytest.fixture(scope="module")
def store_index():
    store, centroids = toy_store(classes=5, per_class=8, seed=3)
    return store, centroids, ClassIndex.build(store)


def brute_nearest(store, query, class_id, rank, exclude):
    cands = []
    for rid in store.by_class("train", class_id):
        if rid in exclude:
            continue
        d = float(np.sum((store.pooled("train", rid) - query) ** 2))
        cands.append((d, rid))
    cands.sort()
    return cands[rank - 1][1], cands[rank - 1][0]


class TestNearestInClass:
    def test_exact_match_distance_zero(self, store_index):
        store, _, index = store_index
        rid = store.by_class("train", 2)[0]
        q = store.pooled("train", rid)
        got, dist = index.nearest_in_class(q, 2, rank=1)
        assert got == rid
        assert dist == 0.0

    def test_rank2_with_self_excluded(self, store_index):
        store, _, index = store_index
        rid = store.by_class("train", 1)[0]
        q = store.pooled("train", rid)
        nid, _ = index.nearest_in_class(q, 1, rank=1, exclude=rid)
        assert nid != rid
        nid2, _ = index.nearest_in_class(q, 2, rank=1)
        # rank-1 with self excluded == rank-2 without exclusion here
        assert nid == index.nearest_in_class(q, 1, rank=2)[0]

    def test_insufficient_candidates(self, store_index):
        store, _, index = store_index
        q = store.pooled("train", 0)
        with pytest.raises(InsufficientCandidatesError):
            index.nearest_in_class(q, 0, rank=99)

    def test_agrees_with_exhaustive_scan(self, store_index):
        store, _, index = store_index
        rng = np.random.default_rng(0)
        d = store.manifest.depth
        for _ in range(200):
            q = rng.normal(size=d) * 3
            cid = int(rng.integers(5))
            rank = int(rng.integers(1, 4))
            got_id, got_d = index.nearest_in_class(q, cid, rank=rank)
            want_id, want_d = brute_nearest(store, q, cid, rank, set())
            assert got_id == want_id
            assert got_d == pytest.approx(want_d, rel=1e-9)

    def test_rank1_is_minimum(self, store_index):
        store, _, index = store_index
        rng = np.random.default_rng(1)
        for _ in range(50):
            q = rng.normal(size=store.manifest.depth)
            cid = int(rng.integers(5))
            _, dist = index.nearest_in_class(q, cid, rank=1)
            for rid in store.by_class("train", cid):
                assert dist <= np.sum((store.pooled("train", rid) - q) ** 2) + 1e-12


class TestTopkGlobal:
    def test_full_split_sorted(self, store_index):
        store, _, index = store_index
        q = store.pooled("test", 0)
        n = store.size("train")
        hits = index.topk_global(q, n)
        dists = [d for _, d, _ in hits]
        assert dists == sorted(dists)
        assert len(hits) == n

    def test_k1_matches_best_class_nn(self, store_index):
        store, _, index = store_index
        rng = np.random.default_rng(2)
        for _ in range(30):
            q = rng.normal(size=store.manifest.depth) * 2
            (gid, gdist, _), = index.topk_global(q, 1)
            best = min(
                (index.nearest_in_class(q, c, rank=1) for c in range(5)),
                key=lambda t: (t[1], t[0]),
            )
            assert (gid, gdist) == best

    def test_prefix_property(self, store_index):
        store, _, index = store_index
        q = store.pooled("test", 3)
        for k in range(1, 10):
            assert index.topk_global(q, k) == index.topk_global(q, k + 1)[:k]

    def test_k_too_large(self, store_index):
        store, _, index = store_index
        with pytest.raises(InsufficientCandidatesError):
            index.topk_global(np.zeros(store.manifest.depth), store.size("train") + 1)

    def test_self_exclusion(self, store_index):
        store, _, index = store_index
        rid = store.ids("train")[0]
        q = store.pooled("train", rid)
        hits = index.topk_global(q, 10, exclude=rid)
        assert rid not in [i for i, _, _ in hits]
        # with exact twins in the split, a train query's global ranking
        # minus itself is the direct-form (distance, id) order of the other
        # records; asking for all n leaves one short
        from pcnn import kernels

        store = tied_sparse_store()
        index = ClassIndex.build(store)
        ids, vecs = store.ids("train"), store.pooled_all("train")
        n = len(ids)
        for row in (0, 5, n - 1):
            rid, q = int(ids[row]), vecs[row]
            keep = ids != rid
            dist = kernels.sqdist_one(q, vecs[keep])
            want = ids[keep][np.lexsort((ids[keep], dist))]
            hits = index.topk_global(q, n - 1, exclude=rid)
            assert [i for i, _, _ in hits] == want.tolist()
            assert [c for i, _, c in hits] == [store.class_of("train", i) for i in want]
            with pytest.raises(InsufficientCandidatesError,
                               match=f"need {n} candidates, have {n - 1}"):
                index.topk_global(q, n, exclude=rid)


def members(index, class_id):
    """Record ids of a class, ranked out through `nearest_k_in_class`."""
    n = index.class_size(class_id)
    if n == 0:
        return []
    query = np.zeros(index._vecs.shape[1])
    return sorted(i for i, _ in index.nearest_k_in_class(query, class_id, n))


class TestLayout:
    def test_unknown_class(self, store_index):
        store, _, index = store_index
        q = store.pooled("test", 0)
        for cid in (-1, 5, 99):
            assert index.class_size(cid) == 0
            with pytest.raises(KeyError):
                index.nearest_in_class(q, cid)
            with pytest.raises(KeyError):
                index.nearest_k_in_class(q, cid, 1)

    def test_classes_hold_their_records(self, store_index):
        store, _, index = store_index
        assert index.classes == list(range(5))
        for c in index.classes:
            assert members(index, c) == store.by_class("train", c)

    def test_empty_class(self):
        store, _ = toy_store(classes=3, per_class=4, seed=2)
        keep = [(r, c) for r, c in store.manifest.records["train"] if c != 1]
        rows = store.rows("train", [r for r, _ in keep])
        sparse = build_store(
            "toy", store.manifest.class_names,
            {"train": keep, "test": store.manifest.records["test"]},
            {"train": store.grids("train")[rows], "test": store.grids("test")},
        )
        index = ClassIndex.build(sparse)
        assert [index.class_size(c) for c in index.classes] == [4, 0, 4]
        q = sparse.pooled("test", 0)
        with pytest.raises(InsufficientCandidatesError):
            index.nearest_in_class(q, 1)
        hits = index.topk_global(q, 8)
        assert sorted(c for _, _, c in hits) == [0] * 4 + [2] * 4
        for rid, _, cid in hits:
            assert sparse.class_of("train", rid) == cid


class TestSubsample:
    def test_identity_at_one(self, store_index):
        _, _, index = store_index
        sub = index.subsample(1.0, seed=0)
        for c in index.classes:
            assert members(sub, c) == members(index, c)

    def test_fraction_033_of_30(self):
        store, _ = toy_store(classes=2, per_class=30, seed=5)
        index = ClassIndex.build(store)
        sub = index.subsample(0.33, seed=1)
        for c in index.classes:
            assert sub.class_size(c) == 10  # ceil(0.33 * 30)

    def test_deterministic(self, store_index):
        _, _, index = store_index
        a = index.subsample(0.5, seed=7)
        b = index.subsample(0.5, seed=7)
        for c in index.classes:
            assert members(a, c) == members(b, c)

    def test_keeps_the_seeded_draw(self, store_index):
        """Each class keeps the ids of one SeedSequence([seed, class]) draw."""
        store, _, index = store_index
        sub = index.subsample(0.5, seed=7)
        for c in index.classes:
            ids = store.by_class("train", c)
            rng = np.random.default_rng(np.random.SeedSequence([7, c]))
            chosen = np.sort(rng.choice(len(ids), size=4, replace=False))
            assert members(sub, c) == [ids[i] for i in chosen]

    def test_bad_fraction(self, store_index):
        _, _, index = store_index
        with pytest.raises(ValueError):
            index.subsample(0.0, seed=0)


def test_sqdist_many_matches_direct_form(store_index):
    """The Gram-form batch kernel agrees with stacked direct-form distances
    to rounding and is never negative, a query equal to a base row included."""
    from pcnn import kernels

    store, _, _ = store_index
    rng = np.random.default_rng(9)
    base = store.pooled_all("train")
    # every base row is also a query: unclamped, the Gram form can give
    # -1e-13-sized distances on some of them
    queries = np.vstack([rng.normal(size=(6, base.shape[1])) * 3, base])
    many = kernels.sqdist_many(queries, base)
    direct = np.stack([kernels.sqdist_one(q, base) for q in queries])
    assert many.shape == (len(queries), len(base))
    assert np.all(many >= 0)
    np.testing.assert_allclose(many, direct, rtol=1e-9, atol=1e-9)
    assert np.all(np.diag(direct[6:]) == 0.0)


def test_nearest_matches_direct_ranking():
    """The batched path returns the direct-form (distance, id) ranking, with
    exact ties from duplicated vectors and a per-query excluded id: an id
    drawn from the class is skipped, one from the other class changes
    nothing, and too few candidates are reported only when the class holds
    the excluded id."""
    from pcnn import kernels

    rng = np.random.default_rng(4)
    base = rng.integers(-3, 4, size=(12, 6)).astype(float)
    vecs = base[rng.integers(0, len(base), size=30)]  # many exact ties
    ids = rng.permutation(300)[:30]
    labels = rng.integers(0, 2, size=30)
    order = np.lexsort((ids, labels))
    bounds = np.concatenate([[0], np.cumsum(np.bincount(labels, minlength=2))])
    index = ClassIndex(vecs[order], ids[order], bounds)
    queries = np.vstack([vecs[:6], rng.normal(size=(6, 6))])
    for cid in (0, 1):
        cls_ids = index._ids[bounds[cid]:bounds[cid + 1]]
        cls_vecs = index._vecs[bounds[cid]:bounds[cid + 1]]
        in_class = cls_ids[rng.integers(0, len(cls_ids), size=len(queries))]
        # ids of both classes: only the in-class ones are skipped
        mixed = index._ids[rng.integers(0, len(index._ids), size=len(queries))]
        classes = np.full(len(queries), cid)
        for exclude in (in_class, mixed):
            for k in range(1, len(cls_ids)):
                got = index.nearest(queries, classes, k, exclude=exclude)
                for q, skip, row in zip(queries, exclude, got):
                    keep = cls_ids != skip
                    dist = kernels.sqdist_one(q, cls_vecs[keep])
                    want = cls_ids[keep][np.lexsort((cls_ids[keep], dist))][:k]
                    assert list(row) == list(want)
        with pytest.raises(InsufficientCandidatesError):
            index.nearest(queries, classes, len(cls_ids), exclude=in_class)
        outside = ~np.isin(mixed, cls_ids)
        assert outside.any() and not outside.all()
        got = index.nearest(queries[outside], classes[outside], len(cls_ids),
                            exclude=mixed[outside])
        assert (np.sort(got, axis=1) == np.sort(cls_ids)).all()
        with pytest.raises(InsufficientCandidatesError):
            index.nearest(queries[~outside], classes[~outside], len(cls_ids),
                          exclude=mixed[~outside])


def tied_sparse_store():
    """A store with sparse, shuffled ids in which every train grid has an
    exact twin of the same class, so retrieval meets exact distance ties."""
    base, _ = toy_store(classes=4, per_class=8, seed=6, sparse_ids=True)
    grids = base.grids("train").copy()
    grids[1::2] = grids[0::2]  # rows 2i and 2i + 1 hold one class each
    records = {s: list(zip(base.ids(s).tolist(), base.labels(s).tolist()))
               for s in ("train", "test")}
    return build_store("ties", base.manifest.class_names, records,
                       {"train": grids, "test": base.grids("test")})


def test_nearest_mixed_classes_equal_per_class_retrieval():
    """One call whose rows ask for different classes equals
    `nearest_k_in_class` row by row, each train query skipping itself."""
    store = tied_sparse_store()
    index = ClassIndex.build(store)
    rng = np.random.default_rng(8)
    for split in ("train", "test"):
        queries, ids = store.pooled_all(split), store.ids(split)
        classes = rng.integers(0, 4, size=len(ids))
        exclude = ids if split == "train" else None
        got = index.nearest(queries, classes, 5, exclude)
        assert got.shape == (len(ids), 5)
        for q, c, qid, row in zip(queries, classes, ids, got):
            skip = int(qid) if split == "train" else None
            want = [i for i, _ in index.nearest_k_in_class(q, int(c), 5, exclude=skip)]
            assert row.tolist() == want
        if split == "train":  # a train query's twin is its nearest positive
            same = classes == store.labels("train")
            twin = ids[np.arange(len(ids)) ^ 1]
            np.testing.assert_array_equal(got[same, 0], twin[same])


def test_nearest_names_the_class_too_small():
    store, _ = toy_store(classes=3, per_class=4, seed=2)
    keep = [(r, c) for r, c in store.manifest.records["train"] if c != 1 or r % 4 < 2]
    small = build_store(
        "toy", store.manifest.class_names,
        {"train": keep, "test": store.manifest.records["test"]},
        {"train": store.grids("train")[store.rows("train", [r for r, _ in keep])],
         "test": store.grids("test")},
    )
    index = ClassIndex.build(small)
    assert [index.class_size(c) for c in index.classes] == [4, 2, 4]
    queries = small.pooled_all("test")[:3]
    assert index.nearest(queries, [0, 1, 2], 2).shape == (3, 2)
    with pytest.raises(InsufficientCandidatesError, match="class 1"):
        index.nearest(queries, [0, 1, 2], 3)
