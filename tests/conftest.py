import numpy as np
import pytest

from pcnn.embedstore import build_store


def toy_store(classes=4, per_class=6, tokens=3, depth=5, seed=0, spread=4.0, noise=0.3,
              sparse_ids=False):
    """Small well-separated store for unit tests. Each split's record ids
    count up from 0, so a record's id is its row; with `sparse_ids` the same
    records carry distinct ids drawn from [0, 10**6) in shuffled order."""
    rng = np.random.default_rng(seed)
    centroids = rng.normal(size=(classes, depth)) * spread
    records = {"train": [], "test": []}
    grids = {"train": [], "test": []}
    for split in ("train", "test"):
        rid = 0
        for cid in range(classes):
            for _ in range(per_class):
                records[split].append((rid, cid))
                grids[split].append(centroids[cid] + rng.normal(0, noise, size=(tokens, depth)))
                rid += 1
    if sparse_ids:
        # a stream of its own, so the grids stay those of the id == row store
        id_rng = np.random.default_rng([seed, 1])
        for split in ("train", "test"):
            drawn = id_rng.choice(10**6, size=len(records[split]), replace=False)
            records[split] = [(int(r), c) for r, (_, c) in zip(drawn, records[split])]
    store = build_store(
        "toy",
        [f"c{i}" for i in range(classes)],
        records,
        {s: np.array(grids[s]) for s in ("train", "test")},
    )
    return store, centroids


def record_calls(monkeypatch, owner, name, log):
    """Wrap `owner.name` so that each call appends `name` to `log`."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        log.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.fixture
def small_store():
    return toy_store()
