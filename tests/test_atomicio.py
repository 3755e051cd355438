import os

import pytest

from pcnn import comparator, pairsampler, reranker
from pcnn.atomicio import atomic_open
from pcnn.classifier import SyntheticClassifier, save_outputs
from pcnn.comparator import ComparatorConfig, ComparatorModel
from pcnn.nnindex import ClassIndex
from pcnn.reranker import CosineScorer, RerankConfig

from conftest import toy_store


def _boom(*args, **kwargs):
    raise OSError("injected replace failure")


def _writers():
    """name -> (file names, write(version, directory)); versions differ in bytes."""
    def world(version):
        store, centroids = toy_store(classes=3, per_class=4, seed=version)
        clf = SyntheticClassifier(centroids, tau=1.0, seed=version)
        return store, ClassIndex.build(store), clf

    def store_save(v, d):
        store, _, _ = world(v)
        store.save(d / "manifest.json", d / "payload.bin")

    def results(v, d):
        store, index, clf = world(v)
        out = clf.predict_split(store, "test")
        rr = reranker.rerank_split(store, out, index, CosineScorer(), RerankConfig(k=2))
        reranker.save_results(rr, d / "rerank.jsonl")

    def pairs(v, d):
        store, index, clf = world(v)
        cfg = pairsampler.SamplerConfig(q=2, seed=v)
        ps = pairsampler.sample_train(store, clf.predict_split(store, "train"), index, cfg)
        pairsampler.save_pairs(ps, d / "pairs.jsonl")

    def outputs(v, d):
        store, _, clf = world(v)
        save_outputs(clf.predict_split(store, "test"), d / "probs.bin", d / "probs.json")

    def checkpoint(v, d):
        model = ComparatorModel(ComparatorConfig(depth=5, tokens=3, heads=1), seed=v)
        comparator.save_checkpoint(model, d / "ckpt.bin", d / "ckpt.json", extra={"v": v})

    return {
        "store": (["manifest.json", "payload.bin"], store_save),
        "results": (["rerank.jsonl"], results),
        "pairs": (["pairs.jsonl"], pairs),
        "outputs": (["probs.bin", "probs.json"], outputs),
        "checkpoint": (["ckpt.bin", "ckpt.json"], checkpoint),
    }


@pytest.mark.parametrize("name", sorted(_writers()))
def test_failed_replace_keeps_previous_artifact(name, tmp_path, monkeypatch):
    names, write = _writers()[name]
    write(1, tmp_path)
    before = {n: (tmp_path / n).read_bytes() for n in names}
    monkeypatch.setattr(os, "replace", _boom)
    with pytest.raises(OSError, match="injected"):
        write(2, tmp_path)
    assert {n: (tmp_path / n).read_bytes() for n in names} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    monkeypatch.undo()
    write(2, tmp_path)  # the second version differs once it can land
    assert {n: (tmp_path / n).read_bytes() for n in names} != before


def test_error_inside_block_keeps_previous_file(tmp_path):
    path = tmp_path / "a.json"
    path.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("partial")
            raise RuntimeError("writer failed")
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"]

