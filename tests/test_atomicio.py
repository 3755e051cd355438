import os

import pytest

from pcnn import comparator, pairsampler, reranker
from pcnn.atomicio import atomic_open, check_blob, sha256, write_blob
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



def test_sha256_is_hex_digest():
    assert sha256(b"") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


class _Bad(ValueError):
    pass


@pytest.mark.parametrize("edit, message", [
    (lambda b: b[:-1], "3 bytes, expected 4"),
    (lambda b: bytes([b[0] ^ 1]) + b[1:], "sha256"),
], ids=["truncated", "flipped"])
def test_check_blob_names_where_with_the_callers_error(edit, message):
    blob = b"abcd"
    check_blob(blob, 4, sha256(blob), "x.bin", _Bad)
    with pytest.raises(_Bad, match=f"x.bin: {message}"):
        check_blob(edit(blob), 4, sha256(blob), "x.bin", _Bad)


def test_write_blob_writes_blob_then_header(tmp_path, monkeypatch):
    moved = []
    real = os.replace
    monkeypatch.setattr(os, "replace", lambda a, b: (moved.append(os.path.basename(b)),
                                                     real(a, b)))
    write_blob(tmp_path / "b.bin", b"\x00\x01", tmp_path / "b.json", "{}")
    assert moved == ["b.bin", "b.json"]
    assert (tmp_path / "b.bin").read_bytes() == b"\x00\x01"
    assert (tmp_path / "b.json").read_text() == "{}"
