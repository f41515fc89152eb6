import json
import os
import tempfile

from adlv.cache import ENGINE_VERSION, CacheStore, cache_key


def compact(store):
    """Rewrite the store's file with one line per key, atomically."""
    store.close()
    fd, tmp = tempfile.mkstemp(dir=store.directory, suffix=".tmp")
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        for key in sorted(store._data):
            fh.write(json.dumps({"key": key, "value": store._data[key]},
                                sort_keys=True) + "\n")
    os.replace(tmp, store.path)


def test_roundtrip(tmp_path):
    store = CacheStore(str(tmp_path))
    k = cache_key({"type": "C"}, "solve", {"x": "e"})
    store.put(k, {"status": "nonempty", "dim": 0})
    store.close()
    store2 = CacheStore(str(tmp_path))
    assert store2.get(k) == {"status": "nonempty", "dim": 0}


def test_version_in_key():
    k1 = cache_key({"type": "C"}, "solve", {"x": "e"})
    payload = json.dumps({"datum": {"type": "C"}, "op": "solve",
                          "args": {"x": "e"}, "engine_version": ENGINE_VERSION + "x"},
                         sort_keys=True, separators=(",", ":"))
    import hashlib
    k2 = hashlib.sha256(payload.encode()).hexdigest()
    assert k1 != k2  # bumping the version changes every key


def test_corrupt_lines_skipped(tmp_path, capsys):
    path = tmp_path / "results.jsonl"
    good = {"key": "k1", "value": {"a": 1}}
    # valid JSON that is no entry object: a scalar, a string, a list, a value
    # that is not a dict, a key that is not a string
    bad = ["null", "5", '"text"', "[1, 2]", '{"key": "k3", "value": 7}',
           '{"key": "k4", "value": [1]}', '{"key": [1], "value": {}}']
    path.write_text(json.dumps(good) + "\nnot json at all\n{\"key\": \"k2\"}\n"
                    + "\n".join(bad) + "\n")
    store = CacheStore(str(tmp_path))
    assert store.get("k1") == {"a": 1}
    assert store.get("k2") is None
    assert store.get("k3") is None and store.get("k4") is None
    assert len(store) == 1
    assert capsys.readouterr().err.count("skipping corrupt entry") == 2 + len(bad)


def test_compaction_atomic(tmp_path):
    store = CacheStore(str(tmp_path))
    for i in range(5):
        store.put("k%d" % i, {"v": i})
        store.put("k%d" % i, {"v": i})  # duplicate puts are deduped in memory
    compact(store)
    lines = (tmp_path / "results.jsonl").read_text().strip().splitlines()
    assert len(lines) == 5
    store2 = CacheStore(str(tmp_path))
    assert len(store2) == 5
