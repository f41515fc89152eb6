"""
Append-only result cache for surveys and queries.

Entries are JSON objects, one per line, in files under a cache directory.
Keys are content hashes of (datum descriptor, operation, arguments,
engine version); bumping ENGINE_VERSION invalidates everything.  Corrupt
lines are skipped with a warning and never trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

ENGINE_VERSION = "2"


def cache_key(datum_desc: dict, op: str, args) -> str:
    payload = json.dumps({"datum": datum_desc, "op": op, "args": args,
                          "engine_version": ENGINE_VERSION},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


class CacheStore:
    def __init__(self, directory: str | None):
        self.directory = directory
        self._data: dict[str, dict] = {}
        self._fh = None
        if directory:
            os.makedirs(directory, exist_ok=True)
            self.path = os.path.join(directory, "results.jsonl")
            self._load()

    def _load(self):
        if not os.path.exists(self.path):
            return
        with open(self.path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    obj = None
                if not (isinstance(obj, dict) and isinstance(obj.get("key"), str)
                        and isinstance(obj.get("value"), dict)):
                    print(f"cache: skipping corrupt entry at line {lineno}",
                          file=sys.stderr)
                    continue
                self._data[obj["key"]] = obj["value"]

    def get(self, key: str):
        return self._data.get(key)

    def put(self, key: str, value: dict):
        if key in self._data and self._data[key] == value:
            return
        self._data[key] = value
        if self.directory:
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(json.dumps({"key": key, "value": value},
                                      sort_keys=True) + "\n")
            self._fh.flush()

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __len__(self):
        return len(self._data)
