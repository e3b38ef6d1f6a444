"""Shared checkpoint/lineage machinery for multi-stage pipelines.

Each stage's manifest entry records a fingerprint of (pipeline config,
stage name, upstream fingerprint); a re-run with an intact checkpoint
directory skips every stage whose entry is complete and
fingerprint-matching, re-reading its partitioned-Parquet output instead
of recomputing. Without a checkpoint dir, stages materialize and
metrics still accumulate.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import ray.data


def _stabilize_fsspec_http_import() -> None:
    """Make ``from fsspec.implementations.http import HTTPFileSystem``
    deterministic under concurrent driver threads.

    Ray's path resolution probes that import on EVERY read/write
    (ray/data/datasource/path_util._is_http_filesystem) and handles
    ``ModuleNotFoundError``. When aiohttp is absent the probe fails on
    every call, and two driver threads resolving paths concurrently can
    race CPython's partially-initialized-module state, turning the
    error into ``ImportError: cannot import name 'HTTPFileSystem'`` —
    which escapes Ray's except clause and kills that thread's call.
    The pipelines run one thread, but callers may not: a watchdog that
    abandons a hung call (perfbench/run.py) leaves its thread running
    next to the next call. Install a minimal stub module once so the
    import always succeeds; the stub class is never an fsspec
    filesystem instance, so the probe still returns False for every
    real filesystem. No-op when the real import works (aiohttp
    installed); any error other than ``ImportError`` propagates."""
    try:
        from fsspec.implementations.http import HTTPFileSystem  # noqa: F401
        return
    except ImportError:
        pass
    import sys
    import types

    mod = types.ModuleType("fsspec.implementations.http")

    class HTTPFileSystem:  # placeholder only; never instantiated
        pass

    mod.HTTPFileSystem = HTTPFileSystem
    sys.modules["fsspec.implementations.http"] = mod
    try:
        import fsspec.implementations as _fi

        _fi.http = mod
    except ImportError:
        pass


_stabilize_fsspec_http_import()


class CheckpointedPipeline:
    def __init__(self, config_dict: dict, checkpoint_dir: str | None = None):
        self._config_dict = config_dict
        self.ckpt = checkpoint_dir
        self.metrics: dict = {"stages": {}, "config": config_dict}
        if checkpoint_dir:
            os.makedirs(checkpoint_dir, exist_ok=True)

    # ---- manifest helpers -------------------------------------------------
    def _manifest_path(self) -> str:
        return os.path.join(self.ckpt, "manifest.json")

    def _load_manifest(self) -> dict:
        p = self._manifest_path()
        if os.path.exists(p):
            with open(p) as f:
                return json.load(f)
        return {"stages": {}}

    def _save_manifest(self, m: dict) -> None:
        tmp = self._manifest_path() + ".tmp"
        with open(tmp, "w") as f:
            json.dump(m, f, indent=2)
        os.replace(tmp, self._manifest_path())

    def _fingerprint(self, stage: str, upstream_fp: str) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(self._config_dict, sort_keys=True).encode())
        h.update(stage.encode())
        h.update(upstream_fp.encode())
        return h.hexdigest()[:16]

    def _stage(self, name: str, upstream_fp: str, build):
        """Run or resume one checkpointed stage; returns (ds, fingerprint)."""
        fp = self._fingerprint(name, upstream_fp)
        t0 = time.time()
        if self.ckpt:
            ent = self._load_manifest()["stages"].get(name)
            out_dir = os.path.join(self.ckpt, name)
            if ent and ent.get("complete") and ent.get("fingerprint") == fp \
                    and os.path.isdir(out_dir):
                ds = ray.data.read_parquet(out_dir)
                self.metrics["stages"][name] = {
                    "resumed": True, "rows": ent.get("rows"), "sec": 0.0,
                }
                return ds, fp
            ds = build()
            ds.write_parquet(out_dir)
            # an empty dataset writes no files at all; keep the (empty)
            # in-memory result and let a resume rebuild it
            ds = (ray.data.read_parquet(out_dir) if os.path.isdir(out_dir)
                  else ds.materialize())
        else:
            ds = build().materialize()
        stat = {"rows": ds.count(), "sec": round(time.time() - t0, 3)}
        self.metrics["stages"][name] = {"resumed": False, **stat}
        if self.ckpt:
            man = self._load_manifest()
            man["stages"][name] = {"complete": True, "fingerprint": fp,
                                   **stat}
            self._save_manifest(man)
        return ds, fp

    def _write_metrics(self) -> None:
        if self.ckpt:
            with open(os.path.join(self.ckpt, "metrics.json"), "w") as f:
                json.dump(self.metrics, f, indent=2)
