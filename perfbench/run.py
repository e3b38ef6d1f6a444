"""Flagship transcript-dedup benchmark.

    python3 perfbench/run.py --workload planted --seed 1 --seconds 10 --trace 0

One run, in its own process: generate the workload's inputs from the
seed, start a local Ray session with 2 logical CPUs, set up (``ray.init``
plus a warm-up dedup on a tiny input), then measure whole rounds until
``--seconds`` have passed (at least one). A round is 1 + INCREMENTS
operations:

  1. ``run_dedup`` over the corpus, writing a checkpoint, timed from the
     call until the clusters' row count returns;
  2. INCREMENTS times, ``run_dedup_incremental`` of the held-out batch
     against that checkpoint, timed the same way.

Every run then checks the outputs against the benchmark's own plain-Python
computations (perfbench/checks.py) and prints, as its last stdout line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``; the per-layer metrics of
perfbench/traced.py with ``--trace 1``). It exits 1 if a check fails and
2 if the engine package is not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = "apache_datasketches_go_ray"
WORK = os.path.join(ROOT, ".pbw")
LOGICAL_CPUS = 2
STORE_BYTES = 768 << 20
DEADLINE_S = 170.0           # the whole process, set-up to exit
CHECK_RESERVE_S = 25.0       # kept back from each watchdog for the checks
WARMUP_CONVS = 24
SAMPLE = 200                 # conversations / edges re-checked per run
MIN_ELIGIBLE_RECALL = 0.99
# only ~150-300 eligible pairs straddle corpus and increment, so one or two
# LSH misses move their rate by ~1%; a broken increment misses most of them
MIN_STRADDLE_RECALL = 0.97
# shuffle fan-out cap, one partition per logical CPU: every hash shuffle
# starts up to this many aggregator actors, a process each, and the
# default of 64 takes minutes per shuffle on a 2-CPU session
PARTITIONS = LOGICAL_CPUS
# incremental runs per round: its wall time is mostly Ray start-up, whose
# run-to-run noise one measurement per run does not average out
INCREMENTS = 2


def nproc() -> int:
    """CPUs available to this process as ``nproc`` counts them (it also
    honours a cgroup CPU quota, which the affinity mask does not)."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True,
                                  text=True, check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def descendants() -> list:
    """Pids of this process's live descendants, read from /proc."""
    children: dict = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":
            children.setdefault(int(fields[1]), []).append(int(d))
    out, todo = [], [os.getpid()]
    while todo:
        kids = children.get(todo.pop(), [])
        out += kids
        todo += kids
    return out


def stop_descendants(wait_s: float = 10.0) -> None:
    """SIGKILL every live descendant and wait until none is left."""
    end = time.monotonic() + wait_s
    while (pids := descendants()) and time.monotonic() < end:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        while True:     # reap the ones that are our own children
            try:
                if os.waitpid(-1, os.WNOHANG)[0] == 0:
                    break
            except ChildProcessError:
                break
        time.sleep(0.1)


class Session:
    """A local Ray session whose files all live under ``work``.

    Ray puts its two Unix sockets (plasma store, raylet) under its temp
    dir, and a socket path may not exceed 107 bytes, so under a checkout
    at a long absolute path ``ray.init`` refuses to start. The temp dir
    must be absolute, and ``ray.init`` passes no socket names, so the
    session's parameters are given socket paths relative to the checkout
    root: the working directory of the driver and, inherited, of every
    process Ray starts.
    """

    def __init__(self, work: str):
        import ray

        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
        tmp = os.path.join(work, "tmp")
        os.makedirs(tmp, exist_ok=True)
        os.environ["TMPDIR"] = tmp
        os.chdir(ROOT)
        sockets = os.path.relpath(os.path.join(work, "s"))
        os.makedirs(sockets, exist_ok=True)
        params = ray._private.parameter.RayParams
        params_init = params.__init__

        def init_with_sockets(self, *a, **kw):
            params_init(self, *a, **kw)
            # without the scheme a relative path is taken for a host
            self.plasma_store_socket_name = "unix://" + os.path.join(
                sockets, "plasma")
            self.raylet_socket_name = "unix://" + os.path.join(
                sockets, "raylet")

        params.__init__ = init_with_sockets
        try:
            ray.init(address="local", num_cpus=LOGICAL_CPUS,
                     object_store_memory=STORE_BYTES,
                     include_dashboard=False,
                     _temp_dir=os.path.join(work, "ray"),
                     logging_level=logging.ERROR, log_to_driver=False)
        finally:
            params.__init__ = params_init
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        self.ray = ray
        self.logs = os.path.join(
            ray._private.worker._global_node.get_session_dir_path(), "logs")
        self.logical_cpus = int(ray.cluster_resources().get("CPU", 0))

    def worker_processes(self) -> int:
        """Worker processes started so far: each writes its own
        python-core-worker log file in the session's log directory."""
        return sum(1 for f in os.listdir(self.logs)
                   if f.startswith("python-core-worker-"))

    def shutdown(self) -> None:
        self.ray.shutdown()


class StoreSampler:
    """Peak object-store bytes in use (the store's capacity minus its
    available ``object_store_memory`` resource), polled every ``period``
    seconds by a driver thread while it runs."""

    def __init__(self, ray, period: float = 0.2):
        self.ray = ray
        self.total = ray.cluster_resources()["object_store_memory"]
        self.period = period
        self.peak = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> float:
        return self.total - self.ray.available_resources().get(
            "object_store_memory", 0.0)

    def _loop(self):
        while not self._stop.is_set():
            self.peak = max(self.peak, self.sample())
            self._stop.wait(self.period)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self.sample())


def stage_of(thread: threading.Thread) -> str:
    """The pipeline stage a (hung) thread is in: the ``name`` of the
    innermost pipeline ``_stage`` frame, else the innermost engine frame."""
    frame = sys._current_frames().get(thread.ident)
    engine = None
    while frame is not None:
        code = frame.f_code
        if code.co_name == "_stage" and "name" in frame.f_locals:
            return str(frame.f_locals["name"])
        if engine is None and PACKAGE in code.co_filename:
            engine = f"{os.path.basename(code.co_filename)}:{code.co_name}"
        frame = frame.f_back
    return engine or "unknown"


def guarded(fn, label: str, deadline: float):
    """Run ``fn`` in a daemon thread; a call that has not returned by
    ``deadline`` (monotonic) is a failed operation that names its stage.
    Returns (result, error message or None)."""
    box: dict = {}

    def target():
        try:
            box["out"] = fn()
        except Exception as e:  # reported as a failed operation
            box["err"] = f"{label}: {type(e).__name__}: {e}"

    th = threading.Thread(target=target, daemon=True, name=label)
    th.start()
    th.join(max(1.0, deadline - time.monotonic()))
    if th.is_alive():
        return None, f"{label}: no result by the deadline, stopped in " \
                     f"stage {stage_of(th)}"
    if "err" in box:
        return None, box["err"]
    return box["out"], None


def table_of(ds, cols):
    import pyarrow as pa

    blocks = [b for b in ds.select_columns(cols).iter_batches(
        batch_size=None, batch_format="pyarrow") if b.num_rows]
    if not blocks:
        return None
    return pa.concat_tables(blocks)


def edges_of(verified) -> list:
    t = table_of(verified.filter(expr="is_dup == True"), ["a", "b"])
    if t is None:
        return []
    return list(zip(t.column("a").to_pylist(), t.column("b").to_pylist()))


def clusters_of(ds) -> dict:
    t = table_of(ds, ["conv_id", "cluster_id"])
    if t is None:
        return {}
    return dict(zip(t.column("conv_id").to_pylist(),
                    t.column("cluster_id").to_pylist()))


def run_round(paths: dict, cfg, ckpt: str, deadline: float) -> dict:
    """One round: the full checkpointed run, then INCREMENTS incremental
    runs of the same batch against its checkpoint (an incremental run
    without a checkpoint dir of its own leaves that checkpoint as is)."""
    import ray.data
    from apache_datasketches_go_ray.pipelines.dedup import (
        run_dedup, run_dedup_incremental)

    shutil.rmtree(ckpt, ignore_errors=True)
    rnd: dict = {"errors": [], "ops": 1 + INCREMENTS, "inc_s": []}

    def full():
        ds = ray.data.read_parquet(paths["corpus"],
                                   columns=gen.READ_COLUMNS)
        t0 = time.perf_counter()
        res = run_dedup(ds, cfg, checkpoint_dir=ckpt)
        res["clusters"].count()
        return res, time.perf_counter() - t0

    def increment():
        ds = ray.data.read_parquet(paths["increment"],
                                   columns=gen.READ_COLUMNS)
        t0 = time.perf_counter()
        res = run_dedup_incremental(ds, ckpt, cfg)
        res["clusters"].count()
        return res, time.perf_counter() - t0

    out, err = guarded(full, "run_dedup", deadline)
    if err:
        rnd["errors"] += [err] + INCREMENTS * [
            "run_dedup_incremental: not run, the full run it extends failed"]
        return rnd
    rnd["full"], rnd["full_s"] = out
    rnd["checkpoint_bytes"] = gen.dir_bytes(ckpt)
    for i in range(INCREMENTS):
        out, err = guarded(increment, "run_dedup_incremental", deadline)
        if err:
            rnd["errors"] += [err] + (INCREMENTS - 1 - i) * [
                "run_dedup_incremental: not run after a failed one"]
            return rnd
        rnd.setdefault("inc", out[0])   # the first one's are checked
        rnd["inc_s"].append(out[1])
    return rnd


def check_round(rnd: dict, inp, cfg, seed: int) -> tuple[list, dict]:
    """All correctness checks of one round; (failures, summary)."""
    texts = {c: checks.TURN_SEP.join(t) for c, t in inp.convs.items()}
    rule = checks.Rule(cfg, texts)
    corpus_ids = [c for c in inp.convs if c not in inp.increment]
    asm = table_of(rnd["full"]["assembled"], ["conv_id", "text"])
    assembled = dict(zip(asm.column("conv_id").to_pylist(),
                         asm.column("text").to_pylist()))
    fails = checks.check_assembly(assembled, inp.convs, corpus_ids,
                                  SAMPLE, seed)
    full_edges = edges_of(rnd["full"]["verified"])
    inc_edges = edges_of(rnd["inc"]["verified"])
    final = clusters_of(rnd["inc"]["clusters"])
    fails += checks.check_clusters(clusters_of(rnd["full"]["clusters"]),
                                   full_edges, "full run")
    fails += checks.check_clusters(final, full_edges + inc_edges,
                                   "incremental run")
    fails += checks.check_edges(full_edges + inc_edges, rule, SAMPLE, seed)

    pairs = checks.planted_pairs(inp.groups)
    rec = checks.recall(final, pairs, rule)
    if rec["eligible"] < MIN_ELIGIBLE_RECALL:
        fails.append(f"eligible recall {rec['eligible']:.4f} < "
                     f"{MIN_ELIGIBLE_RECALL} (missed "
                     f"{rec['eligible_missed'][:5]})")
    straddle = [(a, b) for a, b in pairs
                if (a in inp.increment) != (b in inp.increment)]
    srec = checks.recall(final, straddle, rule)
    if srec["eligible"] < MIN_STRADDLE_RECALL:
        fails.append(f"in-spec corpus/increment pairs clustered "
                     f"{srec['eligible']:.4f} < {MIN_STRADDLE_RECALL} "
                     f"(missed {srec['eligible_missed'][:5]})")
    if inp.hot_family or inp.boilerplate:
        family_of = {c: c for c in inp.convs}
        family_of.update({c: g for c, g, _k in inp.groups})
        family_of.update({c: "hot" for c in inp.hot_family})
        fails += checks.check_skew(final, inp, family_of)
    summary = {
        "planted_pairs": rec["pairs"], "raw_recall": round(rec["raw"], 6),
        "eligible_pairs": rec["eligible_pairs"],
        "eligible_recall": round(rec["eligible"], 6),
        "straddle_eligible_pairs": srec["eligible_pairs"],
        "straddle_eligible_recall": round(srec["eligible"], 6),
        "edges": len(full_edges) + len(inc_edges),
        "clustered_convs": len(final),
    }
    return fails, summary


def warm_up(inp, cfg, deadline: float) -> None:
    """A dedup on a tiny input, so that worker start-up and first imports
    are not charged to the timed calls."""
    import numpy as np
    import ray.data
    from apache_datasketches_go_ray.pipelines.dedup import run_dedup

    tiny = dict(sorted(inp.convs.items())[:WARMUP_CONVS])
    tbl = gen.turn_table(tiny, sorted(tiny), np.random.default_rng(0))

    def dedup():
        res = run_dedup(ray.data.from_arrow(tbl.select(gen.READ_COLUMNS)),
                        cfg)
        return res["clusters"].count()

    _out, err = guarded(dedup, "warm-up run_dedup", deadline)
    if err:
        raise RuntimeError(f"set-up failed: {err}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_proc = time.monotonic()
    deadline = t_proc + DEADLINE_S

    # a terminated run still stops its Ray session (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, PACKAGE, "__init__.py")):
        print(f"error: the engine package {PACKAGE}/ is not at {ROOT}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    if args.workload not in gen.SHAPES:
        print(f"error: unknown workload {args.workload!r} "
              f"(one of {sorted(gen.SHAPES)})", file=sys.stderr)
        return 2
    from apache_datasketches_go_ray.config import DedupConfig

    work = os.path.join(WORK, f"{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    data = os.path.join(work, "in")
    inp = gen.make_inputs(args.workload, args.seed)
    digest = gen.write_inputs(inp, data, args.seed)
    paths = {p: os.path.join(data, p) for p in ("corpus", "increment")}
    cfg = DedupConfig(num_partitions=PARTITIONS)
    info = {"workload": args.workload, "seed": args.seed,
            "inputs_sha256": digest, "nproc": nproc(),
            "corpus_turns": gen.corpus_turns(inp),
            "increment_turns": gen.increment_turns(inp)}
    print(json.dumps({"inputs": info}), flush=True)

    session = None
    try:
        t0 = time.perf_counter()
        session = Session(work)
        warm_up(inp, cfg, deadline - CHECK_RESERVE_S)
        setup_s = time.perf_counter() - t0
        info["ray_logical_cpus"] = session.logical_cpus

        rounds, errors = [], []
        t_measure = time.monotonic()
        with StoreSampler(session.ray) as store:
            while True:
                w0 = session.worker_processes()
                rnd = run_round(paths, cfg, os.path.join(work, "ckpt"),
                                deadline - CHECK_RESERVE_S)
                rnd["worker_processes"] = session.worker_processes() - w0
                rounds.append(rnd)
                errors += rnd["errors"]
                if (rnd["errors"] or time.monotonic() - t_measure
                        >= args.seconds):
                    break
        attempted = sum(r["ops"] for r in rounds)
        failed = len(errors)
        ok = [r for r in rounds if not r["errors"]]

        fails, summary = [], {}
        if ok:
            fails, summary = check_round(ok[0], inp, cfg, args.seed)
        info.update(rounds=[dict(
            {k: r.get(k) for k in ("full_s", "inc_s", "worker_processes")},
            engine_stages={op: {st: v["sec"] for st, v in
                                r[op]["metrics"]["stages"].items()}
                           for op in ("full", "inc") if op in r})
            for r in rounds], setup_s=setup_s, checks=summary,
                    check_failures=fails, errors=errors)

        if args.trace:
            import traced

            metrics = {}
            if ok:
                values, err = guarded(lambda: traced.per_layer(
                    ok[0], inp, paths, cfg, work, os.path.join(
                        WORK, f"spans-{args.workload}-{args.seed}.json")),
                    "traced run", deadline - 5.0)
                if err:
                    raise RuntimeError(err)
                values["peak_store_mb"] = store.peak / 1e6
                metrics = {name: (values[name], unit)
                           for name, unit in traced.PER_LAYER}
        else:
            metrics = {}
            if ok:
                med = statistics.median
                metrics = {
                    "turns_per_s": (med(info["corpus_turns"] / r["full_s"]
                                        for r in ok), "turns/s"),
                    "increment_turns_per_s": (
                        med(info["increment_turns"] / t
                            for r in ok for t in r["inc_s"]), "turns/s"),
                    "dup_pair_recall": (summary["raw_recall"], "ratio"),
                    "checkpoint_mb": (med(r["checkpoint_bytes"] / 1e6
                                          for r in ok), "MB"),
                    "setup_s": (setup_s, "s"),
                }
        print(json.dumps({"run": info}), file=sys.stderr, flush=True)
        result = {
            "correct": not fails,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result), flush=True)
        return 1 if fails else 0
    finally:
        if session is not None:
            session.shutdown()
        # a session that failed to start leaves its daemons behind
        stop_descendants()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
