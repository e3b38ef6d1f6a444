"""Driver-style correctness check: run each queries() entry and its
oracle_sql() side-by-side on an sf dir, compare row count, schema width
and order-insensitive values.

Usage: python tools/check_oracle.py [sf_dir] [query ...]

GRAFT_CHECK_CPUS sets the Ray session's logical CPUs (default 8, at
least 2).
"""

import os
import sys
import time

import duckdb
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def to_pandas(obj):
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), ignore_index=True)


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ncpu = int(os.environ.get("GRAFT_CHECK_CPUS", "8"))
        if ncpu < 2:
            # a hash shuffle's aggregator actors hold the only CPU, so
            # the map tasks feeding them never run: the sweep hangs
            sys.exit(f"GRAFT_CHECK_CPUS={ncpu}: the oracle check needs at "
                     "least 2 Ray CPUs (a hash shuffle on 1 CPU hangs)")
        ray.init(address="local", num_cpus=ncpu, include_dashboard=False)
    import apache_datasketches_go_ray  # noqa: F401 (hash shuffle ctx)
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{sf_dir}/{t}.parquet')"
        )

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    results = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            results[name] = f"RAY-ERROR {type(e).__name__}: {e}"
            continue
        dt = time.time() - t0
        if name not in oracles:
            results[name] = f"rows-only rows={len(mine)} ({dt:.1f}s)"
            continue
        sql = oracles[name]
        # transcript oracles embed the driver tier's (sf0.01) cache
        # path; point them at the tier under test instead
        tier = os.path.basename(os.path.normpath(sf_dir))
        sql = sql.replace("/tmp/adgr_entry_cache/sf0.01/",
                          f"/tmp/adgr_entry_cache/{tier}/")
        try:
            oracle = canon(con.execute(sql).df())
        except Exception as e:
            results[name] = f"SQL-ERROR {type(e).__name__}: {e}"
            continue
        ok_rows = len(mine) == len(oracle)
        ok_cols = list(mine.columns) == list(oracle.columns)
        ok_vals = False
        if ok_rows and ok_cols:
            try:
                m = mine.reset_index(drop=True)
                o = oracle.reset_index(drop=True)
                ok_vals = True
                for c in m.columns:
                    a, b = m[c], o[c]
                    # the driver hashes raw values, so a dtype mismatch
                    # (e.g. DuckDB HUGEINT->float64 vs engine int64) fails
                    # its gate even when values are equal — flag it hard
                    if a.dtype != b.dtype:
                        ok_vals = False
                        results.setdefault(
                            "_detail_" + name,
                            f"DTYPE col {c}: mine={a.dtype} oracle={b.dtype}")
                        continue
                    if a.dtype.kind == "f" or b.dtype.kind == "f":
                        same = (
                            (a.astype(float) - b.astype(float)).abs() < 1e-12
                        ).all()
                    else:
                        same = (a.astype(str) == b.astype(str)).all()
                    if not same:
                        ok_vals = False
                        results.setdefault(
                            "_detail_" + name,
                            f"col {c} first diff:\n"
                            + str(pd.DataFrame({"mine": a, "oracle": b})[
                                a.astype(str) != b.astype(str)].head(3)),
                        )
            except Exception as e:
                ok_vals = False
                results["_detail_" + name] = str(e)
        results[name] = (
            f"{'MATCH' if (ok_rows and ok_cols and ok_vals) else 'MISMATCH'} "
            f"rows {len(mine)}/{len(oracle)} cols_ok={ok_cols} ({dt:.1f}s)"
        )
    for k, v in results.items():
        print(f"{k:32s} {v}")
    ray.shutdown()


if __name__ == "__main__":
    main()
