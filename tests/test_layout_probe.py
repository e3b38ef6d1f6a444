"""detect_input_layout: the exact probe must PROVE conv-grouped layouts
(sorted-at-rest, mid-conversation file splits included) and reject every
unsafe shape — shuffled rows, convs split across non-adjacent files,
scrambled turn order inside a run — and input_layout="auto" must route
the dedup pipeline to identical clusters either way."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write_sorted_shards(tmp_path, n_convs=120, shards=3, seed=42):
    from apache_datasketches_go_ray.sources.transcripts import (
        write_transcripts,
    )

    base = str(tmp_path / "orig")
    write_transcripts(base, n_convs, seed=seed, shards=2)
    tbl = pq.read_table(os.path.join(base, "transcripts"))
    idx = tbl.to_pandas().sort_values(
        ["conv_id", "turn_idx"], kind="stable").index.to_numpy()
    sorted_tbl = tbl.take(pa.array(idx))
    sdir = tmp_path / "sorted"
    sdir.mkdir()
    n = sorted_tbl.num_rows
    cuts = np.linspace(0, n, shards + 1).astype(int)
    cuts[1] += 1  # deliberately split mid-conversation
    for i in range(shards):
        pq.write_table(sorted_tbl.slice(cuts[i], cuts[i + 1] - cuts[i]),
                       str(sdir / f"part-{i:02d}.parquet"))
    return str(sdir), sorted_tbl


def test_probe_proves_sorted_at_rest(ray_session, tmp_path):
    from apache_datasketches_go_ray.sources.readers import (
        detect_input_layout,
    )

    sdir, _ = _write_sorted_shards(tmp_path)
    assert detect_input_layout(sdir) == "conv_grouped"


def test_probe_rejects_shuffled(ray_session, tmp_path):
    from apache_datasketches_go_ray.sources.readers import (
        detect_input_layout,
    )
    from apache_datasketches_go_ray.sources.transcripts import (
        write_transcripts,
    )

    base = str(tmp_path / "t")
    write_transcripts(base, 120, seed=42, shards=3)  # rows shuffled
    assert detect_input_layout(
        os.path.join(base, "transcripts")) == "shuffled"


def test_probe_rejects_nonadjacent_file_split(ray_session, tmp_path):
    """A conv grouped WITHIN each file but appearing in files 0 and 2
    (not adjacent) would silently emit two rows for that conv on the
    fast path — the cross-file fold must catch it."""
    from apache_datasketches_go_ray.sources.readers import (
        detect_input_layout,
    )

    sdir, sorted_tbl = _write_sorted_shards(tmp_path, shards=3)
    # move the FIRST conversation's first row into a new trailing file:
    # within-file invariants still hold everywhere, adjacency breaks
    first_conv = sorted_tbl.column("conv_id")[0].as_py()
    mask = [c == first_conv for c in
            sorted_tbl.column("conv_id").to_pylist()]
    k = mask.index(True)
    pq.write_table(sorted_tbl.slice(k, 1),
                   str(tmp_path / "sorted" / "part-99.parquet"))
    assert detect_input_layout(sdir) == "shuffled"


def test_probe_rejects_scrambled_turns_in_run(ray_session, tmp_path):
    from apache_datasketches_go_ray.sources.readers import (
        detect_input_layout,
    )

    sdir, sorted_tbl = _write_sorted_shards(tmp_path, shards=1)
    # reverse turn order inside the first conversation's run
    df = pq.read_table(
        str(tmp_path / "sorted" / "part-00.parquet")).to_pandas()
    first_conv = df["conv_id"].iloc[0]
    run = df.index[df["conv_id"] == first_conv]
    df.loc[run, "turn_idx"] = df.loc[run, "turn_idx"].to_numpy()[::-1]
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(tmp_path / "sorted" / "part-00.parquet"))
    assert detect_input_layout(sdir) == "shuffled"


@pytest.mark.parametrize("layout_dir", ["sorted", "shuffled"])
def test_auto_layout_identical_clusters(ray_session, tmp_path,
                                        layout_dir):
    """input_layout='auto' resolves per-corpus and must yield the same
    clusters as the forced shuffled path on BOTH layouts."""
    import ray.data

    from apache_datasketches_go_ray.config import DedupConfig
    from apache_datasketches_go_ray.pipelines.dedup import run_dedup
    from apache_datasketches_go_ray.sources.transcripts import (
        write_transcripts,
    )

    sdir, _ = _write_sorted_shards(tmp_path, n_convs=80)
    base = str(tmp_path / "shuf")
    write_transcripts(base, 80, seed=42, shards=3)
    src = sdir if layout_dir == "sorted" else os.path.join(
        base, "transcripts")

    def clusters(path, layout):
        cfg = DedupConfig(num_partitions=4, input_layout=layout)
        res = run_dedup(ray.data.read_parquet(path), cfg)
        df = res["clusters"].to_pandas().sort_values(
            "conv_id", ignore_index=True)
        return list(zip(df["conv_id"], df["cluster_id"]))

    assert clusters(src, "auto") == clusters(src, "shuffled")


def test_auto_layout_via_input_paths(ray_session, tmp_path):
    """read_transcripts normalizes through map_batches and erases
    input-file metadata — the explicit input_paths plumbing must still
    let auto mode probe and resolve conv_grouped."""
    from apache_datasketches_go_ray.config import DedupConfig
    from apache_datasketches_go_ray.pipelines.dedup import run_dedup
    from apache_datasketches_go_ray.sources.readers import (
        read_transcripts,
    )

    sdir, _ = _write_sorted_shards(tmp_path, n_convs=60)
    ds = read_transcripts(sdir, format="parquet")
    assert ds.input_files() == []  # the normalization wrapper erases them
    cfg = DedupConfig(num_partitions=4, input_layout="auto")
    res = run_dedup(ds, cfg, input_paths=sdir)
    assert res["metrics"]["input_layout_resolved"] == "conv_grouped"
    assert res["clusters"].count() >= 0


def test_assemble_rejects_unresolved_auto(ray_session, tmp_path):
    import ray.data

    from apache_datasketches_go_ray.sources.transcripts import (
        write_transcripts,
    )
    from apache_datasketches_go_ray.stages.assemble import assemble

    base = str(tmp_path / "t")
    write_transcripts(base, 10, seed=1, shards=1)
    ds = ray.data.read_parquet(os.path.join(base, "transcripts"))
    with pytest.raises(ValueError, match="input_layout"):
        assemble(ds, 2, input_layout="auto")


def test_rewrite_layout_cli_unlocks_fast_path(ray_session, tmp_path,
                                              capsys):
    """rewrite-layout: a shuffled corpus becomes provably conv-grouped
    (probe verdict printed as proof), preserving the row multiset and
    the dedup clusters."""
    import json

    import pyarrow.parquet as pq
    import ray.data

    from apache_datasketches_go_ray.__main__ import main
    from apache_datasketches_go_ray.config import DedupConfig
    from apache_datasketches_go_ray.pipelines.dedup import run_dedup
    from apache_datasketches_go_ray.sources.transcripts import (
        write_transcripts,
    )

    base = str(tmp_path / "t")
    write_transcripts(base, 60, seed=3, shards=3)  # shuffled at rest
    src = os.path.join(base, "transcripts")
    out = str(tmp_path / "sorted_out")
    rc = main(["rewrite-layout", "--input", src, "--output", out,
               "--partitions", "4"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rep["layout"] == "conv_grouped"

    a = pq.read_table(src).to_pandas().sort_values(
        ["conv_id", "turn_idx"], ignore_index=True)
    b = pq.read_table(out).to_pandas().sort_values(
        ["conv_id", "turn_idx"], ignore_index=True)
    assert a[["conv_id", "turn_idx", "text"]].equals(
        b[["conv_id", "turn_idx", "text"]])

    def clusters(path, layout):
        cfg = DedupConfig(num_partitions=4, input_layout=layout)
        res = run_dedup(ray.data.read_parquet(path), cfg)
        df = res["clusters"].to_pandas().sort_values(
            "conv_id", ignore_index=True)
        return list(zip(df["conv_id"], df["cluster_id"]))

    assert clusters(out, "auto") == clusters(src, "shuffled")


def test_auto_layout_over_jsonl_is_shuffled(ray_session, tmp_path):
    """Only Parquet can be probed: "auto" over JSONL input takes the
    shuffled path without running the probe."""
    import json

    import ray.data

    from apache_datasketches_go_ray.pipelines.dedup import (
        resolve_input_layout,
    )

    path = tmp_path / "turns.jsonl"
    with open(path, "w") as f:
        for i in range(4):
            f.write(json.dumps({"conv_id": f"c{i // 2}", "turn_idx": i % 2,
                                "text": "hello there"}) + "\n")
    ds = ray.data.read_json(str(path))
    assert ds.input_files()
    assert resolve_input_layout("auto", ds) == "shuffled"
    assert resolve_input_layout("auto", None,
                                input_paths=[str(path)]) == "shuffled"


def test_auto_layout_probe_failure_raises(ray_session, tmp_path):
    """A probe that fails on a Parquet input raises instead of silently
    switching to the shuffled path."""
    from apache_datasketches_go_ray.pipelines.dedup import (
        resolve_input_layout,
    )

    sdir, _ = _write_sorted_shards(tmp_path, n_convs=30)
    victim = os.path.join(sdir, sorted(os.listdir(sdir))[0])
    with open(victim, "rb") as f:
        data = f.read()
    with open(victim, "wb") as f:
        f.write(data[: len(data) // 2])  # truncated: no footer
    with pytest.raises(Exception, match="(?i)parquet"):
        resolve_input_layout("auto", None, input_paths=sdir)
