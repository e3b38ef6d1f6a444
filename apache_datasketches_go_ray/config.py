"""Engine configuration.

All dedup stages derive determinism from this config: murmur3 seed 9001
(internal/utils.go:33), seeded permutation keys, fixed shingle size and
band layout. The same config run single-process (oracle) or distributed
must produce identical clusters — the mergeability discipline the reference
pins with its isomorphism tests (hll/hll_sketch_isomomorphism_test.go).
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict


@dataclass(frozen=True)
class DedupConfig:
    # shingling
    shingle_k: int = 3            # k-gram token shingles
    # MinHash signature (the KMV/coupon analogue: 128 independent minima)
    num_perms: int = 128
    perm_seed: int = 9001         # DEFAULT_UPDATE_SEED
    # LSH banding: bands * rows_per_band <= num_perms
    num_bands: int = 42
    rows_per_band: int = 3
    # verification
    jaccard_threshold: float = 0.5
    containment_threshold: float = 0.8
    # suffix-array containment pass: min shared-substring fraction of the
    # smaller document's text
    substring_frac: float = 0.5
    # candidate prefilter: each band row carries a digest of
    # num_perms//prefilter_stride sampled signature slots; a candidate
    # pair is emitted only if >= prefilter_min_matches digest slots agree
    # (drops the mass of J~0.1 band collisions before any payload join;
    # P[drop | true J >= 0.5] ~ Binom(32, 0.5) P(X < 9) ~ 0.4%, and the
    # oracle applies the identical rule so parity is exact)
    prefilter_stride: int = 4
    prefilter_min_matches: int = 9
    # skew handling
    max_band_group: int = 64      # cap pair generation per band bucket
    hot_key_salt: int = 8         # fan-out for hot band keys
    # hot-band detection: a deterministic 1/hot_sample_rate sample of
    # conv_ids (murmur(conv_id) % rate == 0) is counted per band bucket;
    # a bucket with >= hot_sampled_count sampled members is "hot" and its
    # rows are salted across hot_key_salt shards before the band shuffle.
    # Sampling by conv hash (not by partition) keeps the hot set a pure
    # function of the data, so the oracle reproduces it exactly.
    hot_sample_rate: int = 64
    hot_sampled_count: int = 4
    # exact turn-collision blocking (stages/turnblock.py): recovers
    # containment dups whose full-text shingle-J sits below LSH reach
    # (measured ~90% of in-spec recall misses). Turns shorter than
    # turn_block_min_chars codepoints carry no dup evidence; a turn
    # text shared by more than turn_block_max_convs conversations is
    # boilerplate and is dropped (hot cap, bounds the pair yield).
    turn_block: bool = True
    turn_block_min_chars: int = 16
    turn_block_max_convs: int = 20
    # shuffle sizing
    num_partitions: int = 64
    # Ray Data dynamic-block-split cap applied by the pipeline (None =
    # leave the context default, 128 MiB). Smaller blocks mean more
    # map tasks per stage; 16 MiB measured best on a 32-core node for
    # the text-heavy assembled table (flagship 60.7 -> 45.5 s; 8 MiB
    # over-splits). Scale-invariant: it bounds PER-BLOCK bytes, not
    # block count. SAFE with keyed folds: hash-shuffle output
    # partitions are NOT subject to this split (verified empirically —
    # a 40 MB partition arrives as ONE batch under a 1 MiB cap), so
    # the engine's whole-key-per-batch co-location invariant holds at
    # any cap value. The pipelines apply it ONLY in the in-memory
    # regime (estimated signature working set < half the object
    # store): at spill scale the 8x object-count inflation drives the
    # raylet's spill-worker loop into its known recursion crash
    # (measured at 12M turns / 37 GiB store), while the default 128
    # MiB blocks spill fine.
    target_block_bytes: int | None = 16 << 20
    # dense-id bridge (stages/ids.py): encode conv_id strings once per
    # run into order-preserving u64 lexicographic ranks so every hot
    # shuffle (band rows, turn-hash rows, pair dedup, verify joins,
    # union-find exchange) moves 8-byte ints instead of strings. The
    # stage kernels are the same either way (the codec in ids.py is the
    # only code that tells the codings apart), and output is
    # bit-identical (rank order == UTF-8 order == the oracle's labeling
    # order). The bridge declines — the run then shuffles strings —
    # when the id column exceeds bridge_max_bytes (the single-object
    # broadcast ceiling) or a 64-bit id-hash collision exists (never
    # alias two conversations).
    dense_ids: bool = True
    bridge_max_bytes: int = 2 << 30
    # input layout: "shuffled" (always correct) or "conv_grouped" — the
    # data-at-rest fast path when transcript files are sorted by
    # (conv_id, turn_idx): assembly shuffles one fragment row per
    # (conv, block) instead of every turn row (stages/assemble.py).
    # "auto" runs the exact layout probe (sources.readers.
    # detect_input_layout, reads only conv_id+turn_idx) and takes the
    # fast path only when proven safe
    input_layout: str = "shuffled"

    def __post_init__(self):
        assert self.num_bands * self.rows_per_band <= self.num_perms

    def to_dict(self) -> dict:
        return asdict(self)
