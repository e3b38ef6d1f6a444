"""Text-analysis stages for training-data pipelines, over Arrow batches.

All stages are stateless vectorized ``map_batches`` transforms (pyarrow
compute / numpy) or cheap per-row kernels on pre-tokenized arrays:
  * token_count — whitespace token counts
  * text_stats / quality score — length, punctuation/stopword/digit ratios
  * language id — stopword-hit heuristic over small built-in lists
  * simhash — 64-bit document fingerprint from token hashes
  * winnowing fingerprints — rolling-hash document fingerprint set
  * repetition stats — Gopher-style duplicate-line / top-bigram
    repetition fractions (Rae et al. 2021, public paper), the standard
    quality filters an LLM training-data pipeline runs before dedup
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .arrow_util import as_array
from ..functions.murmur3 import fmix64
from ..functions.shingle import tokenize_column

STOPWORDS = {
    "en": {"the", "a", "an", "and", "or", "of", "to", "in", "is", "it",
           "that", "for", "on", "with", "as", "was", "at", "by", "be"},
    "de": {"der", "die", "das", "und", "oder", "von", "zu", "im", "ist",
           "es", "dass", "für", "auf", "mit", "als", "war", "bei", "ein"},
    "fr": {"le", "la", "les", "et", "ou", "de", "à", "en", "est", "il",
           "que", "pour", "sur", "avec", "comme", "était", "par", "un"},
    "es": {"el", "la", "los", "las", "y", "o", "de", "a", "en", "es",
           "que", "para", "sobre", "con", "como", "era", "por", "un"},
}


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append n_tokens (whitespace tokens) — fully vectorized."""
    texts = as_array(batch.column(text_col))
    toks = pc.split_pattern_regex(pc.utf8_trim_whitespace(texts), r"\s+")
    counts = pc.list_value_length(toks)
    # empty strings split to one empty token; correct to 0
    empty = pc.equal(pc.utf8_trim_whitespace(texts), "")
    counts = pc.if_else(empty, pa.scalar(0, type=pa.int32()), counts)
    return batch.append_column("n_tokens", counts)


def quality_stats_batch(batch: pa.Table, text_col: str = "text",
                        round_to: int = 4) -> pa.Table:
    """Append quality-signal columns: n_chars, n_tokens, mean_token_len,
    stopword_ratio (en), digit_ratio, quality_score. Pre-existing columns
    with the same names are replaced."""
    drop = [c for c in ("n_chars", "n_tokens", "mean_token_len",
                        "stopword_ratio", "digit_ratio", "quality_score")
            if c in batch.column_names]
    if drop:
        batch = batch.drop_columns(drop)
    texts = as_array(batch.column(text_col))
    n = len(texts)
    n_chars = pc.utf8_length(texts).cast(pa.int64())
    toks = pc.split_pattern_regex(pc.utf8_trim_whitespace(texts), r"\s+")
    n_tokens = pc.list_value_length(toks).cast(pa.int64())
    empty = pc.equal(pc.utf8_trim_whitespace(texts), "")
    n_tokens = pc.if_else(empty, pa.scalar(0, type=pa.int64()), n_tokens)

    # fully vectorized per-token stats: flatten all tokens, compute
    # per-token features with Arrow kernels, fold back per doc with
    # bincount on list_parent_indices — no Python loop per row
    sw_ratio = np.zeros(n)
    digit_ratio = np.zeros(n)
    mean_tok = np.zeros(n)
    nonblank = pc.invert(empty).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(toks)
    if len(flat):
        parent = pc.list_parent_indices(toks) \
            .to_numpy(zero_copy_only=False)
        tok_len = pc.utf8_length(flat).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        sw_hit = pc.is_in(
            pc.utf8_lower(flat),
            value_set=pa.array(sorted(STOPWORDS["en"]))) \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        digits = pc.count_substring_regex(flat, r"\d") \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        cnt = np.bincount(parent, minlength=n).astype(np.float64)
        total = np.bincount(parent, weights=tok_len, minlength=n)
        hits = np.bincount(parent, weights=sw_hit, minlength=n)
        digs = np.bincount(parent, weights=digits, minlength=n)
        ok = nonblank & (cnt > 0)
        sw_ratio[ok] = hits[ok] / cnt[ok]
        tot_ok = ok & (total > 0)
        digit_ratio[tot_ok] = digs[tot_ok] / total[tot_ok]
        mean_tok[ok] = total[ok] / cnt[ok]
    # simple composite score in [0,1]: long-enough, low digits, some
    # stopwords, sane token length
    nt = n_tokens.to_numpy(zero_copy_only=False).astype(np.float64)
    score = (
        np.clip(nt / 50.0, 0, 1) * 0.4
        + np.clip(1.0 - digit_ratio * 4, 0, 1) * 0.2
        + np.clip(sw_ratio * 5, 0, 1) * 0.2
        + np.clip(1.0 - np.abs(mean_tok - 5.0) / 10.0, 0, 1) * 0.2
    )
    if round_to is not None:
        r = round_to
        mean_tok = np.round(mean_tok, r)
        sw_ratio = np.round(sw_ratio, r)
        digit_ratio = np.round(digit_ratio, r)
        score = np.round(score, r)
    return (
        batch.append_column("n_chars", n_chars)
        .append_column("n_tokens", n_tokens)
        .append_column("mean_token_len", pa.array(mean_tok))
        .append_column("stopword_ratio", pa.array(sw_ratio))
        .append_column("digit_ratio", pa.array(digit_ratio))
        .append_column("quality_score", pa.array(score))
    )


def repetition_stats_batch(batch: pa.Table,
                           text_col: str = "text") -> pa.Table:
    """Append Gopher-style repetition metrics per document:

    * ``n_lines`` — count of newline-split lines (>=1, '' is one line)
    * ``dup_line_frac`` — (lines - distinct lines) / lines
    * ``dup_line_char_frac`` — chars in lines occurring >1 time (all
      occurrences) / total line chars
    * ``top_bigram_char_frac`` — max over word-bigrams of
      occurrences x (len(w1)+len(w2)), over total token chars

    Pure int arithmetic folded with bincount/np.unique and a single
    ``x * 1.0 / y`` division per metric, so a DuckDB oracle running the
    identical op sequence compares value-exact (same convention as
    quality_stats_batch). No Python row loop: lines/tokens are flattened
    once, duplicates counted via dictionary_encode + packed-int
    np.unique."""
    texts = as_array(batch.column(text_col))
    n = len(texts)
    dup_line_frac = np.zeros(n)
    dup_char_frac = np.zeros(n)
    top_frac = np.zeros(n)
    n_lines = np.zeros(n, dtype=np.int64)

    lines = pc.split_pattern(texts, "\n")
    flat = as_array(pc.list_flatten(lines))
    if len(flat):
        parent = pc.list_parent_indices(lines) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        d = pc.dictionary_encode(flat)
        codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        K = max(len(d.dictionary), 1)
        uniq, first_idx, cnts = np.unique(parent * K + codes,
                                          return_index=True,
                                          return_counts=True)
        line_len = pc.utf8_length(flat) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        u_doc = uniq // K
        total_lines = np.bincount(parent, minlength=n)
        distinct_lines = np.bincount(u_doc, minlength=n)
        total_chars = np.bincount(parent, weights=line_len, minlength=n)
        dup = cnts > 1
        dup_chars = np.zeros(n)
        np.add.at(dup_chars, u_doc[dup],
                  (cnts[dup] * line_len[first_idx][dup]).astype(np.float64))
        n_lines = total_lines.astype(np.int64)
        nz = total_lines > 0
        dup_line_frac[nz] = (total_lines[nz] - distinct_lines[nz]) \
            * 1.0 / total_lines[nz]
        cz = total_chars > 0
        dup_char_frac[cz] = dup_chars[cz] / total_chars[cz]

    toks = pc.split_pattern_regex(pc.utf8_trim_whitespace(texts), r"\s+")
    empty = pc.equal(pc.utf8_trim_whitespace(texts), "") \
        .to_numpy(zero_copy_only=False)
    flat_t = as_array(pc.list_flatten(toks))
    if len(flat_t):
        parent_t = pc.list_parent_indices(toks) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ~empty[parent_t]
        tl = pc.utf8_length(flat_t) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        total_tok = np.bincount(parent_t[keep], weights=tl[keep],
                                minlength=n)
        same = np.zeros(len(flat_t) - 1, dtype=bool) \
            if len(flat_t) > 1 else np.zeros(0, dtype=bool)
        if len(same):
            same = (parent_t[1:] == parent_t[:-1]) & keep[1:] & keep[:-1]
        top = np.zeros(n, dtype=np.int64)
        if same.any():
            idx = np.flatnonzero(same)
            w1 = flat_t.take(pa.array(idx))
            w2 = flat_t.take(pa.array(idx + 1))
            big = pc.binary_join_element_wise(w1, w2, "\x00")
            d2 = pc.dictionary_encode(big)
            codes2 = d2.indices.to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            K2 = max(len(d2.dictionary), 1)
            docb = parent_t[idx]
            uq, fi, ct = np.unique(docb * K2 + codes2,
                                   return_index=True, return_counts=True)
            chars2 = tl[idx] + tl[idx + 1]
            np.maximum.at(top, uq // K2, ct * chars2[fi])
        tz = total_tok > 0
        top_frac[tz] = top[tz] * 1.0 / total_tok[tz]

    return (batch.append_column("n_lines", pa.array(n_lines))
            .append_column("dup_line_frac", pa.array(dup_line_frac))
            .append_column("dup_line_char_frac", pa.array(dup_char_frac))
            .append_column("top_bigram_char_frac", pa.array(top_frac)))


# PII patterns (RE2 syntax — pyarrow's replace_substring_regex and
# DuckDB's regexp_replace are both RE2-backed, so the oracle comparison
# is semantics-exact, not merely similar)
EMAIL_RE = r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}"
PHONE_RE = r"\+?[0-9][0-9()\- ]{6,}[0-9]"


def redact_pii_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Redact emails then phone-number-shaped spans, appending
    ``n_emails`` / ``n_phones`` (non-overlapping match counts, each
    counted against the text the scan actually ran on: emails on the
    raw text, phones on the email-redacted text — the same sequential
    order a second regexp_replace sees) and ``redacted_text``."""
    texts = as_array(batch.column(text_col))
    n_emails = pc.count_substring_regex(texts, EMAIL_RE).cast(pa.int64())
    t1 = pc.replace_substring_regex(texts, EMAIL_RE, "<EMAIL>")
    n_phones = pc.count_substring_regex(t1, PHONE_RE).cast(pa.int64())
    t2 = pc.replace_substring_regex(t1, PHONE_RE, "<PHONE>")
    return (batch.append_column("n_emails", n_emails)
            .append_column("n_phones", n_phones)
            .append_column("redacted_text", t2))


def langid_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append lang_pred: argmax stopword-hit rate across built-in lists
    ('unknown' when nothing matches)."""
    texts = as_array(batch.column(text_col))
    n = len(texts)
    toks = pc.split_pattern_regex(pc.utf8_trim_whitespace(texts), r"\s+")
    langs = sorted(STOPWORDS)
    # vectorized: one is_in pass per language over the flattened lowered
    # tokens, per-doc hit counts via bincount, argmax picks the FIRST
    # max (same tie rule as the scalar loop: earlier lang wins, zero
    # hits -> unknown)
    preds = np.full(n, "unknown", dtype=object)
    flat = pc.list_flatten(toks)
    if len(flat):
        parent = pc.list_parent_indices(toks) \
            .to_numpy(zero_copy_only=False)
        lowered = pc.utf8_trim(pc.utf8_lower(flat),
                               characters=".,;:!?\"'()")
        hits = np.stack([
            np.bincount(
                parent,
                weights=pc.is_in(
                    lowered, value_set=pa.array(sorted(STOPWORDS[lg])))
                .to_numpy(zero_copy_only=False).astype(np.float64),
                minlength=n)
            for lg in langs
        ])
        best = np.argmax(hits, axis=0)
        best_hits = hits[best, np.arange(n)]
        sel = best_hits > 0
        preds[sel] = np.array(langs, dtype=object)[best[sel]]
    return batch.append_column(
        "lang_pred", pa.array(preds.tolist(), type=pa.string()))


def simhash_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append a 64-bit SimHash fingerprint (sign of per-bit sums of token
    hashes) — vectorized via bit-unpacking."""
    texts = as_array(batch.column(text_col))
    tok_hashes, offsets = tokenize_column(texts)
    n = len(offsets) - 1
    out = np.zeros(n, dtype=np.uint64)
    lens = np.diff(offsets)
    nonempty = lens > 0
    if len(tok_hashes) and nonempty.any():
        bits = np.unpackbits(
            tok_hashes.view(np.uint8).reshape(-1, 8)[:, ::-1], axis=1
        )  # (total_tokens, 64) uint8, MSB first
        starts = offsets[:-1][nonempty]
        # popcount per bit position; sign(sum of +-1 contribs) > 0
        # iff popcount > len/2 iff popcount > len // 2 (ties -> 0 bit)
        acc = np.int16 if lens.max() < (1 << 15) else np.int64
        sums = np.add.reduceat(bits.astype(acc), starts, axis=0)
        weights = (sums > (lens[nonempty, None] // 2)).astype(np.uint8)
        out[nonempty] = np.packbits(weights, axis=1)[:, ::-1].copy() \
            .view(np.uint64).ravel()
    return batch.append_column("simhash", pa.array(out, type=pa.uint64()))


def winnowing_fingerprints(tok_hashes: np.ndarray, window: int = 4) -> np.ndarray:
    """Winnowing (local-minimum) fingerprint set of a token-hash sequence
    — the rolling-hash document fingerprint. Deterministic, sorted
    unique."""
    n = len(tok_hashes)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    h = fmix64(tok_hashes)
    if n <= window:
        return np.unique(h.min(keepdims=True))
    win = np.lib.stride_tricks.sliding_window_view(h, window)
    return np.unique(win.min(axis=1))


def fingerprint_batch(batch: pa.Table, text_col: str = "text",
                      window: int = 4) -> pa.Table:
    """Append doc_fingerprint: uint64 = fmix64-fold of the winnowing
    fingerprint set (order-independent document identity for near-exact
    matching). Vectorized across ALL docs: one global sliding-min over
    the flat hash array with windows crossing doc boundaries masked
    out, short docs contributing their whole-doc min; per-doc unique +
    xor fold via lexsort + reduceat — no per-doc Python loop."""
    texts = as_array(batch.column(text_col))
    tok_hashes, offsets = tokenize_column(texts)
    n = len(offsets) - 1
    out = np.zeros(n, dtype=np.uint64)
    total = len(tok_hashes)
    if total == 0:
        return batch.append_column("doc_fingerprint",
                                   pa.array(out, type=pa.uint64()))
    h = fmix64(tok_hashes)
    lens = np.diff(offsets)
    parent = np.repeat(np.arange(n, dtype=np.int64), lens)
    cand_parent_list = []
    cand_val_list = []
    if total >= window:
        win = np.lib.stride_tricks.sliding_window_view(h, window)
        wmin = win.min(axis=1)
        # window starting at i is within one doc iff its last element
        # shares the parent of its first
        wp = parent[: total - window + 1]
        valid = wp == parent[window - 1:]
        cand_parent_list.append(wp[valid])
        cand_val_list.append(wmin[valid])
    # docs with fewer than `window` tokens contribute their whole min.
    # reduceat over the starts of ALL nonempty docs gives each doc's
    # min (their extents tile the flat array); select the short ones.
    short_mask = (lens > 0) & (lens < window)
    if short_mask.any():
        ne = lens > 0
        doc_min_ne = np.minimum.reduceat(h, offsets[:-1][ne])
        ne_ids = np.flatnonzero(ne)
        sel = short_mask[ne_ids]
        cand_parent_list.append(ne_ids[sel])
        cand_val_list.append(doc_min_ne[sel])
    if not cand_parent_list:
        return batch.append_column("doc_fingerprint",
                                   pa.array(out, type=pa.uint64()))
    cp = np.concatenate(cand_parent_list)
    cv = np.concatenate(cand_val_list)
    order = np.lexsort((cv, cp))
    cp, cv = cp[order], cv[order]
    keep = np.empty(len(cp), dtype=bool)
    keep[0] = True
    keep[1:] = (cp[1:] != cp[:-1]) | (cv[1:] != cv[:-1])
    cp, cv = cp[keep], cv[keep]
    first = np.empty(len(cp), dtype=bool)
    first[0] = True
    np.not_equal(cp[1:], cp[:-1], out=first[1:])
    with np.errstate(over="ignore"):
        folded = np.bitwise_xor.reduceat(fmix64(cv), np.flatnonzero(first))
    out[cp[np.flatnonzero(first)]] = folded
    return batch.append_column("doc_fingerprint",
                               pa.array(out, type=pa.uint64()))


# BPE-ish pretokenizer: letter runs, digit runs, punctuation runs, each
# with an optional leading space (GPT-2-style pretokenization shape).
# RE2 syntax on purpose: pyarrow and DuckDB both run RE2, so the exact
# same pattern string is SQL-oracle-checkable.
BPE_ISH_PATTERN = r" ?[a-zA-Z]+| ?[0-9]+| ?[^a-zA-Z0-9\s]+"


def bpe_token_count_batch(batch: pa.Table,
                          text_col: str = "text") -> pa.Table:
    """Append n_bpe_tokens: count of BPE-ish pretokens (vectorized RE2
    scan, no Python-level tokenization)."""
    counts = pc.count_substring_regex(
        as_array(batch.column(text_col)), BPE_ISH_PATTERN)
    return batch.append_column("n_bpe_tokens", counts.cast(pa.int64()))


def token_entropy_batch(batch: pa.Table, text_col: str = "text",
                        id_col: str = "doc_id") -> pa.Table:
    """Per-doc unigram Shannon entropy (nats), rounded half-up at 1e-4
    — the degenerate-repetition / vocabulary-richness signal. Map-only,
    vectorized: one dictionary-encode + np.unique over (doc, code)
    pairs per block; zero-token docs emit 0.0."""
    from .corpusops import _tokens_of

    flat, offsets = _tokens_of(batch.column(text_col))
    n_tok = np.diff(offsets)
    n = len(batch)
    ent = np.zeros(n, dtype=np.float64)
    if len(flat):
        d = pc.dictionary_encode(flat)
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        doc_of = np.repeat(np.arange(n, dtype=np.int64), n_tok)
        key = doc_of * (int(codes.max()) + 1) + codes
        uk, cnt = np.unique(key, return_counts=True)
        dk = uk // (int(codes.max()) + 1)
        p = cnt / n_tok[dk]
        np.add.at(ent, dk, -p * np.log(p))
        ent = np.floor(ent * 10000.0 + 0.5) / 10000.0
    return pa.table({
        id_col: as_array(batch.column(id_col)).cast(pa.int64()),
        "n_tokens": pa.array(n_tok.astype(np.int64)),
        "entropy": pa.array(ent, type=pa.float64())})


def max_token_run_batch(batch: pa.Table, text_col: str = "text",
                        id_col: str = "doc_id") -> pa.Table:
    """Per-doc longest run of identical consecutive tokens (the
    'aaaa aaaa …' degeneracy detector). Vectorized run-length encoding
    over the flat token stream; zero-token docs emit 0."""
    from .corpusops import _tokens_of

    flat, offsets = _tokens_of(batch.column(text_col))
    n_tok = np.diff(offsets)
    n = len(batch)
    out = np.zeros(n, dtype=np.int64)
    if len(flat):
        d = pc.dictionary_encode(flat)
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        doc_of = np.repeat(np.arange(n, dtype=np.int64), n_tok)
        m = len(codes)
        brk = np.ones(m, dtype=bool)
        brk[1:] = (codes[1:] != codes[:-1]) | (doc_of[1:] != doc_of[:-1])
        starts = np.flatnonzero(brk)
        run_len = np.diff(np.concatenate([starts, [m]]))
        np.maximum.at(out, doc_of[starts], run_len)
    return pa.table({
        id_col: as_array(batch.column(id_col)).cast(pa.int64()),
        "max_run": pa.array(out)})


def normalize_text_batch(batch: pa.Table, text_col: str = "text",
                         id_col: str = "doc_id") -> pa.Table:
    """Canonical text cleaning for dedup/shingling: lowercase, strip
    every char outside [a-z0-9 ], collapse runs of whitespace, trim.
    All four steps are RE2/utf8 pyarrow kernels (identical semantics to
    DuckDB's lower + regexp_replace(..., 'g'), which tests pin)."""
    col = as_array(batch.column(text_col)).cast(pa.string())
    low = pc.utf8_lower(col)
    # collapse whitespace BEFORE the charclass strip so tabs/newlines
    # become separators instead of vanishing and gluing words together
    collapsed = pc.replace_substring_regex(low, r"\s+", " ")
    kept = pc.replace_substring_regex(collapsed, "[^a-z0-9 ]", "")
    return pa.table({
        id_col: batch.column(id_col),
        "norm_text": pc.utf8_trim_whitespace(
            pc.replace_substring_regex(kept, " +", " ")),
    })


def explode_tokens_batch(batch: pa.Table, text_col: str = "text",
                         id_col: str = "doc_id") -> pa.Table:
    """Explode whitespace tokens with their 1-based ordinal — the
    flat_map (unnest WITH ORDINALITY) operator. Offsets arithmetic
    only: token lists are flattened natively and ordinals come from one
    arange minus each row's start offset; rows with blank text emit
    nothing."""
    col = as_array(batch.column(text_col)).cast(pa.string())
    trimmed = pc.utf8_trim_whitespace(col)
    nonblank = pc.not_equal(trimmed, "")
    ids = as_array(batch.column(id_col)).filter(nonblank)
    toks = pc.split_pattern_regex(trimmed.filter(nonblank), r"\s+")
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    offsets = np.asarray(toks.offsets)
    starts = offsets[:-1]
    pos = np.arange(len(flat), dtype=np.int64) + offsets[0] \
        - starts[parent] + 1
    return pa.table({
        id_col: ids.take(pa.array(parent, type=pa.int64())),
        "tok": flat,
        "ord": pa.array(pos, type=pa.int64()),
    })


def levenshtein_pairs(a_strs: list[str], b_strs: list[str],
                      prefix_chars: int = 32) -> np.ndarray:
    """Exact edit distance for many string pairs at once, on the first
    ``prefix_chars`` codepoints, unit costs over UTF-8 BYTES (DuckDB
    levenshtein semantics, which tests pin). The DP is vectorized across
    pairs AND across the column dimension: the in-row dependency
    cur[j] = min(m[j], cur[j-1]+1) is a prefix-min of (m[k]-k)+j, done
    with one np.minimum.accumulate per row — the only Python loop is
    over the <= 4*prefix_chars byte rows."""
    enc_a = [s[:prefix_chars].encode("utf-8") for s in a_strs]
    enc_b = [s[:prefix_chars].encode("utf-8") for s in b_strs]
    n = len(enc_a)
    la = np.fromiter((len(x) for x in enc_a), count=n, dtype=np.int32) \
        if n else np.zeros(0, np.int32)
    lb = np.fromiter((len(x) for x in enc_b), count=n, dtype=np.int32) \
        if n else np.zeros(0, np.int32)
    if n == 0:
        return np.zeros(0, dtype=np.int32)
    La, Lb = int(la.max(initial=0)), int(lb.max(initial=0))
    A = np.zeros((n, max(La, 1)), dtype=np.uint8)
    B = np.zeros((n, max(Lb, 1)), dtype=np.uint8)
    for i, x in enumerate(enc_a):
        A[i, :len(x)] = np.frombuffer(x, dtype=np.uint8)
    for i, x in enumerate(enc_b):
        B[i, :len(x)] = np.frombuffer(x, dtype=np.uint8)
    js = np.arange(Lb + 1, dtype=np.int32)
    prev = np.broadcast_to(js, (n, Lb + 1)).astype(np.int32)
    cur = np.empty_like(prev)
    out_rows = [prev[np.arange(n), lb]]  # dp row 0 answers len_a == 0
    for i in range(1, La + 1):
        cost = (A[:, i - 1:i] != B[:, :Lb]).astype(np.int32)
        m = np.empty_like(prev)
        m[:, 0] = i
        np.minimum(prev[:, 1:] + 1, prev[:, :Lb] + cost, out=m[:, 1:])
        t = m - js
        np.minimum.accumulate(t, axis=1, out=t)
        np.add(t, js, out=cur)
        prev, cur = cur, prev
        out_rows.append(prev[np.arange(n), lb])
    rows = np.stack(out_rows)  # (La+1, n): dp value after each a-row
    return rows[la, np.arange(n)].astype(np.int32)


def compression_ratio_batch(batch: pa.Table, text_col: str = "text",
                            id_col: str = "doc_id",
                            level: int = 6) -> pa.Table:
    """Per-document zlib compression ratio — the classic repetition /
    low-entropy quality proxy (highly repetitive or templated text
    compresses far below ~0.4; random text sits near 1.0).

    The per-document ``zlib.compress`` call is C-level work on the raw
    value buffer slice (no Python string materialization: the UTF-8
    bytes are sliced straight out of the Arrow buffer), the one
    legitimate "model-inference-shaped" per-row kernel in textops.
    No SQL oracle exists for zlib, so the query is rows-only; the
    pytest pins hand-built high/low-entropy cases and determinism.
    """
    import zlib

    col = as_array(batch.column(text_col))
    if col.type == pa.string():
        col = col.cast(pa.large_string())
    elif col.type != pa.large_string():
        col = col.cast(pa.large_string())
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(col)
    off = np.frombuffer(col.buffers()[1], dtype=np.int64,
                        count=n + 1 + col.offset)[col.offset:]
    data = col.buffers()[2]
    raw = bytes(data) if data is not None else b""
    raw_len = np.diff(off).astype(np.int64)
    comp_len = np.empty(n, dtype=np.int64)
    compress = zlib.compress
    for i in range(n):
        comp_len[i] = len(compress(raw[off[i]:off[i + 1]], level))
    ratio = np.floor(
        comp_len / np.maximum(raw_len, 1) * 1e6 + 0.5) / 1e6
    return pa.table({
        id_col: batch.column(id_col),
        "n_raw_bytes": pa.array(raw_len),
        "n_compressed_bytes": pa.array(comp_len),
        "compression_ratio": pa.array(ratio, type=pa.float64()),
    })


# ---------------------------------------------------------------------------
# Gopher-style rule filter (Rae et al. 2021, appendix A — public paper)
# ---------------------------------------------------------------------------

def gopher_flags_batch(batch: pa.Table, text_col: str = "text",
                       id_col: str = "doc_id", *,
                       min_words: int = 50, max_words: int = 100_000,
                       min_mean_wlen_e4: int = 30_000,
                       max_mean_wlen_e4: int = 100_000,
                       min_alpha_frac_e4: int = 8_000,
                       min_stop_hits: int = 2) -> pa.Table:
    """Per-doc Gopher rule flags, all-integer outputs (SQL-exact).

    Emits n_words, mean word length and alphabetic-word fraction as
    integer 1e4-scaled floor-divided ratios (no float rounding drift
    vs a SQL oracle), the English stopword hit count, one boolean per
    rule and the composite ``keep``. Fully vectorized: flatten tokens
    once, per-token Arrow kernels, fold back with bincount on
    list_parent_indices — same shape as quality_stats_batch.
    """
    texts = as_array(batch.column(text_col))
    n = len(texts)
    toks = pc.split_pattern_regex(pc.utf8_trim_whitespace(texts), r"\s+")
    empty = pc.equal(pc.utf8_trim_whitespace(texts), "") \
        .to_numpy(zero_copy_only=False)
    n_words = np.zeros(n, dtype=np.int64)
    total_len = np.zeros(n, dtype=np.int64)
    alpha_words = np.zeros(n, dtype=np.int64)
    stop_hits = np.zeros(n, dtype=np.int64)
    flat = pc.list_flatten(toks)
    if len(flat):
        parent = pc.list_parent_indices(toks) \
            .to_numpy(zero_copy_only=False)
        tok_len = pc.utf8_length(flat).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        alpha = pc.match_substring_regex(flat, r"[A-Za-z]") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        stop = pc.is_in(
            pc.utf8_lower(flat),
            value_set=pa.array(sorted(STOPWORDS["en"]))) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        n_words = np.bincount(parent, minlength=n).astype(np.int64)
        total_len = np.bincount(parent, weights=tok_len,
                                minlength=n).astype(np.int64)
        alpha_words = np.bincount(parent, weights=alpha,
                                  minlength=n).astype(np.int64)
        stop_hits = np.bincount(parent, weights=stop,
                                minlength=n).astype(np.int64)
    n_words[empty] = 0
    total_len[empty] = 0
    alpha_words[empty] = 0
    stop_hits[empty] = 0
    denom = np.maximum(n_words, 1)
    mean_wlen_e4 = total_len * 10_000 // denom
    alpha_frac_e4 = alpha_words * 10_000 // denom
    p_wc = (n_words >= min_words) & (n_words <= max_words)
    p_ml = (mean_wlen_e4 >= min_mean_wlen_e4) & \
        (mean_wlen_e4 <= max_mean_wlen_e4)
    p_al = alpha_frac_e4 >= min_alpha_frac_e4
    p_st = stop_hits >= min_stop_hits
    return pa.table({
        id_col: batch.column(id_col),
        "n_words": pa.array(n_words),
        "mean_wlen_e4": pa.array(mean_wlen_e4),
        "alpha_frac_e4": pa.array(alpha_frac_e4),
        "stop_hits": pa.array(stop_hits),
        "pass_wordcount": pa.array(p_wc),
        "pass_meanlen": pa.array(p_ml),
        "pass_alpha": pa.array(p_al),
        "pass_stopwords": pa.array(p_st),
        "keep": pa.array(p_wc & p_ml & p_al & p_st),
    })


# ---------------------------------------------------------------------------
# fixed-window chunking (RAG / context-window prep)
# ---------------------------------------------------------------------------

def chunk_text_batch(batch: pa.Table, text_col: str = "text",
                     id_col: str = "doc_id", *,
                     size: int = 120, stride: int = 90) -> pa.Table:
    """Explode each doc into fixed-width character windows
    (``size`` chars every ``stride`` — overlapping when stride<size).

    Chunk count = 1 + ceil(max(len-size, 0)/stride) (0 for empty
    docs), so the last window is the only short one — the standard
    RAG/pretraining chunking layout. Vectorized ragged gather: one
    flat byte-index array built with repeat/cumsum off the Arrow
    string buffer, a single fancy-index, and offsets — no per-chunk
    Python. ASCII fast path (byte==char, matching SQL substring
    semantics on this corpus); non-ASCII rows fall back to a per-row
    codepoint slice to stay correct.
    """
    if stride <= 0 or size <= 0:
        raise ValueError("size and stride must be positive")
    texts = as_array(batch.column(text_col))
    if texts.type != pa.large_string():
        texts = texts.cast(pa.large_string())
    texts = texts.combine_chunks() if isinstance(
        texts, pa.ChunkedArray) else texts
    ids = as_array(batch.column(id_col)).to_numpy(zero_copy_only=False)
    n = len(texts)
    off = np.frombuffer(texts.buffers()[1], dtype=np.int64,
                        count=n + 1 + texts.offset)[texts.offset:]
    buf = texts.buffers()[2]
    data = np.frombuffer(buf, dtype=np.uint8) if buf is not None \
        else np.empty(0, dtype=np.uint8)
    byte_len = np.diff(off)
    ascii_ok = True
    if data.size and len(texts):
        lo, hi = off[0], off[-1]
        ascii_ok = not bool((data[lo:hi] >= 0x80).any())
    if not ascii_ok:
        # correct-but-slow unicode path: per-row codepoint windows
        out_id, out_ix, out_tx = [], [], []
        for i in range(n):
            s = texts[i].as_py()
            if not s:
                continue
            k = 1 + max(0, -(-max(len(s) - size, 0) // stride))
            for c in range(k):
                out_id.append(ids[i])
                out_ix.append(c)
                out_tx.append(s[c * stride: c * stride + size])
        return pa.table({
            id_col: pa.array(out_id, type=pa.int64()),
            "chunk_idx": pa.array(out_ix, type=pa.int64()),
            "chunk_text": pa.array(out_tx, type=pa.string()),
            "chunk_len": pc.utf8_length(
                pa.array(out_tx, type=pa.string())).cast(pa.int64()),
        })
    n_chunks = np.where(
        byte_len == 0, 0,
        1 + (np.maximum(byte_len - size, 0) + stride - 1) // stride)
    total_chunks = int(n_chunks.sum())
    if total_chunks == 0:
        return pa.table({
            id_col: pa.array([], type=pa.int64()),
            "chunk_idx": pa.array([], type=pa.int64()),
            "chunk_text": pa.array([], type=pa.string()),
            "chunk_len": pa.array([], type=pa.int64()),
        })
    row_of = np.repeat(np.arange(n), n_chunks)
    cix0 = np.concatenate([[0], np.cumsum(n_chunks)])[:-1]
    chunk_ix = np.arange(total_chunks) - np.repeat(cix0, n_chunks)
    starts = off[:-1][row_of] + chunk_ix * stride
    ends = np.minimum(starts + size, off[1:][row_of])
    lens = ends - starts
    cum0 = np.concatenate([[0], np.cumsum(lens)])
    total_bytes = int(cum0[-1])
    idx = np.repeat(starts, lens) + (
        np.arange(total_bytes) - np.repeat(cum0[:-1], lens))
    out_buf = data[idx]
    chunk_arr = pa.Array.from_buffers(
        pa.large_string(), total_chunks,
        [None, pa.py_buffer(cum0.astype(np.int64).tobytes()),
         pa.py_buffer(out_buf.tobytes())])
    return pa.table({
        id_col: pa.array(ids[row_of], type=pa.int64()),
        "chunk_idx": pa.array(chunk_ix, type=pa.int64()),
        "chunk_text": chunk_arr.cast(pa.string()),
        "chunk_len": pa.array(lens, type=pa.int64()),
    })


# ---------------------------------------------------------------------------
# markup strip (HTML boilerplate removal, trafilatura-lite)
# ---------------------------------------------------------------------------

def strip_markup_batch(batch: pa.Table, text_col: str = "text",
                       out_col: str = "clean_text") -> pa.Table:
    """Remove ``<...>`` tags, decode the 5 core HTML entities, collapse
    whitespace runs, trim. Pure RE2 kernels (pc.replace_substring_regex)
    — same regex class DuckDB's regexp_replace uses, so a SQL oracle
    reproduces it exactly.
    """
    texts = as_array(batch.column(text_col))
    t = pc.replace_substring_regex(texts, pattern=r"<[^>]*>",
                                   replacement=" ")
    for ent, ch in (("&lt;", "<"), ("&gt;", ">"), ("&amp;", "&"),
                    ("&quot;", "\""), ("&#39;", "'")):
        t = pc.replace_substring(t, pattern=ent, replacement=ch)
    t = pc.replace_substring_regex(t, pattern=r"\s+", replacement=" ")
    t = pc.utf8_trim_whitespace(t)
    return batch.append_column(out_col, t)


def longest_repeat_batch(batch: pa.Table, text_col: str = "text",
                         id_col: str = "doc_id") -> pa.Table:
    """Per-document longest repeated substring length — the
    self-repetition detector that catches generation loops character-
    exactly where Gopher's fixed-n-gram fractions are blind to long
    periods. max(LCP) over the doc's suffix array (prefix-doubling +
    Kasai, functions/suffixarray.py); each doc's build is vectorized
    numpy, the loop is per-doc per-block."""
    from ..functions.suffixarray import lcp_array, suffix_array

    ids = as_array(batch.column(id_col))
    texts = as_array(batch.column(text_col)).to_pylist()
    out = np.zeros(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        raw = np.frombuffer((t or "").encode("utf-8"), dtype=np.uint8)
        if len(raw) < 2:
            continue
        sa = suffix_array(raw.astype(np.int64))
        lcp = lcp_array(raw.astype(np.int64), sa)
        out[i] = int(lcp.max()) if len(lcp) else 0
    # id column passes through under its own name and type (string conv
    # ids work as well as int doc ids)
    return pa.table({
        id_col: ids,
        "max_repeat_len": pa.array(out),
    })


def encoding_qa_batch(batch: pa.Table, text_col: str = "text",
                      id_cols: tuple = ("doc_id",)) -> pa.Table:
    """Crawl-hygiene encoding scan per document, fully vectorized RE2
    (pc.count_substring_regex / pc.match_substring_regex — DuckDB's
    regexp engine is RE2 too, so the SQL oracle runs the IDENTICAL
    patterns):

      n_replacement — U+FFFD replacement characters (decode damage);
      n_mojibake    — classic UTF-8-read-as-Latin-1 artifacts
                      ("Ã."/"â€."/"Â" lead sequences);
      n_ctrl        — C0 control characters other than \\t \\n \\r
                      (binary contamination);
      is_ascii      — pure-ASCII document flag.
    """
    import pyarrow.compute as pc

    texts = as_array(batch.column(text_col)).cast(pa.string())
    cols = {c: batch.column(c) for c in id_cols}
    cols["n_replacement"] = pc.count_substring_regex(
        texts, "�").cast(pa.int64())
    cols["n_mojibake"] = pc.count_substring_regex(
        texts, "Ã.|â€.|Â").cast(pa.int64())
    cols["n_ctrl"] = pc.count_substring_regex(
        texts, "[\\x00-\\x08\\x0b\\x0c\\x0e-\\x1f]").cast(pa.int64())
    cols["is_ascii"] = pc.match_substring_regex(
        texts, "^[\\x00-\\x7f]*$")
    return pa.table(cols)
