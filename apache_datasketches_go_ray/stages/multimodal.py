"""Multimodal (image/audio/video) columns as opaque binary + typed
metadata, with actor-pool decode / feature / resize / frame-sample stages.

Decode support is tiered:

* **Real byte-level decode** for self-contained formats that need no
  external codec library: ``audio/wav`` (RIFF/PCM via the stdlib
  ``wave`` module) and ``image/bmp`` (uncompressed 24-bit BITMAPINFO
  via struct + numpy). Encoders (``encode_wav`` / ``encode_bmp``) live
  here too, so round-trip exactness is testable end-to-end through the
  actor pool.
* **Real byte-level decode** additionally for ``image/png``
  (non-interlaced 8-bit gray/RGB/RGBA: stdlib zlib + a numpy scanline
  unfilter; ``encode_png`` writes the same subset) and ``image/jpeg``
  (baseline SOF0 + progressive SOF2, gray / 4:4:4 / chroma-subsampled
  4:2:0 & 4:2:2 YCbCr, restart markers, successive approximation —
  functions/jpegcodec.py) and
  ``image/gif`` (GIF87a/89a LZW single frame, global/local color
  tables — functions/gifcodec.py; interlaced streams raise).
* **Stub** for the remaining compressed formats (h264/h265 frames
  inside mp4, ...): the codec libraries (PIL, torchaudio, av)
  are NOT present in this environment,
  so ``DecodeStage`` raises ``NotImplementedError`` for them unless
  ``fake=True``, in which case a deterministic fake decoder (seeded
  from the payload hash) produces pseudo pixel/sample arrays.

Everything Ray-side — schema, batch sizing, actor signatures, zero-copy
binary handling, output layout — is real and tested; supporting a new
codec touches only ``_decode_payload``.

Schema convention for a multimodal column ``media``:
  media: large_binary           (opaque encoded payload)
  media_type: string            ('image/png', 'audio/wav', ...)
  media_meta: string            (JSON: width/height/sample_rate/...)
Large payloads need small ``batch_size`` so batch x concurrency fits the
worker heap — pass batch_size explicitly per stage.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

from .arrow_util import as_array
from ..functions.murmur3 import murmur3_128
from .keyed import keyed_fold


def encode_wav(samples: np.ndarray, sample_rate: int = 16000) -> bytes:
    """int16 mono/stereo samples -> RIFF/PCM WAV bytes (stdlib wave)."""
    import io
    import wave

    samples = np.asarray(samples, dtype=np.int16)
    n_ch = 1 if samples.ndim == 1 else samples.shape[1]
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(n_ch)
        w.setsampwidth(2)
        w.setframerate(sample_rate)
        w.writeframes(np.ascontiguousarray(samples).tobytes())
    return buf.getvalue()


def _decode_wav(payload: bytes) -> np.ndarray:
    """RIFF/PCM WAV -> (n_samples,) or (n_samples, n_ch) int16 array."""
    import io
    import wave

    with wave.open(io.BytesIO(payload), "rb") as w:
        n_ch = w.getnchannels()
        if w.getsampwidth() != 2:
            raise NotImplementedError("only 16-bit PCM WAV supported")
        raw = w.readframes(w.getnframes())
    arr = np.frombuffer(raw, dtype=np.int16)
    return arr if n_ch == 1 else arr.reshape(-1, n_ch)


def encode_bmp(pixels: np.ndarray) -> bytes:
    """(H, W, 3) uint8 RGB -> uncompressed 24-bit BMP bytes."""
    import struct

    px = np.asarray(pixels, dtype=np.uint8)
    h, w, _ = px.shape
    row_len = (w * 3 + 3) & ~3  # rows padded to 4 bytes
    img_size = row_len * h
    header = struct.pack("<2sIHHI", b"BM", 54 + img_size, 0, 0, 54)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, img_size,
                       2835, 2835, 0, 0)
    rows = np.zeros((h, row_len), dtype=np.uint8)
    rows[:, : w * 3] = px[::-1, :, ::-1].reshape(h, w * 3)  # bottom-up BGR
    return header + info + rows.tobytes()


def _decode_bmp(payload: bytes) -> np.ndarray:
    """Uncompressed 24-bit BMP -> (H, W, 3) uint8 RGB array."""
    import struct

    if payload[:2] != b"BM":
        raise ValueError("not a BMP payload")
    (data_off,) = struct.unpack_from("<I", payload, 10)
    hdr_size, w, h, _planes, bpp, comp = struct.unpack_from(
        "<IiiHHI", payload, 14)
    if bpp != 24 or comp != 0:
        raise NotImplementedError("only uncompressed 24-bit BMP supported")
    flip = h > 0
    h = abs(h)
    row_len = (w * 3 + 3) & ~3
    rows = np.frombuffer(payload, dtype=np.uint8, count=row_len * h,
                         offset=data_off).reshape(h, row_len)
    px = rows[:, : w * 3].reshape(h, w, 3)[:, :, ::-1]  # BGR -> RGB
    return px[::-1] if flip else px


_PNG_SIG = b"\x89PNG\r\n\x1a\n"
# color type -> channels (PNG spec 11.2.2); bit depth 8 only
_PNG_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}


def _png_chunk(tag: bytes, body: bytes) -> bytes:
    import struct
    import zlib

    return (struct.pack(">I", len(body)) + tag + body
            + struct.pack(">I", zlib.crc32(tag + body)))


def encode_png(pixels: np.ndarray) -> bytes:
    """(H, W) grayscale / (H, W, C) uint8 with C in {1,2,3,4} ->
    non-interlaced 8-bit PNG bytes (pure stdlib: zlib + struct).
    Scanlines use filter type 0 (None)."""
    import struct
    import zlib

    px = np.asarray(pixels, dtype=np.uint8)
    if px.ndim == 2:
        px = px[:, :, None]
    h, w, c = px.shape
    color_type = {1: 0, 2: 4, 3: 2, 4: 6}[c]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    raw = np.zeros((h, 1 + w * c), dtype=np.uint8)
    raw[:, 1:] = px.reshape(h, w * c)
    return (_PNG_SIG + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", zlib.compress(raw.tobytes(), 6))
            + _png_chunk(b"IEND", b""))


def _png_unfilter(filt: np.ndarray, recon: np.ndarray, ftype: int,
                  prev: np.ndarray, bpp: int) -> None:
    """Reconstruct one scanline in place (PNG spec 9.2, filters 0-4).
    Up/Sub/None are vectorized; Average/Paeth carry a left-dependency
    and fall back to a per-pixel pass (rare in practice — most encoders
    emit None/Sub/Up for 8-bit truecolor)."""
    n = len(filt)
    if ftype == 0:
        recon[:] = filt
    elif ftype == 2:  # Up
        recon[:] = filt + prev
    elif ftype == 1:  # Sub: per byte-phase cumulative sum mod 256
        for p in range(bpp):
            recon[p::bpp] = np.cumsum(
                filt[p::bpp], dtype=np.uint64).astype(np.uint8)
    elif ftype == 3:  # Average
        for x in range(n):
            left = int(recon[x - bpp]) if x >= bpp else 0
            recon[x] = (int(filt[x]) + ((left + int(prev[x])) >> 1)) & 0xFF
    elif ftype == 4:  # Paeth
        for x in range(n):
            a = int(recon[x - bpp]) if x >= bpp else 0
            b = int(prev[x])
            cc = int(prev[x - bpp]) if x >= bpp else 0
            p = a + b - cc
            pa_, pb, pc = abs(p - a), abs(p - b), abs(p - cc)
            pred = a if (pa_ <= pb and pa_ <= pc) else (b if pb <= pc
                                                        else cc)
            recon[x] = (int(filt[x]) + pred) & 0xFF
    else:
        raise ValueError(f"bad PNG filter type {ftype}")


def _decode_png(payload: bytes) -> np.ndarray:
    """Non-interlaced 8-bit PNG (gray / gray+alpha / RGB / RGBA) ->
    (H, W) or (H, W, C) uint8 array. Pure stdlib: chunk walk + zlib +
    numpy scanline unfilter. Palette/16-bit/interlaced images raise
    NotImplementedError (out of scope for the pipeline's image columns)."""
    import struct
    import zlib

    if payload[:8] != _PNG_SIG:
        raise ValueError("not a PNG payload")
    off = 8
    w = h = None
    color_type = None
    idat = bytearray()
    while off < len(payload):
        (ln,) = struct.unpack_from(">I", payload, off)
        tag = payload[off + 4: off + 8]
        body = payload[off + 8: off + 8 + ln]
        off += 12 + ln  # len + tag + body + crc
        if tag == b"IHDR":
            w, h, depth, color_type, comp, filt, interlace = \
                struct.unpack(">IIBBBBB", body)
            if depth != 8:
                raise NotImplementedError("only 8-bit PNG supported")
            if color_type not in _PNG_CHANNELS:
                raise NotImplementedError(
                    f"PNG color type {color_type} (palette?) unsupported")
            if interlace != 0:
                raise NotImplementedError("interlaced PNG unsupported")
        elif tag == b"IDAT":
            idat += body
        elif tag == b"IEND":
            break
    if w is None:
        raise ValueError("PNG missing IHDR")
    c = _PNG_CHANNELS[color_type]
    stride = w * c
    raw = np.frombuffer(zlib.decompress(bytes(idat)), dtype=np.uint8)
    if len(raw) != h * (1 + stride):
        raise ValueError("PNG IDAT length mismatch")
    raw = raw.reshape(h, 1 + stride)
    out = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for y in range(h):
        _png_unfilter(raw[y, 1:], out[y], int(raw[y, 0]), prev, c)
        prev = out[y]
    return out.reshape(h, w) if c == 1 else out.reshape(h, w, c)


def make_real_media_batch(ids: list[int], kind: str = "audio/wav") -> pa.Table:
    """Deterministic REAL encoded payloads (WAV or BMP) — exercised by
    the round-trip tests and the real-decode query path."""
    payloads, metas = [], []
    for i in ids:
        h1, _ = murmur3_128(f"media-{i}".encode())
        rng = np.random.default_rng(h1 & 0x7FFFFFFF)
        if kind == "image/bmp":
            px = rng.integers(0, 256, size=(12, 17, 3), dtype=np.uint8)
            payloads.append(encode_bmp(px))
            metas.append(json.dumps({"width": 17, "height": 12,
                                     "channels": 3}))
        elif kind == "image/png":
            px = rng.integers(0, 256, size=(12, 17, 3), dtype=np.uint8)
            payloads.append(encode_png(px))
            metas.append(json.dumps({"width": 17, "height": 12,
                                     "channels": 3}))
        elif kind == "image/jpeg":
            from ..functions.jpegcodec import encode_jpeg
            px = rng.integers(0, 256, size=(12, 17, 3), dtype=np.uint8)
            payloads.append(encode_jpeg(px, quality=100))
            metas.append(json.dumps({"width": 17, "height": 12,
                                     "channels": 3}))
        elif kind == "image/gif":
            from ..functions.gifcodec import encode_gif
            # palettized content: draw from a small color set
            pal = rng.integers(0, 256, size=(11, 3), dtype=np.uint8)
            px = pal[rng.integers(0, len(pal), size=(12, 17))]
            payloads.append(encode_gif(px))
            metas.append(json.dumps({"width": 17, "height": 12,
                                     "channels": 3}))
        else:
            n = 800 + int(h1 % 400)
            samples = (rng.integers(-20000, 20000, size=n)
                       .astype(np.int16))
            payloads.append(encode_wav(samples, 16000))
            metas.append(json.dumps({"sample_rate": 16000,
                                     "n_samples": n}))
    return pa.table({
        "media_id": pa.array(ids, type=pa.int64()),
        "media": pa.array(payloads, type=pa.large_binary()),
        "media_type": pa.array([kind] * len(ids), type=pa.string()),
        "media_meta": pa.array(metas, type=pa.string()),
    })


def _decode_payload(payload: bytes, media_type: str, meta: dict,
                    fake: bool) -> np.ndarray:
    # real byte-level decoders for self-contained formats
    if media_type == "audio/wav":
        return _decode_wav(payload)
    if media_type == "image/bmp":
        return _decode_bmp(payload)
    if media_type == "image/png":
        return _decode_png(payload)
    if media_type == "image/jpeg":
        from ..functions.jpegcodec import decode_jpeg
        return decode_jpeg(payload)
    if media_type == "image/gif":
        from ..functions.gifcodec import decode_gif
        return decode_gif(payload)
    if not fake:
        raise NotImplementedError(
            f"real decode for {media_type} requires codec libraries not "
            "present in this environment; run with fake=True or install "
            "a decoder and extend _decode_payload")
    h1, _ = murmur3_128(payload)
    rng = np.random.default_rng(h1 & 0x7FFFFFFF)
    if media_type.startswith("image"):
        return rng.integers(0, 256,
                            size=(meta["height"], meta["width"],
                                  meta.get("channels", 3)), dtype=np.uint8)
    return (rng.standard_normal(meta.get("n_samples", 1024))
            .astype(np.float32))


class DecodeStage:
    """Actor-pool stage: decode opaque payloads to arrays.

    Output appends 'decoded' (large_binary of the raw array) +
    'decoded_shape' (JSON) so downstream vectorized stages can view it
    zero-copy with np.frombuffer."""

    def __init__(self, fake: bool = True):
        self.fake = fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = as_array(batch.column("media")).to_pylist()
        types = as_array(batch.column("media_type")).to_pylist()
        metas = [json.loads(m) for m in
                 as_array(batch.column("media_meta")).to_pylist()]
        decoded, shapes = [], []
        for p, t, m in zip(payloads, types, metas):
            arr = _decode_payload(p, t, m, self.fake)
            decoded.append(arr.tobytes())
            shapes.append(json.dumps({"shape": list(arr.shape),
                                      "dtype": str(arr.dtype)}))
        return (batch.append_column("decoded",
                                    pa.array(decoded, type=pa.large_binary()))
                .append_column("decoded_shape",
                               pa.array(shapes, type=pa.string())))


class FeatureStage:
    """Actor-pool stage: cheap vectorized features of decoded media
    (mean/std per channel for images; rms/zero-crossings for audio)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = as_array(batch.column("decoded")).to_pylist()
        shapes = [json.loads(s) for s in
                  as_array(batch.column("decoded_shape")).to_pylist()]
        feats = []
        for blob, sh in zip(blobs, shapes):
            arr = np.frombuffer(blob, dtype=sh["dtype"]).reshape(sh["shape"])
            if arr.ndim == 3:  # image
                f = np.concatenate([arr.mean(axis=(0, 1)),
                                    arr.std(axis=(0, 1))])
            else:  # audio
                f = np.array([float(np.sqrt(np.mean(arr ** 2))),
                              float(np.mean(np.abs(np.diff(np.sign(arr)))))])
            feats.append(f.astype(np.float32).tobytes())
        return batch.append_column("features",
                                   pa.array(feats, type=pa.large_binary()))


def decode_pipeline(ds, *, fake: bool = True, batch_size: int = 32,
                    concurrency=(1, 4)):
    """media table -> decoded + features (actor pools; small batches for
    large payloads)."""
    return (
        ds.map_batches(DecodeStage, fn_constructor_args=(fake,),
                       batch_format="pyarrow", batch_size=batch_size,
                       zero_copy_batch=True, concurrency=concurrency)
        .map_batches(FeatureStage, batch_format="pyarrow",
                     batch_size=batch_size, zero_copy_batch=True,
                     concurrency=concurrency)
    )


def make_fake_video_batch(ids: list[int], n_frames: int = 24,
                          h: int = 8, w: int = 8) -> pa.Table:
    """Deterministic fake videos: (n_frames, h, w, 3) uint8 payloads."""
    payloads, metas = [], []
    for i in ids:
        rng = np.random.default_rng(1000 + i)
        arr = rng.integers(0, 256, (n_frames, h, w, 3), dtype=np.uint8)
        payloads.append(arr.tobytes())
        metas.append(json.dumps({"shape": [n_frames, h, w, 3],
                                 "dtype": "uint8", "fps": 12}))
    return pa.table({
        "media_id": pa.array(ids, type=pa.int64()),
        "media_type": pa.array(["video/raw"] * len(ids)),
        "payload": pa.array(payloads, type=pa.large_binary()),
        "meta": pa.array(metas, type=pa.string()),
    })


def make_real_video_batch(ids: list[int], n_frames: int = 24,
                          h: int = 8, w: int = 8,
                          fps: int = 12) -> pa.Table:
    """Deterministic REAL MP4 containers ('rawv' sample payloads) —
    exercised by the container round-trip tests and the real video
    frame-sample path."""
    from ..functions.mp4box import encode_mp4

    payloads, metas = [], []
    for i in ids:
        rng = np.random.default_rng(1000 + i)
        arr = rng.integers(0, 256, (n_frames, h, w, 3), dtype=np.uint8)
        payloads.append(encode_mp4([f.tobytes() for f in arr],
                                   fps=fps, width=w, height=h))
        metas.append(json.dumps({"fps": fps}))
    return pa.table({
        "media_id": pa.array(ids, type=pa.int64()),
        "media_type": pa.array(["video/mp4"] * len(ids)),
        "payload": pa.array(payloads, type=pa.large_binary()),
        "meta": pa.array(metas, type=pa.string()),
    })


class FrameSampleStage:
    """Actor-pool stage: sample every k-th frame of a video payload
    (the video analogue of the image resize stage). Emits one row per
    SAMPLED FRAME (flat_map-style batch expansion) so the downstream
    image stages (resize / feature) apply unchanged.

    Two real paths:
      * ``video/raw`` — payload is a raw (n, h, w, 3) buffer described
        by the meta JSON.
      * ``video/mp4`` — payload is an ISO-BMFF container; the sample
        table is parsed at the box level (functions/mp4box.py) and the
        k-th SAMPLE payloads are pulled at their file offsets. 'rawv'
        samples (our writer's fourcc) decode by reshape; compressed
        codecs (h264/...) raise NotImplementedError — container
        parsing is real, frame-payload decode needs a codec library.
    """

    def __init__(self, every_k: int = 6):
        self.k = every_k

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.mp4box import extract_frames

        ids = as_array(batch.column("media_id")).to_numpy(
            zero_copy_only=False)
        blobs = as_array(batch.column("payload")).to_pylist()
        kinds = as_array(batch.column("media_type")).to_pylist()
        metas = [json.loads(s) for s in
                 as_array(batch.column("meta")).to_pylist()]
        out_id, out_frame, out_blob, out_shape = [], [], [], []
        for mid, blob, kind, meta in zip(ids, blobs, kinds, metas):
            if kind == "video/mp4":
                info, samples = extract_frames(blob, self.k)
                if info["codec"] != "rawv":
                    raise NotImplementedError(
                        f"frame-payload decode for codec "
                        f"{info['codec']!r} requires a codec library; "
                        "container-level sampling only")
                shape = [info["height"], info["width"], 3]
                for f, _, payload in samples:
                    out_id.append(int(mid))
                    out_frame.append(f)
                    out_blob.append(payload)
                    out_shape.append(json.dumps(
                        {"shape": shape, "dtype": "uint8"}))
                continue
            arr = np.frombuffer(blob, dtype=meta["dtype"]) \
                .reshape(meta["shape"])
            for f in range(0, arr.shape[0], self.k):
                out_id.append(int(mid))
                out_frame.append(f)
                out_blob.append(arr[f].tobytes())
                out_shape.append(json.dumps(
                    {"shape": list(arr[f].shape), "dtype": meta["dtype"]}))
        return pa.table({
            "media_id": pa.array(out_id, type=pa.int64()),
            "frame_idx": pa.array(out_frame, type=pa.int32()),
            "decoded": pa.array(out_blob, type=pa.large_binary()),
            "decoded_shape": pa.array(out_shape, type=pa.string()),
        })


def frame_pipeline(ds, *, every_k: int = 6, batch_size: int = 8,
                   concurrency=(1, 4)):
    """video table -> sampled frames + per-frame features (actor pools;
    small batches: a batch of raw videos is MB-scale)."""
    return (
        ds.map_batches(FrameSampleStage, fn_constructor_args=(every_k,),
                       batch_format="pyarrow", batch_size=batch_size,
                       zero_copy_batch=True, concurrency=concurrency)
        .map_batches(FeatureStage, batch_format="pyarrow",
                     batch_size=batch_size, zero_copy_batch=True,
                     concurrency=concurrency)
    )


# ---------------------------------------------------------------------------
# perceptual-hash image dedup (dHash + generic Hamming banding)
# ---------------------------------------------------------------------------

def dhash64(pixels: np.ndarray) -> int:
    """64-bit difference hash of one decoded image: grayscale, nearest
    resize to 9x8, bit = left-pixel < right-pixel per adjacent column
    pair. The standard perceptual near-dup fingerprint — stable under
    re-encode, small noise and resize; pure numpy."""
    arr = pixels
    if arr.ndim == 3:
        arr = arr.astype(np.uint32).sum(axis=2) // arr.shape[2]
    h, w = arr.shape
    yi = np.arange(8) * h // 8
    xi = np.arange(9) * w // 9
    g = arr[yi][:, xi].astype(np.int32)
    bits = (g[:, :-1] < g[:, 1:]).astype(np.uint8)
    return int(np.packbits(bits.reshape(-1)).view(">u8")[0])


class DHashStage:
    """Actor-pool stage: decoded image blobs -> 64-bit dHash column
    (variable image shapes force a per-image loop, same shape as the
    other multimodal stages; the hash itself is vectorized numpy)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = as_array(batch.column("decoded")).to_pylist()
        shapes = [json.loads(s) for s in
                  as_array(batch.column("decoded_shape")).to_pylist()]
        out = np.empty(len(blobs), dtype=np.uint64)
        for i, (blob, sh) in enumerate(zip(blobs, shapes)):
            arr = np.frombuffer(blob, dtype=sh["dtype"]) \
                .reshape(sh["shape"])
            out[i] = dhash64(arr)
        return pa.table({
            "media_id": batch.column("media_id").cast(pa.int64()),
            "dhash": pa.array(out, type=pa.uint64()),
        })


def image_dhash_near_dups(media_ds, *, fake: bool = False,
                          max_hamming: int = 3,
                          num_partitions: int = 16,
                          batch_size: int = 32,
                          concurrency=(1, 4)):
    """Perceptual near-duplicate image pairs: real byte-level decode
    (PNG/BMP/JPEG/GIF actor pool) -> per-image 64-bit dHash -> the
    SAME generic 4x16-bit Hamming banding the text SimHash path uses
    (dedup_extras.hamming_near_dup_pairs; exact recall for hamming <=
    3 by pigeonhole). The image half of cross-modal dedup: no
    all-pairs scan, one band shuffle + one pair-dedup shuffle."""
    from .dedup_extras import hamming_near_dup_pairs

    fp = (media_ds
          .map_batches(DecodeStage, fn_constructor_args=(fake,),
                       batch_format="pyarrow", batch_size=batch_size,
                       zero_copy_batch=True, concurrency=concurrency)
          .map_batches(DHashStage, batch_format="pyarrow",
                       batch_size=batch_size, zero_copy_batch=True,
                       concurrency=concurrency))
    return hamming_near_dup_pairs(fp, id_col="media_id",
                                  hash_col="dhash",
                                  max_hamming=max_hamming,
                                  num_partitions=num_partitions)


def make_near_dup_image_batch(n_base: int, n_dups: int,
                              kind: str = "image/bmp",
                              seed: int = 7) -> pa.Table:
    """Images with planted perceptual near-dups: dup j is base
    (j % n_base) with ONE pixel strongly changed — that pixel enters at
    most two adjacent-column comparisons of the 9x8 dHash grid, so the
    planted pair's Hamming distance is <= 2 by construction (the
    guarantee the exact-recall banding radius covers)."""
    rng = np.random.default_rng(seed)
    if kind == "image/jpeg":
        # lossless-quality JPEG, cycling through the three chroma
        # layouts so the mixed baseline+subsampled crawl scenario is
        # exercised end-to-end (4:2:0 dominates real web images)
        from ..functions.jpegcodec import encode_jpeg

        _ss = ("444", "420", "422")

        def enc(px, i=0):
            return encode_jpeg(px, quality=100,
                               subsampling=_ss[i % len(_ss)])
    else:
        _e = {"image/bmp": encode_bmp, "image/png": encode_png}[kind]

        def enc(px, i=0):
            return _e(px)
    payloads, metas, ids = [], [], []
    bases = []
    for i in range(n_base):
        if kind == "image/jpeg":
            # low-frequency content: coarse noise bilinearly upsampled —
            # the dHash neighbor comparisons then ride smooth structured
            # gradients with real margins that survive quantization and
            # chroma decimation (pure per-pixel noise leaves ties that
            # lossy coding flips), so the planted-pair Hamming bound
            # holds through the lossy cycle
            coarse = rng.integers(0, 256, size=(3, 5, 3))
            ys = np.linspace(0, 2, 12)
            xs = np.linspace(0, 4, 17)
            y0 = np.floor(ys).astype(int)
            x0 = np.floor(xs).astype(int)
            y1 = np.minimum(y0 + 1, 2)
            x1 = np.minimum(x0 + 1, 4)
            wy = (ys - y0)[:, None, None]
            wx = (xs - x0)[None, :, None]
            c = coarse.astype(np.float64)
            px = (c[y0][:, x0] * (1 - wy) * (1 - wx)
                  + c[y0][:, x1] * (1 - wy) * wx
                  + c[y1][:, x0] * wy * (1 - wx)
                  + c[y1][:, x1] * wy * wx)
            px = np.clip(np.round(px), 0, 255).astype(np.uint8)
        else:
            px = rng.integers(0, 256, size=(12, 17, 3), dtype=np.uint8)
        bases.append(px)
        payloads.append(enc(px, i))
        metas.append(json.dumps({"width": 17, "height": 12,
                                 "channels": 3}))
        ids.append(i)
    for j in range(n_dups):
        noisy = bases[j % n_base].copy()
        r0 = int(rng.integers(0, noisy.shape[0]))
        c0 = int(rng.integers(0, noisy.shape[1]))
        noisy[r0, c0] = 255 - noisy[r0, c0]
        # a dup re-encodes in ITS BASE's chroma layout: the mixed-
        # layout corpus still exercises every decode path, while the
        # planted pair's Hamming bound is not diluted by cross-layout
        # chroma shifts (a same-content 444-vs-420 re-encode is a
        # LOOSER near-dup; tests cover it separately with margin)
        payloads.append(enc(noisy, j % n_base))
        metas.append(json.dumps({"width": 17, "height": 12,
                                 "channels": 3}))
        ids.append(n_base + j)
    return pa.table({
        "media_id": pa.array(ids, type=pa.int64()),
        "media": pa.array(payloads, type=pa.large_binary()),
        "media_type": pa.array([kind] * len(ids), type=pa.string()),
        "media_meta": pa.array(metas, type=pa.string()),
    })


# ---------------------------------------------------------------------------
# audio fingerprint dedup (energy-envelope hash + the same banding)
# ---------------------------------------------------------------------------

def audio_fingerprint64(samples: np.ndarray) -> int:
    """64-bit energy-envelope fingerprint of one decoded clip: mono
    mix, 65 equal time segments, bit = segment RMS-energy rising edge
    (e[i] < e[i+1]). Robust to gain-independent edits? No — it is
    amplitude-SHAPE based: stable under small additive noise and
    re-encode, which is what near-dup audio dedup needs; pure numpy."""
    x = samples.astype(np.float64)
    if x.ndim == 2:
        x = x.mean(axis=1)
    n = len(x)
    if n < 65:
        x = np.pad(x, (0, 65 - n))
        n = 65
    bounds = (np.arange(66) * n) // 65
    sq = np.concatenate([[0.0], np.cumsum(x * x)])
    seg = sq[bounds[1:]] - sq[bounds[:-1]]
    widths = np.maximum(bounds[1:] - bounds[:-1], 1)
    e = seg / widths
    bits = (e[:-1] < e[1:]).astype(np.uint8)
    return int(np.packbits(bits).view(">u8")[0])


class AudioFingerprintStage:
    """Actor-pool stage: decoded WAV blobs -> 64-bit fingerprint."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = as_array(batch.column("decoded")).to_pylist()
        shapes = [json.loads(s) for s in
                  as_array(batch.column("decoded_shape")).to_pylist()]
        out = np.empty(len(blobs), dtype=np.uint64)
        for i, (blob, sh) in enumerate(zip(blobs, shapes)):
            arr = np.frombuffer(blob, dtype=sh["dtype"]) \
                .reshape(sh["shape"])
            out[i] = audio_fingerprint64(arr)
        return pa.table({
            "media_id": batch.column("media_id").cast(pa.int64()),
            "afp": pa.array(out, type=pa.uint64()),
        })


def audio_near_dups(media_ds, *, fake: bool = False,
                    max_hamming: int = 3, num_partitions: int = 16,
                    batch_size: int = 32, concurrency=(1, 4)):
    """Near-duplicate audio-clip pairs: real WAV decode -> 64-bit
    energy-envelope fingerprint -> the generic 4x16-bit Hamming
    banding (dedup_extras.hamming_near_dup_pairs). Text, image and
    audio dedup now share one banding/shuffle plan; only the
    per-modality fingerprint stage differs."""
    from .dedup_extras import hamming_near_dup_pairs

    fp = (media_ds
          .map_batches(DecodeStage, fn_constructor_args=(fake,),
                       batch_format="pyarrow", batch_size=batch_size,
                       zero_copy_batch=True, concurrency=concurrency)
          .map_batches(AudioFingerprintStage, batch_format="pyarrow",
                       batch_size=batch_size, zero_copy_batch=True,
                       concurrency=concurrency))
    return hamming_near_dup_pairs(fp, id_col="media_id", hash_col="afp",
                                  max_hamming=max_hamming,
                                  num_partitions=num_partitions)


def make_near_dup_audio_batch(n_base: int, n_dups: int,
                              seed: int = 11) -> pa.Table:
    """WAV clips with planted near-dups: dup j is base (j % n_base)
    with low-amplitude additive noise (~0.5% of signal RMS) — segment
    energies barely move, so the planted pair's fingerprint Hamming
    distance stays small by construction."""
    rng = np.random.default_rng(seed)
    payloads, metas, ids = [], [], []
    bases = []
    for i in range(n_base):
        n = 1600 + int(rng.integers(0, 800))
        # shaped envelope so segment energies differ strongly
        env = rng.uniform(0.1, 1.0, size=16)
        carrier = rng.integers(-8000, 8000, size=n).astype(np.float64)
        x = (carrier * np.repeat(env, n // 16 + 1)[:n]).astype(np.int16)
        bases.append(x)
        payloads.append(encode_wav(x, 16000))
        metas.append(json.dumps({"sample_rate": 16000,
                                 "n_samples": int(n)}))
        ids.append(i)
    for j in range(n_dups):
        base = bases[j % n_base].astype(np.int32)
        noisy = np.clip(base + rng.integers(-30, 31, size=base.shape),
                        -32768, 32767).astype(np.int16)
        payloads.append(encode_wav(noisy, 16000))
        metas.append(json.dumps({"sample_rate": 16000,
                                 "n_samples": int(len(noisy))}))
        ids.append(n_base + j)
    return pa.table({
        "media_id": pa.array(ids, type=pa.int64()),
        "media": pa.array(payloads, type=pa.large_binary()),
        "media_type": pa.array(["audio/wav"] * len(ids),
                               type=pa.string()),
        "media_meta": pa.array(metas, type=pa.string()),
    })


# ---------------------------------------------------------------------------
# video near-dup (per-frame dHash -> majority-bit clip fingerprint)
# ---------------------------------------------------------------------------

def _frame_dhash_partial(batch: pa.Table) -> pa.Table:
    """(media_id, decoded frame) rows -> per-block partial bit counts:
    one row per clip with n_frames and the 64 per-bit set counts from
    this block's frames (mergeable — the clip fingerprint folds from
    these under one media_id-keyed shuffle)."""
    if len(batch) == 0:
        return pa.table({
            "media_id": pa.array([], type=pa.int64()),
            "n_frames": pa.array([], type=pa.int64()),
            "bit_counts": pa.array([], type=pa.list_(pa.int64())),
        })
    ids = as_array(batch.column("media_id")).to_numpy(
        zero_copy_only=False)
    blobs = as_array(batch.column("decoded")).to_pylist()
    shapes = [json.loads(s) for s in
              as_array(batch.column("decoded_shape")).to_pylist()]
    hashes = np.empty(len(blobs), dtype=np.uint64)
    for i, (blob, sh) in enumerate(zip(blobs, shapes)):
        arr = np.frombuffer(blob, dtype=sh["dtype"]).reshape(sh["shape"])
        hashes[i] = dhash64(arr)
    bits = np.unpackbits(
        hashes[:, None].view(np.uint8), axis=1, bitorder="little"
    ).astype(np.int64)  # (n, 64)
    uniq, inv = np.unique(ids, return_inverse=True)
    counts = np.zeros((len(uniq), 64), dtype=np.int64)
    np.add.at(counts, inv, bits)
    n_frames = np.bincount(inv).astype(np.int64)
    flat = pa.array(counts.reshape(-1), type=pa.int64())
    offs = pa.array(np.arange(len(uniq) + 1, dtype=np.int32) * 64,
                    type=pa.int32())
    return pa.table({
        "media_id": pa.array(uniq.astype(np.int64)),
        "n_frames": pa.array(n_frames),
        "bit_counts": pa.ListArray.from_arrays(offs, flat),
    })


def _clip_fingerprint_fold(batch: pa.Table, _starts) -> pa.Table:
    """Fold co-located per-clip partials -> 64-bit majority-vote clip
    fingerprint (bit set iff set in >= half the sampled frames)."""
    ids = batch.column("media_id").to_numpy(zero_copy_only=False)
    nf = batch.column("n_frames").to_numpy(zero_copy_only=False)
    flat = as_array(batch.column("bit_counts")).flatten() \
        .to_numpy(zero_copy_only=False)
    counts = flat.reshape(len(batch), 64)
    uniq, inv = np.unique(ids, return_inverse=True)
    tot = np.zeros((len(uniq), 64), dtype=np.int64)
    np.add.at(tot, inv, counts)
    n = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(n, inv, nf)
    bits = (tot * 2 >= n[:, None]).astype(np.uint8)
    fp = np.packbits(bits, axis=1, bitorder="little") \
        .view(np.uint64).reshape(-1)
    return pa.table({
        "media_id": pa.array(uniq.astype(np.int64)),
        "vfp": pa.array(fp, type=pa.uint64()),
    })


def video_near_dups(media_ds, *, every_k: int = 3,
                    max_hamming: int = 3, num_partitions: int = 16,
                    batch_size: int = 8, concurrency=(1, 4)):
    """Near-duplicate video pairs: real ISO-BMFF frame sampling
    (mp4box sample tables) -> per-frame dHash -> per-block partial bit
    counts -> one clip-keyed fold to a 64-bit majority-vote clip
    fingerprint -> the shared generic Hamming banding. Completes the
    cross-modal dedup family (text/image/audio/video on one
    banding/shuffle plan); frames never re-ship after the partial."""
    from .context import auto_partitions
    from .dedup_extras import hamming_near_dup_pairs

    frames = media_ds.map_batches(
        FrameSampleStage, fn_constructor_args=(every_k,),
        batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True, concurrency=concurrency)
    P = auto_partitions(media_ds.count(), 500_000, num_partitions)
    fp = keyed_fold(
        frames.map_batches(_frame_dhash_partial,
                           batch_format="pyarrow",
                           zero_copy_batch=True),
        ["media_id"], _clip_fingerprint_fold, P, order_by=None)
    return hamming_near_dup_pairs(fp, id_col="media_id", hash_col="vfp",
                                  max_hamming=max_hamming,
                                  num_partitions=num_partitions)


def make_near_dup_video_batch(n_base: int, n_dups: int,
                              n_frames: int = 12, h: int = 8,
                              w: int = 9, seed: int = 23) -> pa.Table:
    """MP4 clips with planted near-dups: dup j re-encodes base
    (j % n_base) with ONE pixel changed per frame — each frame's dHash
    moves <= 2 bits, so the majority-vote clip fingerprint stays
    within the banding radius by construction."""
    from ..functions.mp4box import encode_mp4

    rng = np.random.default_rng(seed)
    payloads, metas, ids = [], [], []
    bases = []
    for i in range(n_base):
        arr = rng.integers(0, 256, (n_frames, h, w, 3), dtype=np.uint8)
        bases.append(arr)
        payloads.append(encode_mp4([f.tobytes() for f in arr],
                                   fps=12, width=w, height=h))
        metas.append(json.dumps({"fps": 12}))
        ids.append(i)
    for j in range(n_dups):
        arr = bases[j % n_base].copy()
        for f in range(arr.shape[0]):
            r0 = int(rng.integers(0, h))
            c0 = int(rng.integers(0, w))
            arr[f, r0, c0] = 255 - arr[f, r0, c0]
        payloads.append(encode_mp4([f.tobytes() for f in arr],
                                   fps=12, width=w, height=h))
        metas.append(json.dumps({"fps": 12}))
        ids.append(n_base + j)
    return pa.table({
        "media_id": pa.array(ids, type=pa.int64()),
        "media_type": pa.array(["video/mp4"] * len(ids)),
        "payload": pa.array(payloads, type=pa.large_binary()),
        "meta": pa.array(metas, type=pa.string()),
    })
