"""Dataset loading and generation: IDX image files, UTF-8 character corpora,
and seeded synthetic classification data at desk scale."""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass, field

import numpy as np


class IdxParseError(ValueError):
    """Malformed IDX file; message includes the byte offset."""


_IDX_DTYPES = {
    0x08: np.dtype(">u1"),
    0x09: np.dtype(">i1"),
    0x0B: np.dtype(">i2"),
    0x0C: np.dtype(">i4"),
    0x0D: np.dtype(">f4"),
    0x0E: np.dtype(">f8"),
}


def read_idx(path) -> np.ndarray:
    """Read one IDX file (big-endian magic, dims, raw values) into an array."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 4:
        raise IdxParseError(f"{path}: truncated magic at byte 0")
    zero1, zero2, dcode, ndim = struct.unpack(">BBBB", raw[:4])
    if zero1 != 0 or zero2 != 0:
        raise IdxParseError(f"{path}: bad magic bytes at byte 0")
    if dcode not in _IDX_DTYPES:
        raise IdxParseError(f"{path}: unknown dtype code 0x{dcode:02x} at byte 2")
    header_end = 4 + 4 * ndim
    if len(raw) < header_end:
        raise IdxParseError(f"{path}: truncated dimension header at byte {len(raw)}")
    dims = struct.unpack(f">{ndim}i", raw[4:header_end])
    if any(d < 0 for d in dims):
        raise IdxParseError(f"{path}: negative dimension at byte 4")
    dtype = _IDX_DTYPES[dcode]
    count = int(np.prod(dims)) if dims else 1
    expected = header_end + count * dtype.itemsize
    if len(raw) != expected:
        raise IdxParseError(
            f"{path}: expected {expected} bytes, got {len(raw)} (data at byte {header_end})"
        )
    arr = np.frombuffer(raw, dtype=dtype, offset=header_end, count=count)
    return arr.reshape(dims).astype(dtype.newbyteorder("="))


def write_idx(path, arr: np.ndarray):
    """Inverse of read_idx, for fixtures and synthetic exports."""
    codes = {np.dtype("u1"): 0x08, np.dtype("i1"): 0x09, np.dtype("i2"): 0x0B,
             np.dtype("i4"): 0x0C, np.dtype("f4"): 0x0D, np.dtype("f8"): 0x0E}
    code = codes[np.dtype(arr.dtype)]
    with open(path, "wb") as f:
        f.write(struct.pack(">BBBB", 0, 0, code, arr.ndim))
        for d in arr.shape:
            f.write(struct.pack(">i", d))
        f.write(arr.astype(np.dtype(arr.dtype).newbyteorder(">")).tobytes())


@dataclass
class Splits:
    """Train/dev/test splits.  For classification: (x, y) arrays per split.
    For character corpora: one integer-coded array per split, with the
    vocabulary size in meta["vocab_size"]."""

    train: tuple
    dev: tuple
    test: tuple
    meta: dict = field(default_factory=dict)

    def get(self, name: str) -> tuple:
        return getattr(self, name)


CLASSIFICATION_FRACTIONS = (0.7, 0.15, 0.15)  # train, dev, test
TEXT_FRACTIONS = (0.9, 0.05, 0.05)


# dataset kind -> the numeric keys its builder checks and the least value each takes
DATASET_COUNTS = {
    "clusters": {"n_samples": 1, "classes": 1, "dim": 1, "spread": 0, "seed": 0},
    "digit-images": {"n_samples": 1, "classes": 1, "noise": 0, "seed": 0},
    "synthetic-text": {"n_chars": 0, "vocab_size": 1, "order": 0, "seed": 0},
    "idx": {"seed": 0},
}


def check_dataset_counts(kind: str, **values):
    """Raise ValueError, naming the dataset kind and every key, for a value
    below its least one in DATASET_COUNTS, and for a digit-images `size`
    that is not an even integer >= 2; other keys are not read."""
    bad = [f"{key} must be >= {least}, got {values[key]}"
           for key, least in DATASET_COUNTS.get(kind, {}).items()
           if key in values and values[key] < least]
    if bad:
        raise ValueError(f"{kind} dataset: {'; '.join(bad)}")
    size = values.get("size", 2) if kind == "digit-images" else 2
    if size < 2 or size % 2:
        raise ValueError(f"digit-images size must be an even integer >= 2, got {size}")


def check_fractions(fractions):
    """Raise ValueError, naming the value, unless `fractions` (train, dev,
    test) is three numbers in [0, 1] whose sum is within 1e-9 of 1."""
    numbers = isinstance(fractions, (list, tuple)) and all(
        isinstance(f, (int, float)) and not isinstance(f, bool) for f in fractions)
    if not (numbers and len(fractions) == 3 and all(0 <= f <= 1 for f in fractions)
            and abs(sum(fractions) - 1) <= 1e-9):
        raise ValueError("fractions must be three numbers in [0, 1] that sum to 1, "
                         f"got {fractions!r}")


def split_indices(n: int, fractions=TEXT_FRACTIONS):
    """Sizes by floor rule, remainder to train."""
    n_dev = int(n * fractions[1])
    n_test = int(n * fractions[2])
    n_train = n - n_dev - n_test
    return n_train, n_dev, n_test


def _shuffled(rng: np.random.Generator, *arrays) -> tuple:
    """`arrays`, each reordered by one permutation of their rows drawn from `rng`."""
    order = rng.permutation(len(arrays[0]))
    return tuple(a[order] for a in arrays)


def _split(arrays: tuple, fractions, meta: dict | None = None, least: int = 1) -> Splits:
    """Cut each of `arrays` contiguously into train, dev and test, sized by
    `split_indices` on their common length.  Raises ValueError for fractions
    `check_fractions` rejects and, naming the sizes, if a split would hold
    fewer than `least` entries."""
    check_fractions(fractions)
    n_train, n_dev, n_test = split_indices(len(arrays[0]), fractions)
    if min(n_train, n_dev, n_test) < least:
        raise ValueError(f"train, dev and test sizes {n_train}, {n_dev} and {n_test}: "
                         f"each split needs at least {least}")
    cuts = (slice(None, n_train), slice(n_train, n_train + n_dev), slice(n_train + n_dev, None))
    return Splits(*(tuple(a[c] for a in arrays) for c in cuts), meta=meta or {})


def synthetic_clusters(n_samples: int, classes: int, dim: int, seed: int,
                       spread: float = 1.0, fractions=CLASSIFICATION_FRACTIONS) -> Splits:
    """Seeded Gaussian-cluster classification data, shuffled then split."""
    check_dataset_counts("clusters", n_samples=n_samples, classes=classes, dim=dim,
                         spread=spread, seed=seed)
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(classes, dim))
    y = rng.integers(0, classes, size=n_samples)
    x = centers[y] + rng.normal(0.0, spread, size=(n_samples, dim))
    return _split(_shuffled(rng, x, y), fractions)


def synthetic_digit_images(n_samples: int, classes: int, seed: int,
                           size: int = 8, noise: float = 0.25,
                           fractions=CLASSIFICATION_FRACTIONS) -> Splits:
    """Digit-style images: one random blocky template per class plus noise."""
    check_dataset_counts("digit-images", n_samples=n_samples, classes=classes, noise=noise,
                         seed=seed, size=size)
    rng = np.random.default_rng(seed)
    coarse = rng.uniform(0.0, 1.0, size=(classes, size // 2, size // 2))
    templates = coarse.repeat(2, axis=1).repeat(2, axis=2)
    y = rng.integers(0, classes, size=n_samples)
    x = templates[y] + rng.normal(0.0, noise, size=(n_samples, size, size))
    x = x[:, None, :, :]  # channel axis
    return _split(_shuffled(rng, x, y), fractions)


def load_idx_classification(images, labels, fractions=CLASSIFICATION_FRACTIONS,
                            seed: int = 0) -> Splits:
    check_dataset_counts("idx", seed=seed)
    x = read_idx(images)
    y = read_idx(labels)
    if x.ndim != 3:
        raise IdxParseError(f"{images}: expected 3-d image file, got {x.ndim}-d")
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise IdxParseError(
            f"{labels}: label count {y.shape} does not match images {x.shape[0]}"
        )
    x = x.astype(np.float64)[:, None, :, :] / 255.0
    return _split(_shuffled(np.random.default_rng(seed), x, y.astype(np.int64)), fractions)


def _dense_codes(points: np.ndarray):
    """Each of the nonnegative integers `points` as its index among their
    sorted distinct values, as int64, and those values.  The tables are sized
    by the largest value: a code point near 0x10FFFF makes them peak at 19 MB."""
    present = np.bincount(points) > 0
    rank = np.cumsum(present, dtype=np.int64)
    rank -= 1
    return rank[points], np.flatnonzero(present)


def _code_points(text: str) -> np.ndarray:
    """The code points of `text`, lone surrogates included."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), "<u4")


def _corpus_splits(points: np.ndarray, fractions) -> Splits:
    """Integer characters `points`, densely re-coded and split contiguously
    train/dev/test (floor rule, remainder to train); each split needs 2
    codes, an input and its target."""
    codes, vocab = _dense_codes(points)
    return _split((codes,), fractions, {"vocab_size": len(vocab)}, least=2)


def encode_text(text: str):
    """`text` as int64 codes into its sorted vocabulary, and that vocabulary
    as a list of characters."""
    codes, vocab = _dense_codes(_code_points(text))
    return codes, [chr(c) for c in vocab.tolist()]


def text_splits(text: str, fractions=TEXT_FRACTIONS) -> Splits:
    """Encode `text` and split it contiguously train/dev/test (floor rule,
    remainder to train); each split needs 2 codes, an input and its target."""
    return _corpus_splits(_code_points(text), fractions)


def load_text_corpus(path, fractions=TEXT_FRACTIONS) -> Splits:
    """UTF-8 character corpus from `path`, split by `text_splits`."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    if not text:
        raise ValueError(f"{path}: empty corpus")
    return text_splits(text, fractions)


def _markov_codes(n_chars: int, seed: int, vocab_size: int, order: int) -> bytearray:
    """The letter codes (0 for "a") of `synthetic_text`."""
    check_dataset_counts("synthetic-text", n_chars=n_chars, vocab_size=vocab_size, order=order,
                         seed=seed)
    rng = np.random.default_rng(seed)
    v = min(vocab_size, 26)
    n_states = v ** order
    k = min(4, v)  # successors per state
    succ = rng.integers(0, v, size=(n_states, k))
    weights = rng.dirichlet(np.ones(k) * 0.5, size=n_states)
    out = bytearray(rng.integers(0, v, size=order).tolist())
    state = 0
    for c in out:
        state = state * v + c
    state %= n_states
    # rng.choice(k, p=weights[state]) per character, without its per-call
    # overhead: choice draws one rng.random() and returns
    # searchsorted(cdf, u, 'right') with cdf = p.cumsum() / its last entry
    cdf = weights.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    # after[s][j]: the state that successor succ[s][j] leads to
    after = ((np.arange(n_states)[:, None] * v + succ) % n_states).tolist()
    cdf, succ = cdf.tolist(), succ.tolist()
    for u in rng.random(max(n_chars - order, 0)).tolist():
        j = bisect.bisect_right(cdf[state], u)
        out.append(succ[state][j])
        state = after[state][j]
    return out[:n_chars]


# letter code -> ASCII letter, as a bytes.translate table
_LETTERS = bytes(range(ord("a"), ord("a") + 26)).ljust(256, b"?")


def synthetic_text(n_chars: int, seed: int, vocab_size: int = 26, order: int = 2) -> str:
    """`n_chars` characters of seeded Markov-chain text with nontrivial but
    learnable structure, drawn from the first min(vocab_size, 26) letters.

    Each state maps to a sparse next-character distribution, so a small model
    can beat the unigram entropy but not reach zero.
    """
    return _markov_codes(n_chars, seed, vocab_size, order).translate(_LETTERS).decode("ascii")


def synthetic_text_corpus(n_chars: int, seed: int, vocab_size: int = 26, order: int = 2,
                          fractions=TEXT_FRACTIONS) -> Splits:
    """`synthetic_text`, split by `text_splits`, from its letter codes."""
    points = np.frombuffer(_markov_codes(n_chars, seed, vocab_size, order), np.uint8)
    return _corpus_splits(points, fractions)


# dataset kind -> builder; a dataset config's other keys are the builder's arguments
DATASET_BUILDERS = {
    "clusters": synthetic_clusters,
    "digit-images": synthetic_digit_images,
    "idx": load_idx_classification,
    "text": load_text_corpus,
    "synthetic-text": synthetic_text_corpus,
}


def load_dataset(cfg: dict) -> Splits:
    """Build the dataset of kind cfg['kind'] from the config's other keys."""
    args = dict(cfg)
    kind = args.pop("kind")
    if kind not in DATASET_BUILDERS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    return DATASET_BUILDERS[kind](**args)
