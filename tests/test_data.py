import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qatkit.data import (
    IdxParseError,
    encode_text,
    load_dataset,
    load_text_corpus,
    read_idx,
    split_indices,
    text_splits,
    synthetic_clusters,
    synthetic_digit_images,
    synthetic_text,
    synthetic_text_corpus,
    write_idx,
)

from oracles import encode_text_reference, synthetic_text_loop


class TestIdx:
    def test_round_trip_images(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 256, size=(10, 4, 4)).astype(np.uint8)
        path = tmp_path / "imgs.idx"
        write_idx(path, imgs)
        # magic for 3-d ubyte is 0x00000803
        with open(path, "rb") as f:
            assert struct.unpack(">i", f.read(4))[0] == 0x00000803
        back = read_idx(path)
        assert back.shape == (10, 4, 4)
        np.testing.assert_array_equal(back, imgs)

    def test_round_trip_labels(self, tmp_path):
        labels = np.arange(10, dtype=np.uint8)
        path = tmp_path / "labels.idx"
        write_idx(path, labels)
        np.testing.assert_array_equal(read_idx(path), labels)

    def test_truncated_file_reports_offset(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x00\x00\x08\x03" + struct.pack(">iii", 10, 4, 4) + b"\x00" * 7)
        with pytest.raises(IdxParseError, match="byte"):
            read_idx(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x01\x00\x08\x01" + struct.pack(">i", 0))
        with pytest.raises(IdxParseError, match="byte 0"):
            read_idx(path)

    def test_unknown_dtype_code(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x00\x00\x77\x01" + struct.pack(">i", 0))
        with pytest.raises(IdxParseError, match="0x77"):
            read_idx(path)

    def test_missing_file(self):
        with pytest.raises(OSError):
            read_idx("/nonexistent/file.idx")

    def test_idx_classification_loader(self, tmp_path):
        rng = np.random.default_rng(1)
        imgs = rng.integers(0, 256, size=(40, 8, 8)).astype(np.uint8)
        labels = rng.integers(0, 10, size=40).astype(np.uint8)
        write_idx(tmp_path / "i.idx", imgs)
        write_idx(tmp_path / "l.idx", labels)
        splits = load_dataset({"kind": "idx", "images": str(tmp_path / "i.idx"),
                               "labels": str(tmp_path / "l.idx"),
                               "fractions": (0.5, 0.25, 0.25)})
        assert splits.train[0].shape == (20, 1, 8, 8)
        assert splits.dev[0].shape == (10, 1, 8, 8)
        assert splits.test[0].shape == (10, 1, 8, 8)
        assert splits.train[0].max() <= 1.0


class TestSynthetic:
    def test_clusters_deterministic(self):
        a = synthetic_clusters(100, 3, 4, seed=9)
        b = synthetic_clusters(100, 3, 4, seed=9)
        np.testing.assert_array_equal(a.train[0], b.train[0])
        np.testing.assert_array_equal(a.test[1], b.test[1])

    def test_clusters_split_sizes(self):
        s = synthetic_clusters(101, 3, 4, seed=0, fractions=(0.7, 0.15, 0.15))
        assert len(s.dev[1]) == int(101 * 0.15)
        assert len(s.test[1]) == int(101 * 0.15)
        assert len(s.train[1]) == 101 - 2 * int(101 * 0.15)

    def test_digit_images_shape(self):
        s = synthetic_digit_images(50, 10, seed=3)
        assert s.train[0].shape[1:] == (1, 8, 8)

    @pytest.mark.parametrize("size", [7, 1, 0])
    def test_digit_images_odd_or_tiny_size_rejected(self, size):
        with pytest.raises(ValueError, match=f"digit-images size must be an even integer "
                                             f">= 2, got {size}"):
            synthetic_digit_images(50, 10, seed=3, size=size)

    @pytest.mark.parametrize("build, message", [
        (lambda: synthetic_clusters(40, 2, 3, seed=0, spread=-0.5),
         "clusters dataset: spread must be >= 0, got -0.5"),
        (lambda: synthetic_digit_images(40, 2, seed=0, noise=-1.0),
         "digit-images dataset: noise must be >= 0, got -1.0"),
        (lambda: synthetic_text(50, 0, vocab_size=0, order=0),
         "synthetic-text dataset: vocab_size must be >= 1, got 0"),
        (lambda: synthetic_text(50, 0, vocab_size=5, order=-1),
         "synthetic-text dataset: order must be >= 0, got -1"),
        (lambda: synthetic_text_corpus(50, 0, vocab_size=-3),
         "synthetic-text dataset: vocab_size must be >= 1, got -3"),
        (lambda: synthetic_text(-1, 0), "synthetic-text dataset: n_chars must be >= 0, got -1"),
        (lambda: synthetic_clusters(40, 2, 3, seed=-1),
         "clusters dataset: seed must be >= 0, got -1"),
        (lambda: synthetic_digit_images(40, 2, seed=-1),
         "digit-images dataset: seed must be >= 0, got -1"),
        (lambda: synthetic_text(50, -1), "synthetic-text dataset: seed must be >= 0, got -1"),
        (lambda: load_dataset({"kind": "idx", "images": "i.idx", "labels": "l.idx", "seed": -1}),
         "idx dataset: seed must be >= 0, got -1"),
    ], ids=["clusters-spread", "digit-images-noise", "text-vocab-0", "text-order",
            "corpus-vocab", "text-n-chars", "clusters-seed", "digit-images-seed", "text-seed",
            "idx-seed"])
    def test_builder_rejects_a_value_below_its_least(self, build, message):
        # at the parent these failed inside numpy or the sampler, with
        # `scale < 0`, IndexError, TypeError or `high <= 0`
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_seed_changes_data(self):
        a = synthetic_clusters(50, 2, 3, seed=1)
        b = synthetic_clusters(50, 2, 3, seed=2)
        assert not np.array_equal(a.train[0], b.train[0])


class TestText:
    def test_split_fractions_floor_rule(self, tmp_path):
        text = "ab" * 500 + "c"  # 1001 chars
        p = tmp_path / "c.txt"
        p.write_text(text, encoding="utf-8")
        s = load_text_corpus(p, fractions=(0.9, 0.05, 0.05))
        n = 1001
        n_dev = int(n * 0.05)
        n_test = int(n * 0.05)
        # recount independently
        assert len(s.dev[0]) == n_dev
        assert len(s.test[0]) == n_test
        assert len(s.train[0]) == n - n_dev - n_test

    def test_empty_corpus(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            load_text_corpus(p)

    @pytest.mark.parametrize("build, sizes", [
        (lambda: synthetic_text_corpus(30, 1, vocab_size=4), "28, 1 and 1"),
        (lambda: synthetic_text_corpus(0, 1), "0, 0 and 0"),
        (lambda: synthetic_clusters(6, 2, 3, seed=0), "6, 0 and 0"),
    ], ids=["text-1-code", "text-empty", "clusters-empty"])
    def test_too_short_split_rejected(self, build, sizes):
        with pytest.raises(ValueError, match=f"train, dev and test sizes {sizes}"):
            build()

    def test_synthetic_text_has_exactly_n_chars(self):
        assert [len(synthetic_text(n, 1, order=3)) for n in range(5)] == [0, 1, 2, 3, 4]

    def test_encode_round_trip(self):
        codes, vocab = encode_text("hello")
        assert "".join(vocab[c] for c in codes) == "hello"

    @given(st.one_of(st.text(), st.text(st.sampled_from("ab\x00~\xe9\u4e2d\uffff\U0001d11e\U0001f600\U0010ffff"))))
    @example("")
    @example("a\ud800b\udfff")  # lone surrogates
    def test_encode_text_matches_dict_loop(self, text):
        codes, vocab = encode_text(text)
        want_codes, want_vocab = encode_text_reference(text)
        assert codes.dtype == want_codes.dtype == np.int64
        assert np.array_equal(codes, want_codes) and vocab == want_vocab

    @pytest.mark.parametrize("vocab_size", [2, 4, 16, 26])
    def test_synthetic_corpus_matches_encoded_text(self, vocab_size):
        for seed, n_chars in enumerate([40, 41, 200, 3000]):
            got = synthetic_text_corpus(n_chars, seed, vocab_size)
            want = text_splits(synthetic_text(n_chars, seed, vocab_size))
            assert got.meta == want.meta
            for split in ("train", "dev", "test"):
                (codes,), (want_codes,) = got.get(split), want.get(split)
                assert codes.dtype == want_codes.dtype == np.int64
                assert np.array_equal(codes, want_codes)

    def test_synthetic_corpus_recodes_missing_letters(self):
        # 40 characters cannot hold all 26 letters; the codes stay dense
        text = synthetic_text(40, 0, 26)
        s = synthetic_text_corpus(40, 0, 26)
        assert s.meta["vocab_size"] == len(set(text)) < 26
        codes = np.concatenate([s.train[0], s.dev[0], s.test[0]])
        assert np.array_equal(np.unique(codes), np.arange(len(set(text))))
        assert "".join(sorted(set(text))[c] for c in codes) == text

    def test_synthetic_text_deterministic(self):
        assert synthetic_text(500, seed=4) == synthetic_text(500, seed=4)
        assert synthetic_text(500, seed=4) != synthetic_text(500, seed=5)

    @pytest.mark.parametrize("vocab_size, order", [(26, 2), (16, 2), (5, 3), (3, 1), (1, 2)])
    def test_synthetic_text_matches_choice_loop(self, vocab_size, order):
        # n_chars <= order draws nothing
        lengths = [0, 1, order, order + 1, 50, 1000, 3000]
        for seed, n_chars in enumerate(lengths):
            want = synthetic_text_loop(n_chars, seed, vocab_size, order)[:n_chars]
            assert synthetic_text(n_chars, seed, vocab_size, order) == want

    def test_synthetic_text_learnable_structure(self):
        # Markov text should have repeated bigrams well above uniform
        t = synthetic_text(5000, seed=6, vocab_size=8)
        from collections import Counter
        bigrams = Counter(t[i : i + 2] for i in range(len(t) - 1))
        assert bigrams.most_common(1)[0][1] > 2 * (len(t) / 64)


class TestSplitIndices:
    def test_remainder_goes_to_train(self):
        n_train, n_dev, n_test = split_indices(999, (0.9, 0.05, 0.05))
        assert n_dev == 49 and n_test == 49 and n_train == 901

    @pytest.mark.parametrize("fractions", [
        [0.5, 0.6, 0.2], [0.7, 0.3], [2.0, -0.5, 0.1], [0.5, 0.5, float("nan")],
        (0.5, True, 0.5), "abc",
    ], ids=["sum-above-1", "two-entries", "out-of-range", "nan", "bool", "str"])
    def test_bad_fractions_rejected(self, fractions):
        message = re.escape("fractions must be three numbers in [0, 1] that sum to 1, "
                            f"got {fractions!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            synthetic_clusters(40, 2, 3, seed=0, fractions=fractions)
        with pytest.raises(ValueError, match=f"^{message}$"):
            text_splits("ab" * 40, fractions)

    def test_fractions_within_rounding_of_one_accepted(self):
        assert sum((0.7, 0.2, 0.1)) != 1.0
        s = synthetic_clusters(40, 2, 3, seed=0, fractions=(0.7, 0.2, 0.1))
        assert [len(s.get(name)[1]) for name in ("train", "dev", "test")] == [28, 8, 4]
        s = synthetic_digit_images(40, 2, seed=0, fractions=[0.25, 0.1, 0.65])
        assert [len(s.get(name)[1]) for name in ("train", "dev", "test")] == [10, 4, 26]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            load_dataset({"kind": "nope"})
