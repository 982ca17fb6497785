import json
import re

import numpy as np
import pytest

from qatkit.nn import Checkpoint, build_network, load_checkpoint, save_checkpoint


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    cfgs = [{"kind": "fc", "in": 3, "out": 2}, {"kind": "softmax"}]
    net = build_network(cfgs, rng)
    ckpt = Checkpoint(
        layer_cfgs=cfgs,
        params=net.get_params(),
        config_echo={"task": "test"},
    )
    path = tmp_path / "ck.npz"
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    assert back.layer_cfgs == cfgs
    for k in ckpt.params:
        np.testing.assert_array_equal(back.params[k], ckpt.params[k])
        assert back.params[k].dtype == ckpt.params[k].dtype
    assert back.config_echo == {"task": "test"}


def test_loads_file_with_optimizer_and_rng_state(tmp_path):
    # files from before the checkpoint dropped optimizer and RNG state carry
    # `opt_state`/`rng_state` meta keys and `opt/*` arrays; they still load
    cfgs = [{"kind": "fc", "in": 3, "out": 2}, {"kind": "softmax"}]
    params = build_network(cfgs, np.random.default_rng(0)).get_params()
    meta = {
        "layer_cfgs": cfgs,
        "param_names": sorted(params),
        "param_dtypes": {k: str(v.dtype) for k, v in params.items()},
        "specs": {"fc0": {"bits": 2, "points": 3, "step": 0.25}},
        "opt_state": {"v": {"fc0.W": {"__array__": "opt/v/fc0.W"}}},
        "rng_state": np.random.default_rng(7).bit_generator.state,
        "config_echo": {"task": "test"},
    }
    arrays = {f"param/{k}": v for k, v in params.items()}
    arrays["opt/v/fc0.W"] = np.ones((3, 2))
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    path = tmp_path / "old.npz"
    np.savez(path, **arrays)
    back = load_checkpoint(path)
    assert back.layer_cfgs == cfgs
    for k in params:
        np.testing.assert_array_equal(back.params[k], params[k])
    assert back.config_echo == {"task": "test"}


def test_network_rebuild_from_checkpoint(tmp_path):
    cfgs = [{"kind": "fc", "in": 4, "out": 4}, {"kind": "activation", "fn": "tanh"}]
    net = build_network(cfgs, np.random.default_rng(1))
    x = np.random.default_rng(2).normal(size=(3, 4))
    want = net.forward(x)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, Checkpoint(layer_cfgs=cfgs, params=net.get_params()))
    back = load_checkpoint(path)
    net2 = build_network(back.layer_cfgs, np.random.default_rng(99))
    net2.set_params(back.params)
    np.testing.assert_array_equal(net2.forward(x), want)


def test_npz_without_meta_rejected_naming_path(tmp_path):
    path = tmp_path / "foreign.npz"
    np.savez(path, w=np.ones(3))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))} is not a checkpoint: "
                                         "it has no __meta__ array"):
        load_checkpoint(path)


def test_non_archive_rejected_naming_path(tmp_path):
    path = tmp_path / "notes.npz"
    path.write_text("not an archive", encoding="utf-8")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))} is not a checkpoint archive"):
        load_checkpoint(path)


def test_param_name_without_array_rejected_naming_path(tmp_path):
    cfgs = [{"kind": "fc", "in": 3, "out": 2}, {"kind": "softmax"}]
    params = build_network(cfgs, np.random.default_rng(0)).get_params()
    path = tmp_path / "ck.npz"
    save_checkpoint(path, Checkpoint(layer_cfgs=cfgs, params=params))
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != "param/fc0.b"}
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: no array for parameter "
                                         "'fc0.b'"):
        load_checkpoint(path)


@pytest.mark.parametrize("meta, message", [
    (json.dumps({"layer_cfgs": [], "config_echo": {}}).encode(),
     re.escape("__meta__ dict lacks keys ['param_names']")),
    (json.dumps(["layer_cfgs", "param_names"]).encode(),
     re.escape("__meta__ list lacks keys ['layer_cfgs', 'param_names', 'config_echo']")),
    (b"\xff\xfe{}", "__meta__ is not UTF-8 JSON: 'utf-8' codec can't decode"),
    (b"{layer_cfgs", "__meta__ is not UTF-8 JSON: Expecting property name"),
], ids=["no-param_names", "json-list", "not-utf8", "not-json"])
def test_malformed_meta_rejected_naming_path_and_key(tmp_path, meta, message):
    # ensure_float_checkpoint loads this file before every cell of a sweep
    path = tmp_path / "ck.npz"
    np.savez(path, **{"__meta__": np.frombuffer(meta, dtype=np.uint8),
                      "param/fc0.W": np.ones((3, 2))})
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        load_checkpoint(path)


BN_CFGS = [{"kind": "fc", "in": 3, "out": 2}, {"kind": "batchnorm", "features": 2}]


def bn_checkpoint():
    net = build_network(BN_CFGS, np.random.default_rng(0))
    net.forward(np.random.default_rng(1).normal(size=(5, 3)), train=True)
    return Checkpoint(layer_cfgs=BN_CFGS, params=net.get_params(), buffers=net.get_buffers())


def test_buffers_round_trip(tmp_path):
    ckpt = bn_checkpoint()
    path = tmp_path / "ck.npz"
    save_checkpoint(path, ckpt)
    with np.load(path) as data:
        assert sorted(k for k in data.files if k.startswith("buffer/")) == [
            "buffer/batchnorm1.running_mean", "buffer/batchnorm1.running_var"]
    back = load_checkpoint(path)
    assert back.buffers.keys() == ckpt.buffers.keys()
    for k in ckpt.buffers:
        np.testing.assert_array_equal(back.buffers[k], ckpt.buffers[k])


def test_file_without_buffer_names_loads_with_no_buffers(tmp_path):
    cfgs = [{"kind": "fc", "in": 3, "out": 2}, {"kind": "softmax"}]
    params = build_network(cfgs, np.random.default_rng(0)).get_params()
    meta = {"layer_cfgs": cfgs, "param_names": sorted(params), "config_echo": {}}
    arrays = {f"param/{k}": v for k, v in params.items()}
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    path = tmp_path / "old.npz"
    np.savez(path, **arrays)
    assert load_checkpoint(path).buffers == {}


def test_buffer_name_without_array_rejected_naming_path(tmp_path):
    path = tmp_path / "ck.npz"
    save_checkpoint(path, bn_checkpoint())
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != "buffer/batchnorm1.running_var"}
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: no array for buffer "
                                         "'batchnorm1.running_var'"):
        load_checkpoint(path)
