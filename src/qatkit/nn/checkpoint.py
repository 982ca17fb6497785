"""Self-describing model checkpoint container (.npz + embedded JSON meta).

Holds the config echo, layer specs, named parameter tensors and per-group
quantizer specs.  Each array keeps its own dtype in the .npz.  Older files
may also carry optimizer and RNG state (`opt_state`/`rng_state` meta keys and
`opt/*` arrays) and a `param_dtypes` meta key; loading ignores them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..quantizer import QuantizerSpec


@dataclass
class Checkpoint:
    layer_cfgs: list[dict]
    params: dict[str, np.ndarray]
    specs: dict[str, QuantizerSpec] = field(default_factory=dict)
    config_echo: dict = field(default_factory=dict)


def save_checkpoint(path, ckpt: Checkpoint):
    arrays = {}
    for name, arr in ckpt.params.items():
        arrays[f"param/{name}"] = arr
    meta = {
        "layer_cfgs": ckpt.layer_cfgs,
        "param_names": sorted(ckpt.params),
        "specs": {
            gid: {"bits": s.bits, "points": s.points, "step": s.step}
            for gid, s in ckpt.specs.items()
        },
        "config_echo": ckpt.config_echo,
    }
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **arrays)


def load_checkpoint(path) -> Checkpoint:
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays.pop("__meta__")).decode("utf-8"))
    params = {name: arrays[f"param/{name}"] for name in meta["param_names"]}
    specs = {
        gid: QuantizerSpec(bits=s["bits"], points=s["points"], step=s["step"])
        for gid, s in meta["specs"].items()
    }
    return Checkpoint(
        layer_cfgs=meta["layer_cfgs"],
        params=params,
        specs=specs,
        config_echo=meta["config_echo"],
    )
