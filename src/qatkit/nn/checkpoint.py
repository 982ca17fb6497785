"""Self-describing model checkpoint container (.npz + embedded JSON meta).

Holds the config echo, layer specs and named parameter tensors.  Each array
keeps its own dtype in the .npz.  Older files may also carry optimizer and
RNG state (`opt_state`/`rng_state` meta keys and `opt/*` arrays), a
`param_dtypes` meta key and per-group quantizer `specs`; loading ignores them.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Checkpoint:
    layer_cfgs: list[dict]
    params: dict[str, np.ndarray]
    config_echo: dict = field(default_factory=dict)


def save_checkpoint(path, ckpt: Checkpoint):
    arrays = {}
    for name, arr in ckpt.params.items():
        arrays[f"param/{name}"] = arr
    meta = {
        "layer_cfgs": ckpt.layer_cfgs,
        "param_names": sorted(ckpt.params),
        "config_echo": ckpt.config_echo,
    }
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **arrays)


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint `save_checkpoint` wrote to `path`.  Raises ValueError,
    naming the path, for a file that is not such a checkpoint."""
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as e:
        raise ValueError(f"{path} is not a checkpoint archive: {e}") from e
    if "__meta__" not in arrays:
        raise ValueError(f"{path} is not a checkpoint: it has no __meta__ array")
    meta = json.loads(bytes(arrays.pop("__meta__")).decode("utf-8"))
    missing = [n for n in meta["param_names"] if f"param/{n}" not in arrays]
    if missing:
        raise ValueError(f"{path}: no array for parameter {', '.join(map(repr, missing))}")
    return Checkpoint(
        layer_cfgs=meta["layer_cfgs"],
        params={name: arrays[f"param/{name}"] for name in meta["param_names"]},
        config_echo=meta["config_echo"],
    )
