"""Self-describing model checkpoint container (.npz + embedded JSON meta).

Holds the config echo, layer specs, and named parameter and buffer tensors
(buffers: what evaluation reads and no optimizer trains, e.g. batch-norm
running statistics; a file without them loads with none).  Each array
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
    buffers: dict[str, np.ndarray] = field(default_factory=dict)


def save_checkpoint(path, ckpt: Checkpoint):
    arrays = {f"param/{name}": arr for name, arr in ckpt.params.items()}
    arrays.update({f"buffer/{name}": arr for name, arr in ckpt.buffers.items()})
    meta = {
        "layer_cfgs": ckpt.layer_cfgs,
        "param_names": sorted(ckpt.params),
        "buffer_names": sorted(ckpt.buffers),
        "config_echo": ckpt.config_echo,
    }
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **arrays)


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint `save_checkpoint` wrote to `path`.  Raises ValueError,
    naming the path, for a file that is not such a checkpoint, and the key
    for a `__meta__` that is not a JSON object with every key it needs."""
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as e:
        raise ValueError(f"{path} is not a checkpoint archive: {e}") from e
    if "__meta__" not in arrays:
        raise ValueError(f"{path} is not a checkpoint: it has no __meta__ array")
    try:
        meta = json.loads(bytes(arrays.pop("__meta__")).decode("utf-8"))
    except ValueError as e:  # not UTF-8, or not JSON
        raise ValueError(f"{path}: __meta__ is not UTF-8 JSON: {e}") from None
    missing = [k for k in ("layer_cfgs", "param_names", "config_echo")
               if not isinstance(meta, dict) or k not in meta]
    if missing:
        raise ValueError(f"{path}: __meta__ {type(meta).__name__} lacks keys {missing}")
    names = {"param": meta["param_names"], "buffer": meta.get("buffer_names", [])}
    for kind, what in (("param", "parameter"), ("buffer", "buffer")):
        missing = [n for n in names[kind] if f"{kind}/{n}" not in arrays]
        if missing:
            raise ValueError(f"{path}: no array for {what} {', '.join(map(repr, missing))}")
    return Checkpoint(
        layer_cfgs=meta["layer_cfgs"],
        params={name: arrays[f"param/{name}"] for name in names["param"]},
        config_echo=meta["config_echo"],
        buffers={name: arrays[f"buffer/{name}"] for name in names["buffer"]},
    )
