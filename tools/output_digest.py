"""Print a SHA-256 digest of every output file of benchmark workloads.

    python tools/output_digest.py --workload wide-fc --seed 0
    python tools/output_digest.py --workload all --seed 0

Runs, in a temporary directory, the sweep `perfbench` times for that workload
(`ensure_float_checkpoint`, `run_cell` for each cell, then `report`) with the
`src/qatkit` of this checkout and one BLAS thread, and prints one
`<sha256>  <path>` line per output file, sorted by path.  `--workload all`
runs every workload in turn and prefixes each line with its workload:
`<workload>  <sha256>  <path>`.  An `.npz` file gets
one line per array (`<path>:<name>`) over its name, dtype, shape and bytes,
since the archive itself stores write times.  Run it in two checkouts and
diff the outputs to see whether a change left every output byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy loads BLAS
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import workloads  # noqa: E402
from qatkit import harness  # noqa: E402


def digests(root: Path) -> list[tuple[str, str]]:
    """(path relative to root, sha256 hex) for every file under root; one
    entry per array for an .npz file."""
    out = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if path.suffix == ".npz":
            with np.load(path, allow_pickle=False) as z:
                for name in sorted(z.files):
                    a = np.ascontiguousarray(z[name])
                    h = hashlib.sha256(f"{name}|{a.dtype.str}|{a.shape}|".encode())
                    h.update(a.tobytes())
                    out.append((f"{rel}:{name}", h.hexdigest()))
        else:
            out.append((rel, hashlib.sha256(path.read_bytes()).hexdigest()))
    return out


def run_workload(name: str, seed: int, out_dir: Path):
    """The workload's sweep at `seed`, written under out_dir."""
    cfg = harness.ExperimentConfig(**workloads.config(name, seed), output_dir=str(out_dir))
    harness.ensure_float_checkpoint(cfg, seed, out_dir)
    for cell in cfg.cells:
        harness.run_cell(cfg, cell, seed, out_dir)
    harness.report(out_dir)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    every = args.workload == "all"
    for name in workloads.WORKLOADS if every else [args.workload]:
        prefix = f"{name}  " if every else ""
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = Path(tmp) / "sweep"
            run_workload(name, args.seed, out_dir)
            for rel, digest in digests(out_dir):
                print(f"{prefix}{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
