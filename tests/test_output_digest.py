"""`tools/output_digest.py`'s digests: one line per plain file, one per array
of an .npz file, over the arrays rather than the archive's bytes; with
`--workload all`, every workload's lines, each prefixed by its workload."""

import hashlib
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


@pytest.fixture
def output_digest(monkeypatch):
    # the tool pins BLAS threads and extends sys.path when loaded
    monkeypatch.setattr(os, "environ", os.environ.copy())
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_per_file_and_per_array(output_digest, tmp_path):
    a, b = np.arange(6.0).reshape(2, 3), np.array([1, 2], dtype=np.int64)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "results.csv").write_text("cell,metric\n")
    np.savez(tmp_path / "w.npz", b=b, a=a)
    got = output_digest.digests(tmp_path)
    assert [rel for rel, _ in got] == ["sub/results.csv", "w.npz:a", "w.npz:b"]
    assert got[0][1] == hashlib.sha256(b"cell,metric\n").hexdigest()

    # another archive of the same arrays digests the same; a change of one
    # ulp, of dtype or of shape in one array changes that array's line only
    np.savez_compressed(tmp_path / "w.npz", a=a, b=b)
    assert output_digest.digests(tmp_path) == got
    for changed in (np.nextafter(a, np.inf), a.astype(np.float32), a.reshape(3, 2)):
        np.savez(tmp_path / "w.npz", a=changed, b=b)
        new = dict(output_digest.digests(tmp_path))
        assert new["w.npz:a"] != dict(got)["w.npz:a"] and new["w.npz:b"] == dict(got)["w.npz:b"]


def test_all_workloads_prefix_each_line(output_digest, monkeypatch, capsys):
    # a stand-in sweep that writes one file and one array per workload
    def fake_run(name, seed, out_dir):
        out_dir.mkdir(parents=True)
        (out_dir / "results.csv").write_text(f"{name},{seed}\n")
        np.savez(out_dir / "float_s0.npz", w=np.full(3, float(len(name))))

    monkeypatch.setattr(output_digest, "run_workload", fake_run)
    names = list(output_digest.workloads.WORKLOADS)
    single = {}
    for name in names:
        assert output_digest.main(["--workload", name, "--seed", "1"]) == 0
        single[name] = capsys.readouterr().out.splitlines()
        assert len(single[name]) == 2
    assert output_digest.main(["--workload", "all", "--seed", "1"]) == 0
    got = capsys.readouterr().out.splitlines()
    assert got == [f"{name}  {line}" for name in names for line in single[name]]
