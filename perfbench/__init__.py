"""Benchmark of qatkit retraining sweeps; see README.md."""
