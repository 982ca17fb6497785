"""Command-line front end: train-float, quantize, retrain, sweep, report."""

from __future__ import annotations

import sys

import click

from . import harness, qat


@click.group()
def main():
    """Fixed-point weight quantization experiments."""


def _fail(e: Exception):
    click.echo(f"error: {type(e).__name__}: {e}", err=True)
    sys.exit(1)


@main.command("train-float")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", default=0, type=int)
@click.option("--out", "out_dir", default=None, type=click.Path())
def train_float_cmd(config_path, seed, out_dir):
    """Train the floating-point baseline network."""
    try:
        cfg = harness.ExperimentConfig.from_file(config_path)
        out = out_dir or cfg.output_dir
        _, record = harness.train_and_save_float(cfg, seed, out)
        click.echo(f"float test {record.metric_name}: {record.final_test_metric}")
        click.echo(f"checkpoint: {harness.float_checkpoint_path(out, seed)}")
    except Exception as e:
        _fail(e)


@main.command("quantize")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--bits", default=2, type=int)
@click.option("--seed", default=0, type=int)
@click.option("--out", "out_dir", default=None, type=click.Path())
def quantize_cmd(config_path, bits, seed, out_dir):
    """Direct quantization of the float checkpoint, no retraining."""
    try:
        cfg = harness.ExperimentConfig.from_file(config_path)
        out = out_dir or cfg.output_dir
        record = harness.run_cell(cfg, {"bits": bits, "schedule": "direct"}, seed, out)
        click.echo(f"direct {bits}-bit test {record.metric_name}: {record.final_test_metric}")
    except Exception as e:
        _fail(e)


@main.command("retrain")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--bits", default=2, type=int, help="the width retraining ends at")
@click.option("--schedule", default="adaptive", help=qat.SCHEDULE_FORMS)
@click.option("--seed", default=0, type=int)
@click.option("--out", "out_dir", default=None, type=click.Path())
def retrain_cmd(config_path, bits, schedule, seed, out_dir):
    """Retrain one (bits, schedule) cell from the float checkpoint."""
    try:
        cfg = harness.ExperimentConfig.from_file(config_path)
        out = out_dir or cfg.output_dir
        record = harness.run_cell(cfg, {"bits": bits, "schedule": schedule}, seed, out)
        click.echo(f"{schedule} {bits}-bit test {record.metric_name}: {record.final_test_metric}")
    except Exception as e:
        _fail(e)


@main.command("sweep")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", default=None, type=click.Path())
def sweep_cmd(config_path, out_dir):
    """Run every configured (bits, schedule, seed) cell and report."""
    try:
        cfg = harness.ExperimentConfig.from_file(config_path)
        out = out_dir or cfg.output_dir
        records = harness.sweep(cfg, out)
        harness.report(out)
        click.echo(f"{len(records)} runs completed; results in {out}")
    except Exception as e:
        _fail(e)


@main.command("report")
@click.option("--results", "results_dir", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", default=None, type=click.Path())
def report_cmd(results_dir, out_dir):
    """Consolidate run records into results/summary/trajectory files."""
    try:
        summary = harness.report(results_dir, out_dir)
        for key, stats in summary.items():
            click.echo(f"{key}: mean={stats['mean']:.4f}")
    except Exception as e:
        _fail(e)


if __name__ == "__main__":
    main()
