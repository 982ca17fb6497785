"""Command-line front end: train-float, retrain, sweep, report."""

from __future__ import annotations

import click

from . import harness, qat


class _Group(click.Group):
    """Reports an error a command raises as one `error: Type: message` line
    and exit status 1; click's own usage errors and exits pass through."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as e:
            click.echo(f"error: {type(e).__name__}: {e}", err=True)
            ctx.exit(1)


@click.group(cls=_Group)
def main():
    """Fixed-point weight quantization experiments."""


def _load(config_path, out_dir):
    """The config at `config_path`, and the output directory: `out_dir`, or
    the config's own."""
    cfg = harness.ExperimentConfig.from_file(config_path)
    return cfg, out_dir or cfg.output_dir


@main.command("train-float")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", default=0, type=int)
@click.option("--out", "out_dir", default=None, type=click.Path())
def train_float_cmd(config_path, seed, out_dir):
    """Train the floating-point baseline network."""
    cfg, out = _load(config_path, out_dir)
    _, record = harness.train_and_save_float(cfg, seed, out)
    click.echo(f"float test {record.metric_name}: {record.final_test_metric}")
    click.echo(f"checkpoint: {harness.float_checkpoint_path(out, seed)}")


@main.command("retrain")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--bits", default=2, type=int, help="the width retraining ends at")
@click.option("--schedule", default="adaptive",
              help=f"{qat.SCHEDULE_FORMS}; direct quantizes without retraining")
@click.option("--seed", default=0, type=int)
@click.option("--out", "out_dir", default=None, type=click.Path())
def retrain_cmd(config_path, bits, schedule, seed, out_dir):
    """Retrain one (bits, schedule) cell from the float checkpoint."""
    cfg, out = _load(config_path, out_dir)
    record = harness.run_cell(cfg, {"bits": bits, "schedule": schedule}, seed, out)
    click.echo(f"{schedule} {bits}-bit test {record.metric_name}: {record.final_test_metric}")


@main.command("sweep")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", default=None, type=click.Path())
def sweep_cmd(config_path, out_dir):
    """Run every configured (bits, schedule, seed) cell and report."""
    cfg, out = _load(config_path, out_dir)
    records = harness.sweep(cfg, out)
    harness.report(out)
    click.echo(f"{len(records)} runs completed; results in {out}")


@main.command("report")
@click.option("--results", "results_dir", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", default=None, type=click.Path())
def report_cmd(results_dir, out_dir):
    """Consolidate run records into results/summary/trajectory files."""
    summary = harness.report(results_dir, out_dir)
    for key, stats in summary.items():
        click.echo(f"{key}: mean={stats['mean']:.4f}")


if __name__ == "__main__":
    main()
