"""Command-line entry points for runs, comparisons, ablations and the theorem check;
``--seed`` and ``--out`` edit the config document before it is read (``harness.load_config``).
The library checks every flag value, once; a bad one ends ``entry`` as ``error: <message>``, exit 2."""

from __future__ import annotations

import dataclasses
import sys

import click

from . import harness, theory
from .errors import ToolkitError


@click.group()
def main():
    """N:M sparsity training recipes under Adam, with switch detection tooling."""


@main.command("run")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seed", "seeds", multiple=True, type=int, help="Override config seeds.")
@click.option("--out", type=click.Path(), default=None, help="Override output directory.")
# perfbench/run.py is the only caller that still passes --jobs 1
@click.option("--jobs", type=click.IntRange(1, 1), default=1, hidden=True, expose_value=False)
def run_cmd(config_path, seeds, out):
    """Train every seed of a config and write trajectories plus a summary."""
    config = harness.load_config(config_path, seeds=seeds, output_dir=out)
    summary = harness.run(config)
    click.echo(f"seeds: {summary['seeds']}")
    click.echo(f"sparse eval loss: {summary['sparse_eval_loss_mean']:.6f} "
               f"+/- {summary['sparse_eval_loss_std']:.6f}")
    click.echo(f"dense eval loss:  {summary['dense_eval_loss_mean']:.6f} "
               f"+/- {summary['dense_eval_loss_std']:.6f}")
    click.echo(f"switched at: {summary['switched_at']}")
    click.echo(f"outputs in {config.output_dir}")


@main.command("compare-switch")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", type=click.Path(), default=None)
@click.option("--criteria", default=",".join(harness.COMPARISON_KINDS), show_default=True,
              help="Comma-separated criterion kinds to score.")
def compare_switch_cmd(config_path, out, criteria):
    """Profile dense runs and score switch criteria by later variance change."""
    config = harness.load_config(config_path, output_dir=out)
    kinds = [kind.strip() for kind in criteria.split(",") if kind.strip()]
    rows = harness.compare_switch(config, harness.default_comparison_criteria(config.total_steps, kinds))
    for row in rows:
        metric = "n/a" if row["avg_change_metric"] is None else f"{row['avg_change_metric']:.6e}"
        click.echo(f"seed={row['seed']} {row['criterion']:<28} t0={row['t0']} "
                   f"metric={metric} {row['note']}")


@main.command("ablate")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--kind", required=True, help=f"One of {', '.join(harness.ABLATION_KINDS)}.")
@click.option("--out", type=click.Path(), default=None)
def ablate_cmd(config_path, kind, out):
    """Run one ablation matrix over the config's seeds."""
    config = harness.load_config(config_path, output_dir=out)
    rows = harness.ablation(kind, config)
    for row in rows:
        click.echo(f"{row['cell']:<24} seed={row['seed']} "
                   f"sparse={row['sparse_eval_loss']:.6f} dense={row['dense_eval_loss']:.6f} "
                   f"switched_at={row['switched_at']}")


@main.command("validate-theorem")
@click.option("--stream", default="bernoulli", show_default=True,
              help=f"One of {', '.join(theory.STREAM_KINDS)}.")
@click.option("--g", "bound_g", type=float, default=1.0, show_default=True)
@click.option("--dim", type=int, default=1, show_default=True)
@click.option("--level", type=float, default=None, help="Constant stream value.")
@click.option("--p", type=float, default=None, help="Bernoulli keep probability (0.5 if unset).")
@click.option("--sigma", type=float, default=None, help="Pre-truncation scale of the squared Gaussian.")
@click.option("--beta2", type=float, default=0.999, show_default=True)
@click.option("--t0", type=int, default=2000, show_default=True)
@click.option("--t", type=int, default=12000, show_default=True)
@click.option("--delta", type=float, default=0.01, show_default=True)
@click.option("--trials", type=int, default=500, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def validate_theorem_cmd(stream, bound_g, dim, level, p, sigma, beta2, t0, t, delta,
                         trials, seed, out):
    """Monte Carlo check of the variance-drift concentration bound."""
    s = theory.StationaryStream(kind=stream, bound=bound_g, dim=dim, seed=seed,
                                level=level, p=p, sigma=sigma)
    if out is not None:
        harness.check_output_dir(out)
    report = theory.validate_theorem(s, beta2, t0, t, delta, trials)
    flat = dataclasses.asdict(report)
    for key, value in flat.items():
        click.echo(f"{key}: {value}")
    if out is not None:
        click.echo(f"report written to {harness.write_json(out, 'bound_report.json', flat)}")
    if not report.per_step_bound_ok:
        sys.exit(1)


def entry():
    try:
        main()
    except (ToolkitError, MemoryError) as exc:  # MemoryError: a config too large to allocate
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    entry()
