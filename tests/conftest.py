"""Shared test helpers: parameter buffers, step records, a reference accumulator and mid-run
snapshots of training."""

import dataclasses

import numpy as np
import pytest

from stepnm import models, optim
from stepnm.autoswitch import StepRecord
from stepnm.errors import RangeError


def buffer(**arrays) -> models.ParamBuffer:
    """A ParamBuffer holding copies of ``arrays``, laid out in keyword order."""
    out = models.ParamBuffer({name: np.shape(a) for name, a in arrays.items()})
    for name, a in arrays.items():
        out[name][...] = a
    return out


def copied(params: models.ParamBuffer) -> models.ParamBuffer:
    """A new ParamBuffer laid out as ``params``, holding a copy of its data."""
    out = models.ParamBuffer(params.shapes)
    out.flat[...] = params.flat
    return out


def step_record(step, z, z_geom, v_l1, v_l2) -> StepRecord:
    """A precondition-phase StepRecord carrying the statistics a detector reads."""
    return StepRecord(step=step, phase="precondition", loss=0.0, v_l1=v_l1, v_l2=v_l2,
                      z=z, z_geom=z_geom)


def simulate_vhat(stream, beta2, steps, seed=None):
    """Trajectory of the bias-corrected accumulator over one stream, shape (steps, dim).

    A plain per-step recursion from v_0 = 0: row t-1 holds v_t / (1 - beta2**t).
    The draws come from ``default_rng(seed)``, or from the stream's own seed.
    """
    if steps < 1:
        raise RangeError("steps must be >= 1")
    rng = np.random.default_rng(stream.seed if seed is None else seed)
    draws = stream.draw([rng], steps)[0]
    v = np.zeros(stream.dim)
    out = np.empty((steps, stream.dim))
    for t in range(1, steps + 1):
        v = beta2 * v + (1.0 - beta2) * draws[t - 1]
        out[t - 1] = v / (1.0 - beta2**t)
    return out


@pytest.fixture
def train_with_snapshots():
    """recipe_train that also returns {t: (params, state)} after each step t asked for.

    It steps an ``optim.Run`` as ``recipe_train`` does, under the same
    ``np.errstate``, and copies ``run.params`` and ``run.state`` after each
    step asked for: the run goes on writing its buffers in place.  At a
    frozen switch, the step's state already holds sqrt(v* + eps).
    """

    def train(steps, spec, dataset, hyper, plan, recipe, total_steps, seed):
        taken = {}
        with np.errstate(over="ignore", invalid="ignore"):
            run = optim.Run(spec, dataset, hyper, plan, recipe, seed)
            for t in range(1, total_steps + 1):
                run.step()
                if t in steps:
                    state = run.state
                    taken[t] = (copied(run.params),
                                dataclasses.replace(state, m=copied(state.m), v=copied(state.v)))
            return run.finish(), taken

    return train
