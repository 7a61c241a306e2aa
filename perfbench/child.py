"""Runs one `stepnm` CLI invocation for the benchmark and records what it cost.

    python3 child.py SRC_DIR REPORT_JSON MODE -- <stepnm arguments>

The stepnm package is imported from SRC_DIR and nowhere else.  The CLI's own
entry point runs the arguments; the hooks below only watch it:

* always, the first call of ``harness.recipe_train`` or
  ``theory.validate_theorem`` marks the end of set-up, and each training
  result is kept so its final weights and masks can be checked;
* in MODE traced, every public function a training step or the theorem
  validator goes through is timed, rebound at the attribute its caller looks
  it up through (``optim`` imports ``compute_nm_mask`` and ``make_detector``
  by name; ``models`` functions are reached through the module);
* in MODE alloc, ``tracemalloc`` follows ``theory.validate_theorem`` for its
  peak allocation.  It nearly doubles the validator's time, so it runs in an
  invocation of its own, with no timers.

When the CLI has returned, REPORT_JSON gets the timings and, next to it,
``final_seed<k>.npz`` holds each trained seed's final weights, final masks
and dataset.  The process exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

perf_counter = time.perf_counter


def _patch(owner, name, make):
    """Replace owner.name by make(original), keeping the original's signature."""
    original = getattr(owner, name)
    setattr(owner, name, functools.update_wrapper(make(original), original))


def _binder(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _arg(args, kwargs, index, name):
    """A call's argument by position or keyword, cheaper than binding."""
    return args[index] if len(args) > index else kwargs[name]


class Probe:
    """Marks the end of set-up and keeps each training run's result.

    It wraps the two outer calls, ``harness.recipe_train`` and
    ``theory.validate_theorem``, once for every mode, and hands them to the
    tracer when there is one.
    """

    def __init__(self, alloc: bool, tracer=None):
        self.alloc = alloc
        self.tracer = tracer
        self.peak_alloc = None
        self.first_work_wall = None
        self.first_work_cpu = None
        self.first_work_usage = None
        self.runs = []  # (bound arguments, TrainResult)

    def _mark(self):
        if self.first_work_wall is None:
            self.first_work_wall = time.monotonic()
            self.first_work_cpu = time.process_time()
            self.first_work_usage = resource.getrusage(resource.RUSAGE_SELF)

    def install(self, harness, theory):
        tracer = self.tracer

        def run_hook(orig):
            bind = _binder(orig)

            def recipe_train(*args, **kwargs):
                self._mark()
                arguments = bind(args, kwargs)
                if tracer is None:
                    result = orig(*args, **kwargs)
                else:
                    result = tracer.run(orig, args, kwargs, int(arguments["total_steps"]))
                self.runs.append((arguments, result))
                return result
            return recipe_train

        def theorem_hook(orig):
            bind = _binder(orig)

            def validate_theorem(*args, **kwargs):
                self._mark()
                if tracer is not None:
                    arguments = bind(args, kwargs)
                    return tracer.validate(orig, args, kwargs,
                                           int(arguments["trials"]) * int(arguments["t"]))
                if not self.alloc:
                    return orig(*args, **kwargs)
                tracemalloc.start()
                try:
                    return orig(*args, **kwargs)
                finally:
                    self.peak_alloc = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            return validate_theorem

        _patch(harness, "recipe_train", run_hook)
        _patch(theory, "validate_theorem", theorem_hook)

    def dump(self, out_dir: Path):
        import numpy as np  # not at the top, so that cli.import_ms includes numpy

        for arguments, result in self.runs:
            dataset = arguments["dataset"]
            arrays = {"inputs": dataset.inputs, "targets": dataset.targets}
            arrays.update({f"param:{k}": v for k, v in result.params.items()})
            arrays.update({f"mask:{k}": v for k, v in result.final_masks.items()})
            np.savez(out_dir / f"final_seed{arguments['seed']}.npz", **arrays)


def _mlp_matmul_flops(spec, batch) -> float:
    """Matmul FLOPs one loss-and-gradient pass cannot avoid.

    Forward and weight gradient for every layer, plus the input gradient of
    every layer but the first (nothing reads the batch's gradient).
    """
    sizes = spec.layer_sizes
    rows = len(batch[0])
    products = [sizes[i - 1] * sizes[i] for i in range(1, len(sizes))]
    return 2.0 * rows * (2 * sum(products) + sum(products[1:]))


class Tracer:
    """Per-layer timers for one CLI invocation.

    A training step opens when ``recipe_train`` draws its batch and closes at
    the next draw, or, after the last step, at the first final-mask or
    evaluation call.  Its self time is its length minus the time spent in
    models, masks and autoswitch calls inside it; the rest is optim's own
    work (Adam update, variance statistics, gradient checks, records).
    """

    IN_STEP = ("models.batch", "models.loss_and_grad", "masks.compute_nm_mask",
               "autoswitch.observe")

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.flops = 0.0
        self.mask_weights = 0
        self.records = 0
        self.trial_steps = 0
        self.self_seconds = {"precondition": 0.0, "mask_learning": 0.0}
        self.phase_steps = {"precondition": 0, "mask_learning": 0}
        self._begin_run(0)

    def _begin_run(self, total_steps):
        self._total = total_steps
        self._step = 0
        self._open = False
        self._start = 0.0
        self._inside = 0.0
        self._grad_seen = False
        self._switched_at = None

    def run(self, call, args, kwargs, total_steps):
        """Call ``recipe_train`` through ``call`` with its steps timed."""
        self._begin_run(total_steps)
        try:
            return call(*args, **kwargs)
        finally:
            self._close_step(perf_counter())

    def validate(self, call, args, kwargs, trial_steps):
        """Call ``validate_theorem`` through ``call``, timing it as a whole."""
        self.trial_steps += trial_steps
        start = perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            self._add("theory.validate_theorem", perf_counter() - start)

    def _close_step(self, now):
        if not self._open:
            return
        self._open = False
        switched = self._switched_at is not None and self._step > self._switched_at
        phase = "mask_learning" if switched else "precondition"
        self.self_seconds[phase] += (now - self._start) - self._inside
        self.phase_steps[phase] += 1

    def _add(self, key, seconds):
        self.seconds[key] += seconds
        self.calls[key] += 1
        if self._open and key in self.IN_STEP:
            self._inside += seconds

    def _timed(self, key, before=None):
        def make(orig):
            def timed(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                start = perf_counter()
                try:
                    return orig(*args, **kwargs)
                finally:
                    self._add(key, perf_counter() - start)
            return timed
        return make

    def install(self, models, optim, harness, theory):
        """Time the inner layers; ``Probe`` hands over the two outer calls."""

        def batches_hook(orig):
            def batch_iterator(*args, **kwargs):
                inner = orig(*args, **kwargs)

                def timed_batches():
                    while True:
                        start = perf_counter()
                        self._close_step(start)
                        self._step += 1
                        self._open, self._start, self._inside = True, start, 0.0
                        self._grad_seen = False
                        try:
                            batch = next(inner)
                        except StopIteration:
                            return
                        self._add("models.batch", perf_counter() - start)
                        yield batch
                return timed_batches()
            return batch_iterator

        def ends_loop(args, kwargs):
            # after the last step's gradient, a mask or evaluation call is
            # the final-mask and evaluation code after the training loop
            if self._step == self._total and self._grad_seen:
                self._close_step(perf_counter())

        def loss_hook(orig):
            timed = self._timed("models.loss_and_grad")(orig)

            def loss_and_grad(*args, **kwargs):
                self.flops += _mlp_matmul_flops(_arg(args, kwargs, 0, "spec"),
                                                _arg(args, kwargs, 2, "batch"))
                try:
                    return timed(*args, **kwargs)
                finally:
                    self._grad_seen = True
            return loss_and_grad

        def mask_before(args, kwargs):
            ends_loop(args, kwargs)
            weights = _arg(args, kwargs, 0, "weights")
            self.mask_weights += int(getattr(weights, "size", 0))

        def detector_hook(orig):
            tracer = self

            class TimedDetector:
                def __init__(self, inner):
                    self._inner = inner

                def observe(self, stats):
                    start = perf_counter()
                    fired = self._inner.observe(stats)
                    tracer._add("autoswitch.observe", perf_counter() - start)
                    if fired and tracer._switched_at is None:
                        tracer._switched_at = tracer._step
                    return fired

                def __getattr__(self, name):
                    return getattr(self._inner, name)

            def make_detector(*args, **kwargs):
                return TimedDetector(orig(*args, **kwargs))
            return make_detector

        def trajectory_before(args, kwargs):
            result = _arg(args, kwargs, 1, "result")
            self.records += len(result.records)

        _patch(models, "batch_iterator", batches_hook)
        _patch(models, "loss_and_grad", loss_hook)
        _patch(models, "forward_loss", self._timed("models.forward_loss", ends_loop))
        _patch(optim, "compute_nm_mask", self._timed("masks.compute_nm_mask", mask_before))
        _patch(optim, "adam_step", self._timed("optim.adam_step"))
        _patch(optim, "make_detector", detector_hook)
        _patch(harness, "write_trajectory",
               self._timed("harness.write_trajectory", trajectory_before))
        _patch(harness, "load_config", self._timed("harness.load_config"))
        _patch(harness.DataConfig, "build", self._timed("harness.dataset_build"))
        _patch(theory.StationaryStream, "draw", self._timed("theory.draw"))

    def metrics(self, import_ms: float) -> dict:
        """Per-layer figures of this invocation; 0 for a layer that did not run."""
        s, n = self.seconds, self.calls

        def per(numerator, denominator, scale=1.0):
            return numerator * scale / denominator if denominator else 0.0

        validate_s = s["theory.validate_theorem"]
        return {
            "models.loss_and_grad.calls": n["models.loss_and_grad"],
            "models.loss_and_grad.us_per_call": per(s["models.loss_and_grad"], n["models.loss_and_grad"], 1e6),
            "models.loss_and_grad.gflops": per(self.flops, s["models.loss_and_grad"], 1e-9),
            "models.batch.us_per_call": per(s["models.batch"], n["models.batch"], 1e6),
            "models.forward_loss.us_per_call": per(s["models.forward_loss"], n["models.forward_loss"], 1e6),
            "masks.compute_nm_mask.calls": n["masks.compute_nm_mask"],
            "masks.compute_nm_mask.ns_per_weight": per(s["masks.compute_nm_mask"], self.mask_weights, 1e9),
            "optim.self_us_per_step.precondition": per(
                self.self_seconds["precondition"], self.phase_steps["precondition"], 1e6),
            "optim.self_us_per_step.mask_learning": per(
                self.self_seconds["mask_learning"], self.phase_steps["mask_learning"], 1e6),
            "optim.adam_step.us_per_call": per(s["optim.adam_step"], n["optim.adam_step"], 1e6),
            "autoswitch.observe.calls": n["autoswitch.observe"],
            "autoswitch.observe.us_per_call": per(s["autoswitch.observe"], n["autoswitch.observe"], 1e6),
            "harness.write_trajectory.ms_per_kstep": per(s["harness.write_trajectory"], self.records, 1e6),
            "harness.load_config.ms": s["harness.load_config"] * 1e3,
            "harness.dataset_build.ms": per(s["harness.dataset_build"], n["harness.dataset_build"], 1e3),
            "cli.import_ms": import_ms,
            "theory.draw.ms": per(s["theory.draw"], n["theory.validate_theorem"], 1e3),
            "theory.validate_self.ms": per(validate_s - s["theory.draw"], n["theory.validate_theorem"], 1e3),
            "theory.ns_per_trial_step": per(validate_s, self.trial_steps, 1e9),
        }


def main(argv) -> int:
    if len(argv) < 4 or argv[3] != "--":
        sys.stderr.write(__doc__)
        return 2
    src, report_path, mode = Path(argv[0]).resolve(), Path(argv[1]), argv[2]
    if mode not in ("plain", "traced", "alloc"):
        sys.stderr.write(f"unknown mode {mode!r}\n")
        return 2
    sys.path[0] = str(src)

    start = perf_counter()
    from stepnm import cli
    import_ms = (perf_counter() - start) * 1e3
    from stepnm import harness, models, optim, theory

    if src not in Path(cli.__file__).resolve().parents:
        sys.stderr.write(f"stepnm was imported from {cli.__file__}, not from {src}\n")
        return 2

    tracer = Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install(models, optim, harness, theory)
    probe = Probe(alloc=mode == "alloc", tracer=tracer)
    probe.install(harness, theory)

    sys.argv = ["stepnm", *argv[4:]]
    try:
        cli.entry()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    end_cpu = time.process_time()
    end_wall = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    first = probe.first_work_usage

    report = {
        "import_ms": import_ms,
        "first_work_wall": probe.first_work_wall,
        # the process's CPU time from its start, through exec, to the first work
        "setup_cpu_s": probe.first_work_cpu,
        "work_cpu_s": None if probe.first_work_cpu is None else end_cpu - probe.first_work_cpu,
        "work_wall_s": None if probe.first_work_wall is None else end_wall - probe.first_work_wall,
        "work_sys_s": None if first is None else usage.ru_stime - first.ru_stime,
        "work_page_faults": None if first is None else usage.ru_minflt - first.ru_minflt,
        "peak_rss_kb": usage.ru_maxrss,
        "peak_alloc_mb": None if probe.peak_alloc is None else probe.peak_alloc / 2**20,
        "per_layer": tracer.metrics(import_ms) if tracer is not None else None,
    }
    if code == 0:
        probe.dump(report_path.parent)
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
