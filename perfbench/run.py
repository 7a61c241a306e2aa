"""Benchmark of stepnm's CLI workloads: throughput, memory and set-up time.

    python3 perfbench/run.py --workload demo|wide|theorem --seed N --seconds S --trace 0|1

Each round runs one `stepnm` CLI invocation in a fresh process (through
child.py) on inputs made from --seed, then checks its outputs against the
independent references in reference.py.  Rounds repeat until S seconds have
passed and every figure is the median over the rounds.

--trace 0 prints the end-to-end metrics.  --trace 1 runs untraced and traced
rounds in alternating pairs on the same inputs, requires their outputs to be
byte-identical, and prints the per-layer metrics with the tracing overhead.
The last line of standard output is one JSON object; the exit code is 0 only
if every round ran and passed its checks.  Each run's samples go to
perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import yaml

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 100
LOSS_RTOL = 1e-9
BOUND_RTOL = 1e-12

with open(ROOT / "BENCHMARK.json") as _fh:
    _SPEC = json.load(_fh)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
SETUP_BOUND = next(m["bound"] for m in _SPEC["end_to_end"] if m["name"] == "setup_s")

# One BLAS thread: a second one adds CPU time and no speed on these sizes.
# A fixed hash seed keeps dict and set layouts the same from run to run.
# numpy asks for transparent huge pages on arrays of 4 MB and more; whether
# the kernel finds one depends on what earlier processes left fragmented, and
# that moved theorem's CPU time by 15% from one invocation to the next.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def derived_seed(seed: int) -> int:
    return int(np.random.default_rng(seed).integers(0, 2**31 - 1))


class Training:
    """`stepnm run` on a generated config; one round trains every seed of it."""

    ALLOC = False

    def __init__(self, config: dict, work: Path):
        self.config = config
        self.steps = config["total_steps"] * len(config["seeds"])
        self.path = work / "config.yaml"
        # YAML 1.1 reads JSON's 1e-08 as a string, so the config is YAML
        self.path.write_text(yaml.safe_dump(config, sort_keys=False))

    def cli_args(self, out: Path) -> list[str]:
        return ["run", "--config", str(self.path), "--out", str(out), "--jobs", "1"]

    def outputs(self, out: Path) -> list[Path]:
        return [out / f"trajectory_seed{s}.jsonl" for s in self.config["seeds"]]

    def check(self, out: Path) -> None:
        cfg = self.config
        total = cfg["total_steps"]
        sizes = cfg["model"]["layer_sizes"]
        plan = {name: (r["n"], r["m"]) for name, r in cfg["sparsity"].items()}
        for seed in cfg["seeds"]:
            where = f"seed {seed}"
            with open(out / f"trajectory_seed{seed}.jsonl") as fh:
                records = [json.loads(line) for line in fh]
            steps, final = records[:-1], records[-1]
            require(len(steps) == total and all(r["kind"] == "step" for r in steps),
                    f"{where}: expected {total} step records")
            require([r["step"] for r in steps] == list(range(1, total + 1)),
                    f"{where}: step records out of order")
            require(final["kind"] == "final", f"{where}: no final record")
            require(all(math.isfinite(r["loss"]) for r in steps), f"{where}: non-finite loss")
            switched = final["switched_at"]
            require(switched is not None and self.switch_ok(switched),
                    f"{where}: switched_at={switched} outside the configured switch")
            require(steps[switched - 1]["switched_at"] == switched,
                    f"{where}: step {switched} does not record the switch")
            require(all(r["phase"] == ("mask_learning" if r["step"] > switched else "precondition")
                        for r in steps), f"{where}: phases disagree with switched_at")
            require(set(final["mask_sparsity"]) == set(plan), f"{where}: masked layers differ")

            with np.load(out / f"final_seed{seed}.npz") as npz:
                arrays = dict(npz)
            layers = []
            for i in range(1, len(sizes)):
                name = f"fc{i}.weight"
                weight = arrays[f"param:{name}"]
                require(weight.shape == (sizes[i], sizes[i - 1]), f"{where}: {name} shape")
                if name in plan:
                    n, m = plan[name]
                    mask = reference.nm_mask(weight, n, m)
                    require(np.array_equal(arrays[f"mask:{name}"], mask),
                            f"{where}: {name} mask differs from the N:M reference")
                    sparsity = np.count_nonzero(mask == 0.0) / mask.size
                    require(sparsity == 1 - n / m and final["mask_sparsity"][name] == 1 - n / m,
                            f"{where}: {name} sparsity is not 1 - {n}/{m}")
                    weight = weight * mask
                layers.append((weight, arrays[f"param:fc{i}.bias"]))
            loss = reference.mlp_loss(layers, arrays["inputs"], arrays["targets"])
            err = reference.rel_error(loss, final["sparse_eval_loss"])
            require(err <= LOSS_RTOL, f"{where}: sparse_eval_loss off the reference by {err:.2e}")

    def switch_ok(self, step: int) -> bool:
        switch, total = self.config["switch"], self.config["total_steps"]
        if switch["kind"] == "fixed":
            return step == switch["step"]
        clip = switch["clip"]
        t_min = math.floor(clip["t_min_ratio"] * total)
        t_max = math.floor(clip["t_max_ratio"] * total)
        return t_min < step <= t_max


class Theorem:
    """`stepnm validate-theorem`; one round is one Monte Carlo validation."""

    G, BETA2, T0, T, DELTA, TRIALS, DIM = 1.0, 0.999, 2000, 12000, 0.01, 500, 4
    ALLOC = True  # theory.peak_alloc_mb comes from this workload alone

    def __init__(self, seed: int):
        self.stream_seed = derived_seed(seed)
        self.steps = self.TRIALS * self.T

    def cli_args(self, out: Path) -> list[str]:
        return ["validate-theorem", "--stream", "bernoulli", "--g", str(self.G),
                "--beta2", str(self.BETA2), "--t0", str(self.T0), "--t", str(self.T),
                "--delta", str(self.DELTA), "--trials", str(self.TRIALS),
                "--dim", str(self.DIM), "--seed", str(self.stream_seed), "--out", str(out)]

    def outputs(self, out: Path) -> list[Path]:
        return [out / "bound_report.json"]

    def check(self, out: Path) -> None:
        with open(out / "bound_report.json") as fh:
            rep = json.load(fh)
        require((rep["trials"], rep["t0"], rep["t"]) == (self.TRIALS, self.T0, self.T),
                "report is for another run")
        require(rep["violations"] / self.TRIALS == rep["violation_rate"], "violation rate")
        require(rep["violation_rate"] <= self.DELTA,
                f"violation rate {rep['violation_rate']} above delta {self.DELTA}")
        require(rep["per_step_bound_ok"] is True, "per_step_bound_ok is false")
        step_bound = reference.per_step_bound(self.G, self.BETA2)
        require(rep["max_per_step_deviation"] <= step_bound,
                f"per-step deviation {rep['max_per_step_deviation']} above {step_bound}")
        bound = reference.drift_bound(self.G, self.BETA2, self.T, self.T0, self.DELTA)
        require(reference.rel_error(rep["bound_value"], bound) <= BOUND_RTOL,
                f"bound_value {rep['bound_value']} is not the closed form {bound}")


def make_workload(name: str, seed: int, work: Path):
    """The workload's inputs; all of them follow from the seed."""
    if name == "theorem":
        return Theorem(seed)
    # The data stay fixed and --seed draws the training seed (initial weights
    # and batch order): on easier data the eval loss falls toward 1e-10,
    # where rounding alone moves it by more than the 1e-9 check allows.
    # One seed per invocation gives more, shorter rounds to take medians over.
    seeds = [derived_seed(seed)]
    if name == "demo":
        # configs/demo.yaml
        return Training({
            "model": {"kind": "mlp_classifier", "layer_sizes": [2, 16, 2], "activation": "relu"},
            "data": {"kind": "blobs", "n_samples": 256, "n_features": 2, "n_classes": 2,
                     "noise_std": 0.6, "seed": 0, "batch_size": 32},
            "optimizer": {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "lr": 0.005,
                          "lr_schedule": "constant"},
            "sparsity": {"fc2.weight": {"n": 1, "m": 4}},
            "recipe": {"kind": "step"},
            "switch": {"kind": "autoswitch", "option": "arithmetic",
                       "clip": {"t_min_ratio": 0.1, "t_max_ratio": 0.5}},
            "total_steps": 2000,
            "seeds": seeds,
        }, work)
    if name == "wide":
        return Training({
            "model": {"kind": "mlp_classifier", "layer_sizes": [256, 1024, 1024, 10],
                      "activation": "relu"},
            "data": {"kind": "blobs", "n_samples": 1024, "n_features": 256, "n_classes": 10,
                     "noise_std": 10.0, "seed": 0, "batch_size": 128},
            "optimizer": {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "lr": 1e-4,
                          "lr_schedule": "constant"},
            "sparsity": {f"fc{i}.weight": {"n": 2, "m": 4} for i in (1, 2, 3)},
            "recipe": {"kind": "step"},
            "switch": {"kind": "fixed", "step": 4},
            "total_steps": 20,
            "seeds": seeds,
        }, work)
    raise ValueError(f"unknown workload {name!r}")


def invoke(work: Path, tag: str, cli_args, mode: str) -> dict:
    """Run one CLI invocation in a fresh process; return its report."""
    out = work / tag
    out.mkdir()
    report_path = out / "report.json"
    argv = [sys.executable, str(HERE / "child.py"), str(ROOT / "src"), str(report_path),
            mode, "--", *cli_args(out)]
    env = {**os.environ, **CHILD_ENV, "PYTHONPATH": str(ROOT / "src")}
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"stepnm {' '.join(argv[6:])} ran past {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not report_path.exists():
        raise CheckFailed(f"stepnm {' '.join(argv[6:])} exited with {proc.returncode}:\n"
                          f"{proc.stdout[-1500:]}{proc.stderr[-1500:]}")
    with open(report_path) as fh:
        report = json.load(fh)
    report["out"] = out
    report["mode"] = mode
    if report["first_work_wall"] is not None:
        report["setup_wall_s"] = report["first_work_wall"] - started
        report["setup_s"] = report["setup_cpu_s"]
    return report


def measure(workload, work: Path, trace: bool, seconds: float, counts: dict, log) -> dict:
    """Run rounds until `seconds` have passed; return the metrics and all samples."""
    # compiles the byte code and fills the file cache, so round 0 is like the rest
    invoke(work, "warmup", lambda out: ["--help"], "plain")

    def run(tag, mode):
        counts["attempted"] += 1
        return invoke(work, tag, workload.cli_args, mode)

    def finish(report, what):
        out = report.pop("out")
        workload.check(out)
        shutil.rmtree(out)
        report["steps_per_cpu_s"] = workload.steps / report["work_cpu_s"]
        report["peak_rss_mb"] = report["peak_rss_kb"] / 1024.0
        log(f"{what}: {report['steps_per_cpu_s']:.6g} steps/cpu-s, "
            f"setup {report['setup_s']:.3f} s, peak rss {report['peak_rss_mb']:.1f} MB")

    def same_outputs(a, b):
        for x, y in zip(workload.outputs(a["out"]), workload.outputs(b["out"])):
            require(x.read_bytes() == y.read_bytes(),
                    f"{y.name} differs between {a['mode']} and {b['mode']} invocations")

    deadline = time.monotonic() + seconds
    plain, traced, alloc = [], [], None
    while not plain or time.monotonic() < deadline:
        i = len(plain)
        if not trace:
            plain.append(run("plain", "plain"))
            finish(plain[-1], f"round {i}")
            continue
        # a traced round pairs with a plain one on the same inputs; the side
        # that runs first alternates, so drift favours neither
        modes = ("plain", "traced") if i % 2 == 0 else ("traced", "plain")
        if i == 0 and workload.ALLOC:
            modes += ("alloc",)
        pair = {mode: run(mode, mode) for mode in modes}
        for mode in modes[1:]:
            same_outputs(pair[modes[0]], pair[mode])
        for mode in modes:
            finish(pair[mode], f"round {i} {mode}")
        plain.append(pair["plain"])
        traced.append(pair["traced"])
        alloc = pair.get("alloc", alloc)

    med = lambda rs, key: statistics.median(r[key] for r in rs)
    # No input touches set-up, so set-up time that moves within a run means
    # the machine changed speed under it; such a run is not comparable.
    third = max(len(plain) // 3, 1)
    drift = med(plain[-third:], "setup_s") / med(plain[:third], "setup_s") - 1.0
    if abs(drift) > SETUP_BOUND:
        log(f"perfbench: unsteady machine: set-up CPU time moved by {100 * drift:+.1f}% "
            "within the run")
    if not trace:
        metrics = {name: (med(plain, name), unit) for name, unit in END_TO_END_UNITS.items()}
        return {"metrics": metrics, "plain": plain, "setup_drift": drift}

    metrics = {name: (statistics.median(r["per_layer"][name] for r in traced), unit)
               for name, unit in PER_LAYER_UNITS.items()
               if name not in ("theory.peak_alloc_mb", "trace.overhead_pct")}
    metrics["theory.peak_alloc_mb"] = (alloc["peak_alloc_mb"] if alloc else 0.0, "MB")
    overhead = med(traced, "work_cpu_s") / med(plain, "work_cpu_s") - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    return {"metrics": metrics, "plain": plain, "traced": traced, "alloc": alloc,
            "setup_drift": drift}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("demo", "wide", "theorem"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    log = lambda msg: print(msg, file=sys.stderr, flush=True)

    if not (ROOT / "src" / "stepnm" / "cli.py").is_file():
        log(f"perfbench: no stepnm sources under {ROOT / 'src'}")
        return 2
    if args.seed < 0:
        log("perfbench: --seed must be >= 0")
        return 2

    out_root = HERE / "out"
    out_root.mkdir(exist_ok=True)
    # the same path lengths in every run, so argv and environment sizes
    # do not shift the child's stack from one run to the next
    work = Path(tempfile.mkdtemp(prefix="run-", dir=out_root))
    counts = {"attempted": 0}
    try:
        workload = make_workload(args.workload, args.seed, work)
        result = measure(workload, work, bool(args.trace), args.seconds, counts, log)
    except CheckFailed as exc:
        log(f"perfbench: check failed: {exc}")
        print(json.dumps({"correct": False, "attempted": max(counts["attempted"], 1),
                          "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kind = "trace" if args.trace else "result"
    with open(out_root / f"{kind}-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    metrics = result["metrics"]
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": True, "attempted": counts["attempted"], "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
