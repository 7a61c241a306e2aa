"""Mutation audit of the boundary conventions: every one-line mutant must fail Tier-1.

Run it by hand from anywhere; it takes about seventeen minutes on two cores:

    python tests/mutants.py           # every mutant
    python tests/mutants.py S3 K1     # only the named ones

pytest does not collect this file, since its name does not start with
``test_``.  The script copies ``src/``, ``tests/``, ``configs/`` and
``pyproject.toml`` into a temporary directory and mutates only that copy.
It first runs Tier-1 on the unmutated copy, which must pass.  Then each
mutant replaces one fragment of one source line (the fragment must occur
exactly once in its file) and Tier-1 runs on the copy with ``-x``; a failing
run kills the mutant, and the first failing test is printed beside it.
A mutant listed in ``SURVIVES_BY_DESIGN`` must pass, for the reason given
there.  The exit status is 1 if any other mutant survives, a by-design
survivor is killed, or a fragment no longer matches its file.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# name: (file under src/stepnm, fragment, replacement, what the mutant changes).  K9, K10
# and R4 mutated the cosine learning-rate schedule, which is gone with its code.
MUTANTS = {
    "K1": ("autoswitch.py", "record.step >= t_max or", "record.step > t_max or",
           "the clip fires only after T_max"),
    "K2": ("autoswitch.py", "(below and record.step > t_min)", "(below and record.step >= t_min)",
           "the eps path may fire at T_min"),
    "K3": ("autoswitch.py", "(1.0 - beta2) + 1e-9))", "(1.0 - beta2)))",
           "mixing_window loses its nudge"),
    "K4": ("autoswitch.py", "deque(maxlen=mixing_window(beta2) + 1)",
           "deque(maxlen=mixing_window(beta2))", "staleness lags one step less"),
    "K5": ("autoswitch.py", "abs(record.v_l2 - prev) / prev < self.threshold",
           "abs(record.v_l2 - prev) / prev <= self.threshold", "relative fires at its threshold"),
    "K6": ("autoswitch.py", "l1_diffs_by_step[t0 + 1 : t0 + 1002]",
           "l1_diffs_by_step[t0 : t0 + 1002]", "the metric window starts at t0"),
    "K7": ("autoswitch.py", "l1_diffs_by_step[t0 + 1 : t0 + 1002]",
           "l1_diffs_by_step[t0 + 1 : t0 + 1001]", "the metric window ends a step early"),
    "K8": ("masks.py", "sum(step >= b for b", "sum(step > b for b",
           "a decay stage starts a step after its boundary"),
    "K11": ("theory.py", "return math.log(0.5) / math.log(beta2)",
            "return math.log(0.25) / math.log(beta2)", "proof_min_t0 doubles"),
    "K12": ("optim.py", "record.z_bar = detector.last_mean",
            "record.z_bar = None if fired else detector.last_mean",
            "the firing step loses its z_bar"),
    "S1": ("autoswitch.py", "self.last_mean < self.eps", "self.last_mean <= self.eps",
           "the autoswitch fires at a mean of exactly eps"),
    "S2": ("autoswitch.py", "record.v_l1 / lagged > self.threshold",
           "record.v_l1 / lagged >= self.threshold", "staleness fires at its threshold"),
    "S3": ("harness.py", "return max(1, int(math.floor(ratio * total_steps)))",
           "return max(1, int(math.ceil(ratio * total_steps)))", "a ratio's step rounds up"),
    "S4": ("harness.py",
           "return int(math.floor(lo * total_steps)), int(math.floor(hi * total_steps))",
           "return int(round(lo * total_steps)), int(round(hi * total_steps))",
           "clip steps round to nearest"),
    "S5": ("harness.py", '"sparse_eval_loss_std": statistics.pstdev(sparse),',
           '"sparse_eval_loss_std": statistics.stdev(sparse) if len(sparse) > 1 else 0.0,',
           "the summary takes the sample std"),
    "S6": ("harness.py", "[r.z * d for r in records]", "[r.z * (d - 1) for r in records]",
           "compare_switch scales the mean change by d - 1"),
    "S7": ("optim.py", "final_ratios = plan_at(self.plan, self.recipe.decay, total_steps)",
           "final_ratios = plan_at(self.plan, self.recipe.decay, total_steps - 1)",
           "the final masks read the plan a step early"),
    "S8": ("theory.py", "np.count_nonzero(per_trial_max >= bound)",
           "np.count_nonzero(per_trial_max > bound)", "a drift equal to the bound is no violation"),
    "S9": ("theory.py", "PER_STEP_SLACK = 1e-12", "PER_STEP_SLACK = 1e-3",
           "the per-step check forgives 1e-3"),
    "S10": ("theory.py", "if t0 <= statement_min:", "if t0 < statement_min - 1:",
            "validate_theorem takes a t0 one step too small"),
    "C1": ("errors.py", "if not isinstance(kind, str) or kind not in reads:",
           "if kind not in reads:", "an unhashable kind raises TypeError, not ConfigError"),
    "C2": ("errors.py", "unread = set(given) - set(reads[kind])",
           "unread = set(given) - set().union(*reads.values())",
           "a kind reads every key that any kind of its section reads"),
    "C3": ("errors.py",
           "sorted(keys, key=lambda key: shown(key) if isinstance(key, int) else str(key))",
           "sorted(keys)", "listed keys of mixed types cannot be sorted"),
    "D1": ("models.py", "if self.n_classes < 2:", "if self.n_classes < 1:",
           "blobs may have a single class"),
    "R1": ("optim.py", "if not 0.0 <= self.beta2 < 1.0:", "if not 0.0 < self.beta2 < 1.0:",
           "Adam refuses a beta2 of 0"),
    "R2": ("optim.py", "if not 0.0 <= self.beta2 < 1.0:", "if not 0.0 <= self.beta2 <= 1.0:",
           "Adam takes a beta2 of 1"),
    "R3": ("optim.py", "if not 0.0 <= self.beta1 < 1.0:", "if not 0.0 < self.beta1 < 1.0:",
           "Adam refuses a beta1 of 0"),
    "R5": ("theory.py", "if not 0.0 < beta2 < 1.0:", "if not 0.0 <= beta2 < 1.0:",
           "the theorem takes a beta2 of 0"),
    "R6": ("theory.py", "if not 0.0 < beta2 < 1.0:", "if not 0.0 < beta2 <= 1.0:",
           "the theorem takes a beta2 of 1"),
    "R7": ("theory.py", "if not 0.0 < delta <= 2.0:", "if not 0.0 <= delta <= 2.0:",
           "azuma_bound takes a delta of 0"),
    "R8": ("theory.py", "not 0.0 <= self.level <= self.bound", "not 0.0 < self.level <= self.bound",
           "a constant stream refuses the level 0"),
    "R9": ("theory.py", "not 0.0 <= self.level <= self.bound", "not 0.0 <= self.level < self.bound",
           "a constant stream refuses the level G"),
    "R10": ("theory.py", "not 0.0 <= self.p <= 1.0", "not 0.0 < self.p <= 1.0",
            "a bernoulli stream refuses p = 0"),
    "R11": ("theory.py", "not 0.0 <= self.p <= 1.0", "not 0.0 <= self.p < 1.0",
            "a bernoulli stream refuses p = 1"),
    "R12": ("theory.py", "not 0.0 < self.sigma < math.inf", "not 0.0 <= self.sigma < math.inf",
            "a squared Gaussian takes a sigma of 0"),
    "R13": ("theory.py", "per_step_bound_ok=max_step_dev <= step_bound + PER_STEP_SLACK",
            "per_step_bound_ok=max_step_dev < step_bound + PER_STEP_SLACK",
            "a move equal to the per-step bound plus its slack fails"),
    "R14": ("autoswitch.py", "if not 0 <= t_min < t_max:", "if not 0 <= t_min <= t_max:",
            "a clip may have T_min = T_max"),
    "R15": ("autoswitch.py", "if t0 < 0:", "if t0 <= 0:", "the metric refuses a switch at step 0"),
    "R16": ("autoswitch.py", "if len(l1_diffs_by_step) <= t0 + 1001:",
            "if len(l1_diffs_by_step) < t0 + 1001:",
            "a profile one step short is scored on a 1000-step window"),
    "R17": ("harness.py", "if total_steps < 1:", "if total_steps <= 1:",
            "a budget of one step is refused"),
    "R18": ("models.py", "if self.n_samples < 1:", "if self.n_samples <= 1:",
            "a dataset of one sample is refused"),
    "B1": ("harness.py", "    if output_dir is not None:\n        doc[",
           "    if output_dir:\n        doc[",
           "an empty --out is ignored, and the document's output_dir is used"),
    "B2": ("errors.py", "key=lambda key: shown(key) if isinstance(key, int) else str(key)",
           "key=str",
           "an int key too long to print fails the listing with a bare ValueError"),
    "B3": ("harness.py", "if not str(path):", "if False:",
           "validate-theorem --out '' writes no report and exits 0"),
    "B4": ("harness.py", "config.total_steps < 1002", "config.total_steps < 1001",
           "compare-switch trains a 1001-step profile that no switch can be scored on"),
    "T1": ("optim.py", '"step": (False, "frozen")', '"step": (False, "raw")',
           "step's switch keeps a raw running v instead of freezing it"),
    "T2": ("optim.py", '"ste": (True, None)', '"ste": (False, None)',
           "ste trains dense instead of masking from step 1"),
    "T3": ("optim.py", 'if state.mode == "corrected" else 1.0', 'if state.mode != "corrected" else 1.0',
           "the corrected and raw denominators trade places"),
    "T4": ("optim.py", "if RECIPE_KINDS[self.kind][1] is not None and self.switch is None:",
           'if self.kind == "step" and self.switch is None:',
           "step_updated_variance is built without its switch"),
    "T5": ("optim.py", 'if state.mode not in ("corrected", "raw", "frozen"):', "if False:",
           "adam_step runs an unknown mode as raw"),
    "F1": ("harness.py", '    check_kind("ablation", kind, ABLATION_KINDS)', "    pass",
           "ablation runs an unknown kind as decaying_mask"),
    "F2": ("harness.py", '        check_kind("criterion", kind, COMPARISON_KINDS)', "        pass", "an unknown criterion name reaches SwitchCriterion, or names a fixed switch"),
    "F3": ("harness.py", 'if lr_schedule != "constant":', "if False:",
           "any lr schedule name loads, and trains at the constant learning rate"),
    "X1": ("cli.py", "sys.exit(2)", "sys.exit(1)", "a refused input exits 1, as a failed bound does"),
    "X2": ("cli.py", "(ToolkitError, MemoryError)", "ToolkitError",
           "a config too large to allocate ends in a traceback"),
    "X3": ("harness.py", "check_output_dir(config.output_dir)", "None",
           "the drivers build data and train before they learn that --out cannot be a directory"),
    "X4": ("cli.py", "harness.check_output_dir(out)", "None",
           "validate-theorem runs the Monte Carlo before it learns that --out cannot be a directory"),
    "M1": ("masks.py", '-1.0), axis=1, kind="stable")', "-1.0), axis=1)",
           "the small-tensor path orders tied magnitudes by an unstable sort"),
    "E1": ("autoswitch.py", "if prev is None or prev <= 0.0:", "if prev is None or prev == 0.0:",
           "relative skips only a zero norm, not a negative one"),
    "E2": ("theory.py", "if t0 <= statement_min:", "if t0 < statement_min:",
           "validate_theorem takes a t0 equal to the statement's minimum"),
    "E3": ("optim.py", "if 4 * count <= CHUNK:", "if 4 * count < CHUNK:",
           "variance_stats takes its in-place path at exactly CHUNK / 4 coordinates"),
    "E4": ("models.py", "if i > 0 else None", "if i >= 0 else None",
           "the backward pass also forms the input batch's gradient"),
    "E5": ("masks.py", "if w.size <= SMALL:", "if w.size < SMALL:",
           "a tensor of exactly SMALL weights takes the rank, not the argsorts"),
    "E6": ("masks.py", 'np.argsort(order, axis=1, kind="stable")', "np.argsort(order, axis=1)",
           "the small-tensor path inverts its order by an unstable sort"),
}

# name: why the mutant cannot be told apart from the code by any run
SURVIVES_BY_DESIGN = {
    "E1": "v_l2 is a Euclidean norm, never negative, so `<= 0.0` and `== 0.0` agree on "
          "every record a run makes",
    "E2": "the statement's minimum log(1 - 1/sqrt(2)) / log(beta2) is not an integer at any "
          "beta2 a test uses, so no integer t0 equals it",
    "E3": "the two paths differ only at exactly 8192 coordinates, where both give the same bits",
    "E4": "the input batch's gradient is formed and then dropped: it costs work and changes no "
          "output",
    "E5": "both paths give the same bits, at SMALL weights as at any size",
    "E6": "the second argsort sorts a permutation of 0..m-1, whose order no sort kind can change; "
          "the stable kind is kept because it measured faster there",
}

TIMEOUT_S = 900  # a mutant that makes Tier-1 hang counts as killed


def _tier1(root: Path) -> tuple[bool, str]:
    """(passed, the first failing test or why it failed) for Tier-1 on ``root``, run with -x."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider"],
            cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    if done.returncode == 0:
        return True, ""
    first = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", done.stdout, re.MULTILINE)
    return False, first.group(1) if first else f"pytest exit code {done.returncode}"


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests", "configs"):
        shutil.copytree(REPO / name, dest / name, ignore=skip)
    shutil.copy2(REPO / "pyproject.toml", dest / "pyproject.toml")


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants {unknown}; known: {list(MUTANTS)}", file=sys.stderr)
        return 2
    failures = 0
    with tempfile.TemporaryDirectory(prefix="stepnm-mutants-") as tmp:
        root = Path(tmp)
        _copy_tree(root)
        passed, why = _tier1(root)
        if not passed:
            print(f"Tier-1 fails on the unmutated copy: {why}", file=sys.stderr)
            return 1
        for name in names or MUTANTS:
            file, fragment, replacement, what = MUTANTS[name]
            path = root / "src" / "stepnm" / file
            source = path.read_text()
            if source.count(fragment) != 1:
                print(f"{name:<4} STALE     {file}: {fragment!r} occurs {source.count(fragment)} times")
                failures += 1
                continue
            path.write_text(source.replace(fragment, replacement))
            try:
                passed, why = _tier1(root)
            finally:
                path.write_text(source)
            expected = name in SURVIVES_BY_DESIGN
            if passed:
                verdict = "survived (by design)" if expected else "SURVIVED"
            else:
                verdict = "KILLED (expected to survive)" if expected else "killed"
            failures += passed != expected
            print(f"{name:<4} {verdict:<9} {file}: {what}" + (f"  [{why}]" if why else ""),
                  flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
