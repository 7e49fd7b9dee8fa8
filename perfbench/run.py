#!/usr/bin/env python3
"""Benchmark of the diffsemcom CLI.

Four workloads run the CLI in fresh processes for the end-to-end metrics; a
separate traced run (perfbench/trace_run.py) executes the same command
serially in one process and records spans around the calls into each layer
for the per-layer metrics.  perfbench/README.md lists the workloads, the
metrics and which end-to-end metric each layer metric should move.

    python3 perfbench/run.py --workload sweep-serial --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --report [--trace 1]   # every workload once, as a table
    python3 perfbench/run.py --compare              # two sets of runs, medians and agreement
    python3 perfbench/run.py --make-refs            # rewrite the stored reference CSVs

A workload run prints the machine facts and its environment, then as its
last line one JSON object with the keys correct, attempted, failed and
metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
REFS_DIR = BENCH_DIR / "refs"
SPEC_PATH = ROOT / "BENCHMARK.json"

# `--seed n` runs the CLI with master seed n mod SEED_COUNT: references are
# stored for those seeds, and every workload passes its checks on each.
# HELD_OUT_SEED is not used while tuning a change; it confirms a claim.
SEED_COUNT = 10
HELD_OUT_SEED = 1009

# Set-up is timed in fresh interpreters, this many before each repetition,
# so that its samples spread over the whole run like the repetitions do.
SETUP_PER_REP = 3
COMPARE_RUNS = 10
RSS_SAMPLE_S = 0.05
RUN_DEADLINE_S = 170.0
CHILD_TIMEOUT_S = 150.0

# Admits reassociated floating point (drift around 1e-13 relative) but not a
# changed result.
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Grid CSV columns compared with a tolerance; every other column must match
# the reference exactly (cell identity, resolved depth, saturation flag).
VALUE_COLUMNS = frozenset(
    ("mse", "nmse", "sw2", "mmd2", "sigma_eps2", "sigma_n2", "sigma_tot2", "gamma_mean")
)

PROP1_SAMPLES = 100_000
TRAIN_ITERATIONS = 2_000

SETUP_CODE = """\
import sys
import numpy as np
from diffsemcom.config import parse_config
from diffsemcom.harness import build_objects
from diffsemcom.mlp import init_mlp
cfg = parse_config(sys.argv[1])
schedule, plan, source, denoiser = build_objects(cfg)
if sys.argv[2] == "train":
    t = cfg.train
    init_mlp(source.d, t.hidden, source.n_components,
             np.random.default_rng(cfg.run.seed), t_emb=t.time_embed)
"""


class BenchError(Exception):
    """The benchmark itself cannot run (missing program, spec or reference)."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # grid | prop1 | train
    base_config: str        # file under configs/
    overrides: dict         # (section, key) -> value in the generated config
    cli: tuple              # subcommand and its flags, without --jobs/--config/--seed/--out
    output: str             # the file the output checks read
    jobs: int = 1
    # BLAS threads of every child of the workload; None keeps the library
    # default (one thread per core).
    blas_threads: int | None = 1


WORKLOADS = {w.name: w for w in (
    Workload("sweep-serial", "grid", "bimodal.ini", {}, ("sweep", "--plot", "on"), "sweep.csv"),
    Workload("ablate-jobs2", "grid", "bimodal.ini", {}, ("ablate",), "ablate.csv",
             jobs=2, blas_threads=None),
    Workload("prop1-large", "prop1", "default.ini",
             {("prop1", "n_samples"): PROP1_SAMPLES, ("prop1", "transmitter_mode"): "stochastic"},
             ("verify-prop1",), "prop1_report.csv"),
    Workload("train-mlp", "train", "bimodal.ini", {("train", "iterations"): TRAIN_ITERATIONS},
             ("train",), "train_loss.csv"),
)}


def master_seed(seed: int) -> int:
    return seed if seed == HELD_OUT_SEED else seed % SEED_COUNT


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(workload=None) -> dict:
    """The fixed environment of every child process of workload.

    Built from nothing, so the invoking shell's BLAS thread variables,
    PYTHONPATH and DIFFSEMCOM_OUT never reach the program.  The serial
    workloads then run BLAS on one thread: with the library default, two
    threads spin on the small matrices of this program, and on a shared host
    their wall and CPU time measure the neighbours' load more than the
    program.  ablate-jobs2 keeps the default, because pinning would hide its
    --jobs oversubscription.
    """
    env = {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C",
    }
    if workload is not None and workload.blas_threads is not None:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, str(workload.blas_threads)))
    return env


def render_config(workload: Workload, path: Path) -> None:
    """Write the shipped config with the workload's overrides applied."""
    lines = (ROOT / "configs" / workload.base_config).read_text().splitlines()
    pending = dict(workload.overrides)
    section = None
    for i, line in enumerate(lines):
        header = re.match(r"\s*\[(\w+)\]", line)
        if header:
            section = header.group(1)
            continue
        key = line.split("=", 1)[0].strip()
        if "=" in line and (section, key) in pending:
            lines[i] = f"{key} = {pending.pop((section, key))}"
    if pending:
        raise BenchError(f"configs/{workload.base_config} lacks keys {sorted(pending)}")
    path.write_text("\n".join(lines) + "\n")


def cli_argv(workload: Workload, config: Path, seed: int, jobs: int, out=None) -> list:
    argv = [*workload.cli, "--jobs", str(jobs), "--config", str(config), "--seed", str(seed)]
    return argv if out is None else [*argv, "--out", str(out)]


# --------------------------------------------------------------------------
# Child processes

@dataclass
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except OSError:
        pass


def _group_peaks(pgid: int, peaks: dict, stop: threading.Event) -> None:
    """Every RSS_SAMPLE_S until stop is set, record in peaks the peak RSS
    (VmHWM, KiB) of each live process of group pgid, keyed by pid."""
    while True:
        try:
            entries = [e for e in os.scandir("/proc") if e.name.isdigit()]
        except OSError:
            return
        for entry in entries:
            try:
                stat = Path(entry.path, "stat").read_text()
                if int(stat.rpartition(")")[2].split()[2]) != pgid:
                    continue
                for line in Path(entry.path, "status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        kib = int(line.split()[1])
                        peaks[entry.name] = max(peaks.get(entry.name, 0), kib)
            except (OSError, ValueError, IndexError):
                continue
        if stop.wait(RSS_SAMPLE_S):
            return


def run_child(argv: list, log: Path, deadline: float, env: dict) -> ChildRun:
    """Run argv with env in its own process group and wait for it.

    CPU time comes from wait4, which covers the child and every descendant
    it reaped, so a pool's workers count.  The peak RSS is that of the whole
    tree: the sum over the group's processes of each one's peak, sampled
    from /proc while the command runs, and never less than wait4's peak of
    the largest single process.  A child still running at its timeout is
    killed with its whole group.
    """
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    peaks = {}
    stop = threading.Event()
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        sampler = threading.Thread(target=_group_peaks, args=(proc.pid, peaks, stop))
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
            stop.set()
            sampler.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        _kill_group(proc.pid)  # whatever a crashed pool left behind
    peak_kib = max(usage.ru_maxrss, sum(peaks.values()))
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime, peak_kib / 1024.0)


def python_child(*args) -> list:
    return [sys.executable, *map(str, args)]


def machine_facts(log: Path) -> dict:
    """The machine facts, read without pinned BLAS threads, so that they give
    the library's default thread count."""
    with open(log, "wb") as err:
        out = subprocess.run(python_child(BENCH_DIR / "machine.py"), cwd=ROOT, env=child_env(),
                             stdout=subprocess.PIPE, stderr=err, timeout=60, check=True)
    return json.loads(out.stdout)


# --------------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when the output is right.

def reference_path(workload: Workload, seed: int) -> Path:
    return REFS_DIR / f"{workload.name}.seed{seed}.csv.gz"


def load_reference(workload: Workload, seed: int) -> str:
    path = reference_path(workload, seed)
    if not path.is_file():
        raise BenchError(f"no reference {path.relative_to(ROOT)}; run --make-refs")
    return gzip.decompress(path.read_bytes()).decode()


def check_grid(text: str, reference: str) -> list:
    """Exact header, row count, cell order and columns; finite values within tolerance."""
    lines, ref = text.splitlines(), reference.splitlines()
    if not lines or lines[0] != ref[0]:
        return ["header differs from the reference"]
    if len(lines) != len(ref):
        return [f"{len(lines) - 1} rows, the reference has {len(ref) - 1}"]
    header = ref[0].split(",")
    problems = []
    for row, (line, ref_line) in enumerate(zip(lines[1:], ref[1:]), start=1):
        got, want = line.split(","), ref_line.split(",")
        if len(got) != len(header):
            problems.append(f"row {row}: {len(got)} columns")
            continue
        for column, a, b in zip(header, got, want):
            if column not in VALUE_COLUMNS:
                if a != b:
                    problems.append(f"row {row} {column}: {a} != reference {b}")
                continue
            try:
                value = float(a)
            except ValueError:
                problems.append(f"row {row} {column}: {a!r} is not a number")
                continue
            if not math.isfinite(value):
                problems.append(f"row {row} {column}: {a} is not finite")
            elif not math.isclose(value, float(b), rel_tol=REL_TOL, abs_tol=ABS_TOL):
                problems.append(f"row {row} {column}: {a} != reference {b}")
    return problems


def _numbers(text: str, first_column: int):
    """Every value from first_column on in the rows below the header, or None
    if one is not a finite number."""
    try:
        values = [float(v) for line in text.splitlines()[1:] for v in line.split(",")[first_column:]]
    except ValueError:
        return None
    return values if all(math.isfinite(v) for v in values) else None


def check_prop1(text: str) -> list:
    values = _numbers(text, 1)
    if values is None:
        return ["a prop1 report value is not a finite number"]
    return [] if values else ["empty prop1 report"]


def check_train(text: str) -> list:
    losses = _numbers(text, 1)
    if losses is None:
        return ["a loss is not a finite number"]
    if len(losses) != TRAIN_ITERATIONS:
        return [f"{len(losses)} loss rows, expected {TRAIN_ITERATIONS}"]
    first, last = statistics.fmean(losses[:100]), statistics.fmean(losses[-100:])
    if not last < first:
        return [f"loss did not fall: first-100 mean {first}, last-100 mean {last}"]
    return []


def check_outputs(workload: Workload, out: Path, reference) -> list:
    path = out / workload.output
    if not path.is_file():
        return [f"missing {workload.output}"]
    text = path.read_text()
    if workload.kind == "grid":
        problems = check_grid(text, reference)
        if workload.name == "sweep-serial":
            problems += [f"missing {svg}" for svg in ("sweep_mse.svg", "sweep_sw2.svg")
                         if not (out / svg).is_file() or (out / svg).stat().st_size == 0]
        return problems
    if workload.kind == "prop1":
        return check_prop1(text)
    problems = check_train(text)
    if not (out / "denoiser.ckpt").is_file():
        problems.append("missing denoiser.ckpt")
    return problems


def derived_counts(workload: Workload, out: Path) -> dict:
    """Layer call counts that the seed code makes, derived from its outputs.

    A proposed cell evaluates the denoiser t_f1 times to encode, t_f2 times
    in the receiver's forward leg and t_b times to decode; a baseline cell
    only to decode.  Each grid cell builds its objects once.  A change that
    batches or caches makes fewer calls, so a difference is reported, not
    failed.
    """
    if workload.kind == "train":
        return {"mlp.loss_and_grads.calls": TRAIN_ITERATIONS, "harness.build_objects.calls": 1}
    if workload.kind == "prop1":
        return {"noise_budget.validate_prop1.calls": 1, "denoisers.predict.calls": 0}
    lines = (out / workload.output).read_text().splitlines()
    header = lines[0].split(",")
    nfe = 0
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        nfe += int(row["t_b_resolved"])
        if row["system"] == "proposed":
            nfe += int(row["t_f1"]) + int(row["t_f2"])
    cells = len(lines) - 1
    return {"denoisers.predict.calls": nfe, "harness.build_objects.calls": cells,
            "harness.run_cell.calls": cells}


# --------------------------------------------------------------------------
# One workload run

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, label: str, run, problems=()) -> None:
        """Count one program run; it fails on a non-zero exit or a failed check."""
        self.attempted += 1
        problems = list(problems)
        if run is not None and run.code != 0:
            problems.insert(0, f"exit code {run.code}")
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems[:5]]


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "diffsemcom" / "cli.py").is_file():
        raise BenchError(f"no diffsemcom sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    seed = master_seed(seed)
    work = WORK_DIR / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.ini"
    render_config(workload, config)
    reference = load_reference(workload, seed) if workload.kind == "grid" else None
    tally = Tally()
    notes = []
    facts = machine_facts(work / "machine.log")
    env = child_env(workload)

    def timed_setup(label):
        run = run_child(python_child("-c", SETUP_CODE, config, workload.kind),
                        work / f"{label}.log", deadline, env)
        tally.add(label, run)
        return run.wall_s

    def timed_run(label, jobs):
        out = work / label
        run = run_child(python_child("-m", "diffsemcom.cli", *cli_argv(workload, config, seed, jobs, out)),
                        work / f"{label}.log", deadline, env)
        tally.add(label, run, check_outputs(workload, out, reference) if run.code == 0 else ())
        return run, out

    setup = []
    reps = []
    outputs = []
    started = time.perf_counter()
    while True:
        for _ in range(SETUP_PER_REP):
            setup.append(timed_setup(f"setup{len(setup)}"))
        run, out = timed_run(f"rep{len(reps)}", workload.jobs)
        reps.append(run)
        outputs.append(out / workload.output)
        typical = statistics.median([r.wall_s for r in reps]) + SETUP_PER_REP * statistics.median(setup)
        if (trace or time.perf_counter() - started + typical > seconds
                or time.monotonic() + 2 * typical > deadline):
            break
    # Every repetition must write the same bytes (the loss trace included).
    first = outputs[0].read_bytes() if outputs[0].is_file() else None
    for i, path in enumerate(outputs[1:], start=1):
        if path.is_file() and path.read_bytes() != first:
            tally.add(f"rep{i}", None, [f"{workload.output} differs from rep0"])

    wall_s = statistics.median([r.wall_s for r in reps])
    setup_s = statistics.median(setup)
    if trace:
        metrics = layer_metrics(workload, seed, work, reference, tally, notes, deadline,
                                first, wall_s - setup_s)
    else:
        work_done = len(reference.splitlines()) - 1 if reference is not None else (
            PROP1_SAMPLES if workload.kind == "prop1" else TRAIN_ITERATIONS)
        metrics = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "work_per_s": work_done / (wall_s - setup_s),
            "cpu_s": statistics.median([r.cpu_s for r in reps]),
            "peak_rss_mb": statistics.median([r.peak_rss_mb for r in reps]),
        }
    return {
        "facts": facts,
        "env": env,
        "master_seed": seed,
        "rep_walls": [r.wall_s for r in reps],
        "problems": tally.problems,
        "notes": notes,
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        },
    }


def layer_metrics(workload, seed, work, reference, tally, notes, deadline,
                  e2e_output, e2e_work_s) -> dict:
    """Per-layer metrics from the traced serial run, with its count checks.

    e2e_output holds the bytes the untraced end-to-end run wrote, and
    e2e_work_s its wall time less set-up.
    """
    result_path = work / "trace.json"
    prefix = work / "traced"
    run = run_child(python_child(BENCH_DIR / "trace_run.py", result_path, prefix, "--",
                                 *cli_argv(workload, work / "config.ini", seed, 1)),
                    work / "trace.log", deadline, child_env(workload))
    if run.code != 0:
        tally.add("trace", run)
        return {}
    trace = json.loads(result_path.read_text())
    passes = trace["passes"]
    problems = []
    labels = ["warmup", "untraced"] + [f"traced{i}" for i in range(len(passes))]
    codes = [trace["warmup_exit"], trace["untraced_exit"]] + [p["exit"] for p in passes]
    for label, code in zip(labels, codes):
        out = Path(f"{prefix}-{label}")
        if code != 0:
            problems.append(f"{label} pass exit code {code}")
            continue
        output_problems = check_outputs(workload, out, reference)
        problems += [f"{label}: {p}" for p in output_problems]
        if not output_problems and (out / workload.output).read_bytes() != e2e_output:
            problems.append(f"{label}: {workload.output} differs from the --jobs {workload.jobs} run")
    stats = [p["stats"] for p in passes]
    for name in stats[0]:
        for count in ("calls", "rows"):
            if len({s[name][count] for s in stats}) != 1:
                problems.append(f"{name}.{count} differs between traced passes")
    if len({(p["encode_calls"], p["distinct_encodes"]) for p in passes}) != 1:
        problems.append("encode counts differ between traced passes")
    if not problems:
        for name, expected in derived_counts(workload, Path(f"{prefix}-traced0")).items():
            span, _, count = name.rpartition(".")
            got = stats[0][span][count]
            notes.append(f"count {name}: traced {got}, derived from the outputs {expected}"
                         f" ({'equal' if got == expected else 'DIFFERENT'})")
    tally.add("trace", run, problems)

    first = passes[0]
    prop1_n, prop1_d = first["prop1_size"] or (0, 0)
    metrics = {}
    for spec in load_spec()["per_layer"]:
        name = spec["name"]
        span, _, kind = name.rpartition(".")
        if name == "trace.overhead":
            value = statistics.median([p["wall_s"] for p in passes]) / trace["untraced_wall_s"] - 1.0
        elif name == "harness.parallel_efficiency":
            cell_s = statistics.fmean(s["harness.run_cell"]["total_s"] for s in stats)
            value = cell_s / (workload.jobs * e2e_work_s)
        elif name == "pipeline.encode_reuse":
            value = first["distinct_encodes"] / first["encode_calls"] if first["encode_calls"] else 0.0
        elif name == "noise_budget.validate_prop1.ns_per_sample_dim":
            self_s = statistics.fmean(s[span]["self_s"] for s in stats)
            value = self_s * 1e9 / (prop1_n * prop1_d) if prop1_n else 0.0
        elif name == "noise_budget.validate_prop1.bytes_computed":
            # From array sizes, not measured: three Gaussian draws and the
            # received latent, each n_samples x d float64.
            value = 4 * 8 * prop1_n * prop1_d
        elif kind == "self_s":
            value = statistics.fmean(s[span]["self_s"] for s in stats)
        else:
            value = first["stats"][span][kind]
        metrics[name] = value
    return metrics


# --------------------------------------------------------------------------
# Modes

def with_units(metrics: dict, specs: list) -> dict:
    units = {s["name"]: s["unit"] for s in specs}
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def driver_mode(args) -> int:
    spec = load_spec()
    outcome = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    result = outcome["result"]
    result["metrics"] = with_units(result["metrics"], spec["per_layer" if args.trace else "end_to_end"])
    print("machine: " + json.dumps(outcome["facts"], sort_keys=True))
    print("env: " + json.dumps(outcome["env"], sort_keys=True))
    print(f"workload: {args.workload} seed {args.seed} (master seed {outcome['master_seed']}), "
          f"repetition walls {outcome['rep_walls']}")
    for line in outcome["notes"]:
        print(line)
    for problem in outcome["problems"]:
        print(f"FAILED {problem}")
    print(json.dumps(result))
    return 0


def report_mode(args) -> int:
    """Every workload once: each metric by name with its unit, and the verdict."""
    spec = load_spec()
    specs = spec["per_layer" if args.trace else "end_to_end"]
    facts_shown = False
    for name in WORKLOADS:
        outcome = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
        if not facts_shown:
            print("machine: " + json.dumps(outcome["facts"], sort_keys=True))
            facts_shown = True
        result = outcome["result"]
        verdict = "correct" if result["correct"] else "INCORRECT"
        print(f"\n{name}: {verdict}, {result['failed']}/{result['attempted']} runs failed "
              f"(fail_rate {result['failed'] / result['attempted']:.3f}), "
              f"{len(outcome['rep_walls'])} repetition(s), master seed {outcome['master_seed']}")
        for line in outcome["notes"]:
            print(f"  {line}")
        for problem in outcome["problems"]:
            print(f"  FAILED {problem}")
        for metric in specs:
            value = result["metrics"].get(metric["name"])
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"  {metric['name']:<48} {shown:>14} {metric['unit']}")
    return 0


def quartile_summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else math.inf


def compare_mode(args) -> int:
    """Two sets of COMPARE_RUNS runs per workload, each run on another seed.

    A metric agrees when each set's quartile spread, as a share of its
    median, is within the metric's bound and the two sets' medians differ,
    in either direction, by no more than the bound times the first median.
    """
    spec = load_spec()
    agree = True
    record = {}
    for name in WORKLOADS:
        sets = []
        for s in range(2):
            runs = []
            for i in range(COMPARE_RUNS):
                outcome = run_workload(WORKLOADS[name], s * COMPARE_RUNS + i + 1, args.seconds, False)
                runs.append(outcome["result"])
                if not outcome["result"]["correct"]:
                    agree = False
                    print(f"{name} run {s}/{i}: INCORRECT {outcome['problems']}")
            sets.append(runs)
        record[name] = sets
        print(f"\n{name} ({COMPARE_RUNS} runs per set)")
        for metric in spec["end_to_end"]:
            stats = [quartile_summary([r["metrics"][metric["name"]] for r in runs]) for runs in sets]
            bound = metric["bound"]
            first, second = stats[0][0], stats[1][0]
            shift = (second - first) / first
            ok = all(st[3] <= bound for st in stats) and abs(shift) <= bound
            agree &= ok
            cells = "  ".join(f"med {m:.5g} [q1 {a:.5g}, q3 {b:.5g}] spread {sp:.3f}"
                              for m, a, b, sp in stats)
            print(f"  {metric['name']:<12} {cells}  shift {shift:+.3f} bound {bound}  "
                  f"{'ok' if ok else 'DISAGREE'}")
    WORK_DIR.mkdir(exist_ok=True)
    (WORK_DIR / "compare.json").write_text(json.dumps(record, indent=1))
    print("\nthe two sets agree within the bounds" if agree else "\nthe two sets DISAGREE")
    return 0 if agree else 1


def make_refs_mode(args) -> int:
    """Rewrite the grid references from serial runs of the current code, and
    confirm that prop1-large and train-mlp pass on every stored seed."""
    REFS_DIR.mkdir(exist_ok=True)
    ok = True
    for seed in [*range(SEED_COUNT), HELD_OUT_SEED]:
        for workload in WORKLOADS.values():
            work = WORK_DIR / "make-refs" / workload.name
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            config = work / "config.ini"
            render_config(workload, config)
            out = work / "out"
            run = run_child(python_child("-m", "diffsemcom.cli", *cli_argv(workload, config, seed, 1, out)),
                            work / "cli.log", time.monotonic() + CHILD_TIMEOUT_S,
                            child_env(workload))
            if workload.kind == "grid" and run.code == 0:
                data = (out / workload.output).read_bytes()
                reference_path(workload, seed).write_bytes(gzip.compress(data, mtime=0))
                problems = []
            else:
                problems = check_outputs(workload, out, None) if run.code == 0 else [f"exit {run.code}"]
            ok &= not problems
            print(f"seed {seed} {workload.name}: {'ok' if not problems else problems} ({run.wall_s:.1f} s)")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="run every workload once and print a table")
    parser.add_argument("--compare", action="store_true", help="two sets of runs per workload")
    parser.add_argument("--make-refs", action="store_true", help="rewrite the reference CSVs")
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        if args.make_refs:
            return make_refs_mode(args)
        if args.compare:
            return compare_mode(args)
        if args.report:
            return report_mode(args)
        if args.workload is None:
            parser.error("--workload, --report, --compare or --make-refs is required")
        return driver_mode(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
