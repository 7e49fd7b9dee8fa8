"""Experiment orchestration: building objects from configs, sweep/ablation
grids, the budget validator command, training, and CSV reporting.

Every cell of a grid derives its RNG stream from (master_seed, seed) only,
so paired arms (proposed vs baseline, auto vs forced depth, split variants)
and different SNR points share source draws and channel noise direction.
A grid runs one task per seed: the seed's cells in cell order, sharing one
``SeedMemo``, so what they share is computed once.  Rows are written in cell
order; parallel and serial execution produce byte-identical CSV files.  A
cell is the plain call ``run_cell(cfg, objects, cell)`` on the objects its
command built once, with the seed's memo appended.  Each seed task carries
``(cfg, objects)`` and its seed's Cells, so a pool worker keeps no state of
its own and never builds the objects.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, fields, replace

import numpy as np

from . import svgplot
from .config import ExperimentConfig, SourceSpec
from .denoisers import GaussianMixtureModel, GmmDenoiser
from .errors import ConfigError, ParameterError
from .mlp import MlpDenoiser, init_mlp, load_checkpoint, save_checkpoint, train_denoiser
from .noise_budget import _usable_cpus, validate_prop1
from .pipeline import SeedMemo, run_baseline_random_noise, run_trial
from .rng import stream
from .schedule import BETA_END, BETA_START, K_STEPS, T_TRAIN, build_schedule, make_stride_plan

# Stream salts: grid cells, validator, training init.
_SALT_CELL = 1
_SALT_PROP1 = 2
_SALT_TRAIN = 3


@dataclass(frozen=True)
class ResultRow:
    """One grid cell. CSV columns are exactly these fields, in order."""

    snr_db: float
    t_f1: int
    t_f2: int
    t_b_resolved: int
    system: str
    transmitter_mode: str
    receiver_forward_mode: str
    t_b_mode: str
    seed: int
    mse: float
    nmse: float
    sw2: float
    mmd2: float
    sigma_eps2: float
    sigma_n2: float
    sigma_tot2: float
    gamma_mean: float
    saturated: bool


RESULT_HEADER = ",".join(f.name for f in fields(ResultRow))


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def row_to_csv(row: ResultRow) -> str:
    return ",".join(_fmt_cell(getattr(row, f.name)) for f in fields(ResultRow))


def build_source_model(spec: SourceSpec) -> GaussianMixtureModel:
    """The mixture of dimension d whose component j has mean and variance
    ``spec.means[j]`` and ``spec.variances[j]`` in every dimension."""
    def per_dimension(values):
        return np.repeat(np.asarray(values, dtype=float)[:, None], spec.dimension, axis=1)

    try:
        return GaussianMixtureModel(np.asarray(spec.weights), per_dimension(spec.means),
                                    per_dimension(spec.variances))
    except ParameterError as exc:
        raise ConfigError(f"invalid source mixture: {exc}") from exc


def build_objects(cfg: ExperimentConfig, with_denoiser=True):
    """(schedule, plan, source model, denoiser) for a parsed config.

    The denoiser is None unless ``with_denoiser``, the analytic one without a
    ``denoiser.checkpoint``, else the MLP that the checkpoint holds (which
    ``train`` is about to write and ``verify-prop1`` never uses).  Rejects the
    complex_paper channel on an odd dimension, which each section accepts.
    """
    d = cfg.source.dimension
    if cfg.channel.model == "complex_paper" and d % 2:
        raise ConfigError(
            f"channel.model = complex_paper needs an even source.dimension, got {d}")
    schedule = build_schedule(T_TRAIN, BETA_START, BETA_END)
    plan = make_stride_plan(schedule, K_STEPS)
    source = build_source_model(cfg.source)
    if not with_denoiser:
        denoiser = None
    elif not cfg.denoiser.checkpoint:
        denoiser = GmmDenoiser(source, schedule)
    else:
        try:
            params = load_checkpoint(cfg.denoiser.checkpoint)
        except (OSError, ParameterError) as exc:
            raise ConfigError(f"denoiser.checkpoint: {exc}") from exc
        if params.d != source.d:
            raise ConfigError(f"denoiser.checkpoint {cfg.denoiser.checkpoint} has dimension "
                              f"{params.d}, source.dimension = {source.d}")
        denoiser = MlpDenoiser(params)
    return schedule, plan, source, denoiser


@dataclass(frozen=True)
class Cell:
    snr_db: float
    seed: int
    system: str  # proposed | random_noise
    t_f1: int
    t_f2: int
    t_b: int | str
    t_b_mode: str


def run_cell(cfg: ExperimentConfig, objects, cell: Cell) -> ResultRow:
    """One grid cell on ``objects``: the command's ``build_objects(cfg)`` and
    the SeedMemo of cell.seed's cells."""
    schedule, plan, source, denoiser, memo = objects
    pipe_cfg = replace(cfg.pipeline, t_f1=cell.t_f1, t_f2=cell.t_f2, t_b=cell.t_b)
    baseline = cell.system == "random_noise"
    run = run_baseline_random_noise if baseline else run_trial
    channel = replace(cfg.channel, snr_db=float(cell.snr_db))
    rng = stream(cfg.run.seed, _SALT_CELL, cell.seed)
    result = run(pipe_cfg, channel, source, schedule, plan, denoiser, cfg.sweep.n_per_cell, rng,
                 memo=memo)
    return ResultRow(
        snr_db=float(cell.snr_db),
        t_f1=cell.t_f1,
        t_f2=cell.t_f2,
        t_b_resolved=result.t_b_resolved,
        system=cell.system,
        transmitter_mode="ddim_inversion",  # the transmitter always inverts
        # the proposed receiver inverts; the baseline's adds fresh noise
        receiver_forward_mode="stochastic" if baseline else "ddim_inversion",
        t_b_mode=cell.t_b_mode,
        seed=cell.seed,
        mse=result.metrics.mse,
        nmse=result.metrics.nmse,
        sw2=result.metrics.sw2,
        mmd2=result.metrics.mmd2,
        sigma_eps2=result.budget.sigma_eps2,
        sigma_n2=result.budget.sigma_n2,
        sigma_tot2=result.budget.sigma_tot2,
        gamma_mean=result.budget.gamma_used,
        saturated=result.saturated,
    )


# The OpenBLAS thread setter as numpy 2 wheels, numpy 1.25-1.26 wheels and
# unsuffixed builds name it.
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _single_thread_blas():
    """Run the OpenBLAS that numpy has loaded on one thread (if one is found).

    Pool workers share the cores: with the library default every worker's
    BLAS spins one thread per core, and --jobs N runs slower than serial.
    Loading the wheel's bundled library by path returns numpy's own copy.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return


def _run_seed(cfg: ExperimentConfig, objects, cells) -> list[ResultRow]:
    """One seed's cells in order, on one SeedMemo that is freed when they end."""
    objects = (*objects, SeedMemo())
    return [run_cell(cfg, objects, cell) for cell in cells]


def _run_grid(cfg: ExperimentConfig, cells, out_dir, csv_name):
    """Run cells, one task per seed (on a pool of up to cfg.run.jobs workers,
    at most one per seed and per usable CPU), writing rows in cell order.

    Builds the objects before it creates out_dir.  Each row is flushed once
    every row before it is in, and a failed cell stops the loop (the pool's
    map cancels the seeds that have not started).
    """
    objects = build_objects(cfg)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, csv_name)
    by_seed: dict[int, list[int]] = {}  # each seed's cell indices, seeds in order of first cell
    for i, cell in enumerate(cells):
        by_seed.setdefault(cell.seed, []).append(i)
    tasks = [[cells[i] for i in indices] for indices in by_seed.values()]
    workers = min(cfg.run.jobs, len(tasks), _usable_cpus())
    rows: list[ResultRow | None] = [None] * len(cells)
    written = 0
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh, ExitStack() as stack:
        fh.write(RESULT_HEADER + "\n")
        mapper, task = map, functools.partial(_run_seed, cfg, objects)
        if workers > 1:
            mapper = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers, initializer=_single_thread_blas)).map
        for indices, seed_rows in zip(by_seed.values(), mapper(task, tasks)):
            for i, row in zip(indices, seed_rows):
                rows[i] = row
            while written < len(rows) and rows[written] is not None:
                fh.write(row_to_csv(rows[written]) + "\n")
                written += 1
            fh.flush()
    return rows, csv_path


def cmd_sweep(cfg: ExperimentConfig, out_dir):
    """Full factorial over (snr_db x seeds x (proposed, random-noise baseline))."""
    p = cfg.pipeline
    t_b_mode = "auto" if p.t_b == "auto" else "fixed"
    cells = [
        Cell(snr, seed, system, p.t_f1, p.t_f2, p.t_b, t_b_mode)
        for snr in cfg.sweep.snr_db
        for seed in cfg.sweep.seeds
        for system in ("proposed", "random_noise")
    ]
    rows, csv_path = _run_grid(cfg, cells, out_dir, "sweep.csv")
    if cfg.sweep.plot:
        for metric in ("mse", "sw2"):
            svg = svgplot.emit_svg_plot(rows, metric)
            with open(os.path.join(out_dir, f"sweep_{metric}.svg"), "w",
                      encoding="utf-8", newline="\n") as fh:
                fh.write(svg)
    return rows, csv_path


ABLATION_SPLITS = ((10, 0), (5, 5), (0, 10))


def cmd_ablate(cfg: ExperimentConfig, out_dir):
    """Split/depth grid plus the baseline at channel.snr_db, on the sweep's seeds and n."""
    snr = cfg.channel.snr_db
    cells = []
    for seed in cfg.sweep.seeds:
        for t_f1, t_f2 in ABLATION_SPLITS:
            cells.append(Cell(snr, seed, "proposed", t_f1, t_f2, t_f1 + t_f2, "t_f"))
            cells.append(Cell(snr, seed, "proposed", t_f1, t_f2, "auto", "auto"))
        cells.append(Cell(snr, seed, "random_noise", 5, 5, "auto", "auto"))
    return _run_grid(cfg, cells, out_dir, "ablate.csv")


def cmd_verify_prop1(cfg: ExperimentConfig, out_dir):
    """Run the noise-budget validator; exit 0 iff it meets its tolerances."""
    schedule, plan, source, _denoiser = build_objects(cfg, with_denoiser=False)
    os.makedirs(out_dir, exist_ok=True)
    report = validate_prop1(schedule, plan, cfg.pipeline.split, cfg.channel, source,
                            cfg.prop1.n_samples, stream(cfg.run.seed, _SALT_PROP1))
    csv_path = os.path.join(out_dir, "prop1_report.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.to_csv())
    print(report.summary_line())
    return (0 if report.passed() else 1), report


def cmd_train(cfg: ExperimentConfig, out_dir):
    """Train the MLP denoiser; write denoiser.ckpt and train_loss.csv in out_dir."""
    schedule, _plan, source, _denoiser = build_objects(cfg, with_denoiser=False)
    os.makedirs(out_dir, exist_ok=True)
    t = cfg.train
    params = init_mlp(
        source.d, t.hidden, source.n_components,
        stream(cfg.run.seed, _SALT_TRAIN), t_emb=t.time_embed,
    )
    trained, trace = train_denoiser(params, source, schedule, t, cfg.run.seed)
    ckpt_path = os.path.join(out_dir, "denoiser.ckpt")
    save_checkpoint(trained, ckpt_path)
    loss_path = os.path.join(out_dir, "train_loss.csv")
    with open(loss_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,loss\n")
        for i, loss in enumerate(trace):
            fh.write(f"{i},{loss:.12g}\n")
    print(f"trained {t.iterations} iterations; "
          f"first-100 mean loss {np.mean(trace[:100]):.6g}, "
          f"last-100 mean loss {np.mean(trace[-100:]):.6g}")
    return ckpt_path, loss_path
