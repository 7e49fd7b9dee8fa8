import os
import time
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from diffsemcom import cli, harness, pipeline, svgplot
from diffsemcom.config import ExperimentConfig, SourceSpec, parse_config
from diffsemcom.errors import ConfigError, ParameterError
from diffsemcom.harness import RESULT_HEADER, ResultRow
from diffsemcom.mlp import init_mlp, load_checkpoint, save_checkpoint
from diffsemcom.rng import stream

BIMODAL_INI = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs",
                           "bimodal.ini")


def small_cfg(**kw):
    cfg = ExperimentConfig()
    cfg = replace(
        cfg,
        source=replace(cfg.source, dimension=8),
        sweep=replace(cfg.sweep, snr_db=(0.0, 10.0), seeds=(0, 1), n_per_cell=32),
        prop1=replace(cfg.prop1, n_samples=10_000),
        train=replace(cfg.train, iterations=120),
    )
    return replace(cfg, **kw) if kw else cfg


def with_jobs(cfg, jobs):
    return replace(cfg, run=replace(cfg.run, jobs=jobs))


def usable_cpus(monkeypatch, cpus):
    # a grid starts at most one worker per usable CPU: a test that needs a
    # pool fixes the count, so that it forks one on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def test_build_source_broadcast_and_errors():
    cfg = small_cfg()
    model = harness.build_source_model(cfg.source)
    assert model.d == 8 and model.n_components == 1
    bad = replace(cfg.source, means=(1.0, 2.0, 3.0))
    with pytest.raises(ConfigError, match="invalid source mixture: inconsistent shapes"):
        harness.build_source_model(bad)
    unnorm = replace(cfg.source, weights=(0.4, 0.4), means=(0.0, 0.0), variances=(1.0, 1.0))
    with pytest.raises(ConfigError, match="mixture"):
        harness.build_source_model(unnorm)


def test_result_header_schema():
    assert RESULT_HEADER == (
        "snr_db,t_f1,t_f2,t_b_resolved,system,transmitter_mode,"
        "receiver_forward_mode,t_b_mode,seed,mse,nmse,sw2,mmd2,"
        "sigma_eps2,sigma_n2,sigma_tot2,gamma_mean,saturated"
    )


def test_sweep_cardinality_and_determinism(tmp_path):
    cfg = small_cfg()
    rows1, path1 = harness.cmd_sweep(cfg, tmp_path / "a")
    rows2, path2 = harness.cmd_sweep(cfg, tmp_path / "b")
    # 2 snr x 2 seeds x (proposed + baseline)
    assert len(rows1) == 8
    assert Path(path1).read_bytes() == Path(path2).read_bytes()
    text = Path(path1).read_text().splitlines()
    assert text[0] == RESULT_HEADER
    assert len(text) == 9


def test_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    usable_cpus(monkeypatch, 2)
    cfg = small_cfg()
    _, p1 = harness.cmd_sweep(cfg, tmp_path / "serial")
    _, p2 = harness.cmd_sweep(with_jobs(cfg, 2), tmp_path / "parallel")
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


@pytest.mark.parametrize("command", [harness.cmd_sweep, harness.cmd_ablate])
def test_two_component_parallel_matches_serial(tmp_path, monkeypatch, command):
    # J = 2 runs the score's anchored matmuls, whose bits must not
    # depend on the process that runs a cell
    usable_cpus(monkeypatch, 2)
    source = SourceSpec(dimension=8, weights=(0.5, 0.5), means=(0.9, -0.9),
                        variances=(0.05, 0.75))
    cfg = small_cfg(source=source)
    _, p1 = command(cfg, tmp_path / "serial")
    _, p2 = command(with_jobs(cfg, 2), tmp_path / "parallel")
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def _reference_rows(cfg, cells):
    """(cell, trial values) per cell: one run_trial or baseline call each, on
    its own stream and with nothing shared between cells."""
    schedule, plan, source, denoiser = harness.build_objects(cfg)
    out = []
    for snr, seed, system, t_f1, t_f2, t_b in cells:
        run = pipeline.run_baseline_random_noise if system == "random_noise" else pipeline.run_trial
        res = run(replace(cfg.pipeline, t_f1=t_f1, t_f2=t_f2, t_b=t_b),
                  replace(cfg.channel, snr_db=snr), source, schedule, plan, denoiser,
                  cfg.sweep.n_per_cell, stream(cfg.run.seed, harness._SALT_CELL, seed))
        out.append(((snr, seed, system, t_f1, t_f2), (
            res.t_b_resolved, res.saturated, res.budget.sigma_tot2, res.budget.gamma_used,
            *vars(res.metrics).values())))
    return out


def _row_values(rows):
    return [((r.snr_db, r.seed, r.system, r.t_f1, r.t_f2),
             (r.t_b_resolved, r.saturated, r.sigma_tot2, r.gamma_mean, r.mse, r.nmse, r.sw2,
              r.mmd2)) for r in rows]


@pytest.mark.parametrize("jobs", [1, 2])
def test_seed_grouped_grid_matches_a_loop_of_independent_trials(tmp_path, monkeypatch, jobs):
    # a grid shares each seed's source batch, encodes, receiver legs and
    # metric terms between its cells; the rows are those of independent trials
    usable_cpus(monkeypatch, 2)
    cfg = with_jobs(small_cfg(), jobs)
    cfg = replace(cfg, sweep=replace(cfg.sweep, seeds=(0, 1, 2)))
    p = cfg.pipeline
    sweep_cells = [(snr, seed, system, p.t_f1, p.t_f2, p.t_b) for snr in cfg.sweep.snr_db
                   for seed in cfg.sweep.seeds for system in ("proposed", "random_noise")]
    ablate_cells = []
    for seed in cfg.sweep.seeds:
        for t_f1, t_f2 in harness.ABLATION_SPLITS:
            ablate_cells += [(cfg.channel.snr_db, seed, "proposed", t_f1, t_f2, t_f1 + t_f2),
                             (cfg.channel.snr_db, seed, "proposed", t_f1, t_f2, "auto")]
        ablate_cells.append((cfg.channel.snr_db, seed, "random_noise", 5, 5, "auto"))
    sweep_rows, _ = harness.cmd_sweep(cfg, tmp_path / "sweep")
    ablate_rows, _ = harness.cmd_ablate(cfg, tmp_path / "ablate")
    assert len(sweep_rows) == 2 * 3 * 2 and len(ablate_rows) == 3 * 7
    assert _row_values(sweep_rows) == _reference_rows(cfg, sweep_cells)
    assert _row_values(ablate_rows) == _reference_rows(cfg, ablate_cells)


@pytest.mark.parametrize("command, saved", [(harness.cmd_sweep, 400), (harness.cmd_ablate, 600)])
def test_seed_grouped_grid_computes_shared_work_once(tmp_path, monkeypatch, command, saved):
    # bimodal.ini's grid (at a smaller n): the source is drawn once per seed,
    # encoded once per (seed, T_F1) and forwarded by the receiver once per
    # (seed, split, SNR, system); the denoiser calls fall by exactly the
    # shared steps against one full trial per cell
    cfg = parse_config(BIMODAL_INI)
    cfg = replace(cfg, sweep=replace(cfg.sweep, n_per_cell=16, plot=False))
    calls = {"sample": [], "encode": [], "forward": [], "predict": 0}
    cell = {}
    real = {name: getattr(pipeline, name)
            for name in ("gmm_sample", "encode_transmit", "receiver_forward")}
    real_run_cell, real_predict = harness.run_cell, harness.GmmDenoiser.predict

    def run_cell(cfg_, objects, c):
        cell["now"] = c
        return real_run_cell(cfg_, objects, c)

    def gmm_sample(*args, **kwargs):
        calls["sample"].append(cell["now"].seed)
        return real["gmm_sample"](*args, **kwargs)

    def encode_transmit(z0, pipe_cfg, *args):
        calls["encode"].append((cell["now"].seed, pipe_cfg.t_f1))
        return real["encode_transmit"](z0, pipe_cfg, *args)

    def receiver_forward(y, pipe_cfg, *args):
        c = cell["now"]
        calls["forward"].append((c.seed, c.t_f1, c.t_f2, c.snr_db, c.system))
        return real["receiver_forward"](y, pipe_cfg, *args)

    def predict(self, z, t):
        calls["predict"] += 1
        return real_predict(self, z, t)

    monkeypatch.setattr(harness, "run_cell", run_cell)
    for name, fake in (("gmm_sample", gmm_sample), ("encode_transmit", encode_transmit),
                       ("receiver_forward", receiver_forward)):
        monkeypatch.setattr(pipeline, name, fake)
    monkeypatch.setattr(harness.GmmDenoiser, "predict", predict)
    rows, _ = command(cfg, tmp_path)

    seeds = list(cfg.sweep.seeds)
    assert calls["sample"] == seeds
    encodes = {(r.seed, r.t_f1 if r.system == "proposed" else 0) for r in rows}
    assert sorted(calls["encode"]) == sorted(encodes)
    legs = {(r.seed, r.t_f1, r.t_f2, r.snr_db, r.system) for r in rows}
    assert sorted(calls["forward"]) == sorted(legs)
    per_cell = sum(r.t_b_resolved + (r.t_f1 + r.t_f2 if r.system == "proposed" else 0)
                   for r in rows)
    assert per_cell - calls["predict"] == saved


def _sweep_peak_traced_memory(tmp_path, seeds):
    cfg = small_cfg()
    cfg = replace(cfg, source=replace(cfg.source, dimension=64),
                  sweep=replace(cfg.sweep, snr_db=(5.0,), seeds=seeds, n_per_cell=256))
    tracemalloc.start()
    try:
        harness.cmd_sweep(cfg, tmp_path / f"seeds{len(seeds)}")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_seed_memo_freed_when_its_seed_ends(tmp_path):
    # a seed's shared state (over 1 MiB at n = 256, d = 64) is freed before
    # the next seed starts: four seeds peak no higher than one, up to 64 KiB
    # of rows and bookkeeping
    _sweep_peak_traced_memory(tmp_path / "warm", (0,))  # fills the module caches
    one = _sweep_peak_traced_memory(tmp_path, (0,))
    four = _sweep_peak_traced_memory(tmp_path, (0, 1, 2, 3))
    assert four <= one + 64 * 1024, (one, four)


def test_pool_capped_at_seed_count(tmp_path, monkeypatch):
    # a grid runs one task per seed on at most one worker per usable CPU, so
    # --jobs above either count forks no idle workers: one seed or one CPU
    # runs serially, two seeds on three CPUs on two workers.  --jobs 100000
    # would otherwise fork 100,000 workers at the pool's first task.
    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    for seeds, cpus in (((0,), 3), ((0, 1), 1), ((0, 1), 3)):
        usable_cpus(monkeypatch, cpus)
        cfg = small_cfg()
        cfg = replace(cfg, sweep=replace(cfg.sweep, snr_db=(5.0,), seeds=seeds))  # 2 cells a seed
        _, serial = harness.cmd_sweep(cfg, tmp_path / f"serial{len(seeds)}-{cpus}")
        _, pooled = harness.cmd_sweep(with_jobs(cfg, 100_000),
                                      tmp_path / f"jobs-{len(seeds)}-{cpus}")
        assert Path(pooled).read_bytes() == Path(serial).read_bytes()
        assert sizes == ([2] if (len(seeds), cpus) == (2, 3) else [])


_build_log = None  # the file _build_objects_logged appends each caller's pid to
_real_build_objects = harness.build_objects


def _build_objects_logged(cfg, **kwargs):
    # logs to a file, so that a call in a forked pool worker is seen too
    with open(_build_log, "a") as fh:
        fh.write(f"{os.getpid()}\n")
    return _real_build_objects(cfg, **kwargs)


def test_sweep_builds_objects_once_per_command(tmp_path, monkeypatch):
    real_build = harness.build_objects
    calls = []

    def counting(cfg, **kwargs):
        # the output directories present when the objects are built
        calls.append((cfg, sorted(os.listdir(tmp_path))))
        return real_build(cfg, **kwargs)

    monkeypatch.setattr(harness, "build_objects", counting)
    usable_cpus(monkeypatch, 2)
    cfg = small_cfg()
    rows, _ = harness.cmd_sweep(cfg, tmp_path / "a")
    assert len(rows) == 8 and calls == [(cfg, [])]
    harness.cmd_sweep(cfg, tmp_path / "b")
    assert calls == [(cfg, []), (cfg, ["a"])]
    # a pool's workers take the parent's objects
    harness.cmd_sweep(with_jobs(cfg, 2), tmp_path / "c")
    assert calls == [(cfg, []), (cfg, ["a"]), (with_jobs(cfg, 2), ["a", "b"])]
    # the workers of a --jobs 2 grid call build_objects zero times
    monkeypatch.setitem(globals(), "_build_log", str(tmp_path / "builds.log"))
    monkeypatch.setattr(harness, "build_objects", _build_objects_logged)
    harness.cmd_sweep(with_jobs(cfg, 2), tmp_path / "d")
    assert (tmp_path / "builds.log").read_text().split() == [str(os.getpid())]


def _blas_threads_in_pool_worker():
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def test_pool_workers_run_single_threaded_blas():
    with ProcessPoolExecutor(max_workers=1, initializer=harness._single_thread_blas) as pool:
        threads = pool.submit(_blas_threads_in_pool_worker).result()
    if threads is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    assert threads == 1


def test_sweep_auto_t_b_non_increasing_in_snr(tmp_path):
    cfg = small_cfg()
    cfg = replace(cfg, sweep=replace(cfg.sweep, snr_db=(0.0, 5.0, 10.0, 15.0, 20.0)))
    rows, _ = harness.cmd_sweep(cfg, tmp_path)
    for system in ("proposed", "random_noise"):
        for seed in (0, 1):
            tbs = [r.t_b_resolved for r in rows if (r.system, r.seed) == (system, seed)]
            assert len(tbs) == 5 and all(a >= b for a, b in zip(tbs, tbs[1:]))


def test_sweep_emits_svg(tmp_path):
    cfg = small_cfg()
    harness.cmd_sweep(replace(cfg, sweep=replace(cfg.sweep, plot=True)), tmp_path)
    assert (tmp_path / "sweep_mse.svg").exists()
    assert (tmp_path / "sweep_sw2.svg").exists()


def test_plot_off_overrides_config_plot(tmp_path):
    cfg = tmp_path / "plot.ini"
    cfg.write_text("[source]\ndimension = 8\n"
                   "[sweep]\nsnr_db = 5\nseeds = 0\nn_per_cell = 16\nplot = true\n")
    on, off = tmp_path / "on", tmp_path / "off"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(on)]) == 0
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(off), "--plot", "off"]) == 0
    assert sorted(p.name for p in on.iterdir()) == ["sweep.csv", "sweep_mse.svg", "sweep_sw2.svg"]
    assert [p.name for p in off.iterdir()] == ["sweep.csv"]
    assert (off / "sweep.csv").read_bytes() == (on / "sweep.csv").read_bytes()


def test_sweep_runs_one_trial_per_cell(tmp_path, monkeypatch):
    cfg = small_cfg()
    cfg = replace(cfg, sweep=replace(cfg.sweep, snr_db=(5.0,), seeds=(0,)))
    real_run_trial = pipeline.run_trial
    calls = []

    def counting(pipe_cfg, *args, **kwargs):
        calls.append((pipe_cfg.t_f1, pipe_cfg.t_f2))
        return real_run_trial(pipe_cfg, *args, **kwargs)

    # the proposed cell calls harness's run_trial, the baseline's runner pipeline's
    monkeypatch.setattr(harness, "run_trial", counting)
    monkeypatch.setattr(pipeline, "run_trial", counting)
    rows, _ = harness.cmd_sweep(cfg, tmp_path)
    # one run per cell, the baseline's on split (0, T_F)
    assert len(rows) == 2  # proposed + baseline
    assert sorted(calls) == sorted(
        (r.t_f1, r.t_f2) if r.system == "proposed" else (0, r.t_f1 + r.t_f2) for r in rows
    )


def test_random_noise_rows_report_cell_split_and_config_modes(tmp_path):
    # the baseline runs on split (0, T_F) with a stochastic receiver leg, but
    # its row reports the cell's split and the inverting transmitter
    cfg = small_cfg()
    sweep_rows, _ = harness.cmd_sweep(cfg, tmp_path / "sweep")
    ablate_rows, _ = harness.cmd_ablate(cfg, tmp_path / "ablate")
    for rows, split in ((sweep_rows, (cfg.pipeline.t_f1, cfg.pipeline.t_f2)),
                        (ablate_rows, (5, 5))):
        baseline = [r for r in rows if r.system == "random_noise"]
        assert baseline
        for r in baseline:
            assert (r.t_f1, r.t_f2) == split
            assert r.transmitter_mode == "ddim_inversion"
            assert r.receiver_forward_mode == "stochastic"


def test_partial_rows_flushed_on_abort(tmp_path, monkeypatch):
    # the sweep is SNR-major and runs seed by seed: a failed cell of seed 1
    # leaves the rows before seed 1's first cell, seed 0's two 0 dB rows
    cfg = small_cfg()
    _, full = harness.cmd_sweep(cfg, tmp_path / "full")
    real_run_cell = harness.run_cell

    def exploding(cfg_, objects, cell):
        if (cell.seed, cell.snr_db, cell.system) == (1, 10.0, "proposed"):
            raise RuntimeError("boom")
        return real_run_cell(cfg_, objects, cell)

    monkeypatch.setattr(harness, "run_cell", exploding)
    with pytest.raises(RuntimeError):
        harness.cmd_sweep(cfg, tmp_path / "aborted")
    lines = (tmp_path / "aborted" / "sweep.csv").read_text().splitlines()
    assert lines == Path(full).read_text().splitlines()[:1 + 2]  # the flushed prefix
    assert [line.split(",")[8] for line in lines[1:]] == ["0", "0"]  # seed 0's rows


_started_log = None  # the file _run_cell_failing_at_seed_1 appends each started cell to
_real_run_cell = harness.run_cell


def _run_cell_failing_at_seed_1(cfg, objects, cell):
    # logs to a file, so that the cells that forked pool workers start are seen too
    with open(_started_log, "a") as fh:
        fh.write(f"{cell.seed}\n")
    if cell.seed == 1:
        raise RuntimeError("cell failed")
    if cell.seed > 1:
        time.sleep(0.1)  # later cells outlast the report of the failure
    return _real_run_cell(cfg, objects, cell)


def test_failed_cell_under_jobs_cancels_the_rest(tmp_path, monkeypatch):
    # a pool stops at a failed cell and writes the serial run's prefix rows
    monkeypatch.setattr(harness, "run_cell", _run_cell_failing_at_seed_1)
    usable_cpus(monkeypatch, 2)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[source]\ndimension = 8\n[sweep]\nsnr_db = 5\nseeds = 0..9\nn_per_cell = 16\n")
    csv = {}
    for jobs in ("1", "2"):
        monkeypatch.setitem(globals(), "_started_log", str(tmp_path / f"started{jobs}"))
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 3
        csv[jobs] = (out / "sweep.csv").read_bytes()
    assert csv["2"] == csv["1"]
    assert len(csv["1"].splitlines()) == 1 + 2  # header and seed 0's two cells
    assert len((tmp_path / "started2").read_text().split()) < 20  # the grid's size


def _run_cell_crashing_at_seed_1_baseline(cfg, objects, cell):
    if (cell.seed, cell.system) == (1, "random_noise"):
        os._exit(7)  # the worker process dies without raising
    return _real_run_cell(cfg, objects, cell)


def test_crashed_pool_worker_exits_3_with_prefix_rows(tmp_path, monkeypatch, capsys):
    # a worker that dies mid-cell breaks the pool: the command exits 3, and
    # sweep.csv keeps the rows that arrived before it, in the serial order
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[source]\ndimension = 8\n[sweep]\nsnr_db = 5\nseeds = 0..3\nn_per_cell = 16\n")
    serial, crashed = tmp_path / "serial", tmp_path / "crashed"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(serial)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(harness, "run_cell", _run_cell_crashing_at_seed_1_baseline)  # before the fork
    usable_cpus(monkeypatch, 2)  # a serial run of this cell would end the test process
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(crashed), "--jobs", "2"]) == 3
    assert "terminated abruptly" in capsys.readouterr().err
    lines = (crashed / "sweep.csv").read_text().splitlines()
    expected = (serial / "sweep.csv").read_text().splitlines()
    assert len(expected) == 1 + 8
    assert lines[0] == RESULT_HEADER
    assert len(lines) <= 1 + 3  # the crashed cell is the grid's fourth
    assert lines == expected[:len(lines)]


def test_ablate_grid(tmp_path):
    rows, path = harness.cmd_ablate(small_cfg(), tmp_path)
    # per seed: 3 splits x 2 depth modes + 1 baseline row
    assert len(rows) == 2 * 7
    splits = {(r.t_f1, r.t_f2) for r in rows if r.system == "proposed"}
    assert splits == {(10, 0), (5, 5), (0, 10)}
    forced = [r for r in rows if r.t_b_mode == "t_f"]
    assert all(r.t_b_resolved == r.t_f1 + r.t_f2 for r in forced)
    assert any(r.system == "random_noise" for r in rows)
    assert all(np.isfinite(r.sw2) and np.isfinite(r.mse) for r in rows)


def test_ablate_rows_at_pipeline_split_match_sweep_rows(tmp_path):
    # ablate runs at channel.snr_db on the sweep's seeds and cell size, so its
    # rows at [pipeline]'s split and auto depth are the sweep's rows at that
    # SNR, proposed and baseline alike
    cfg = small_cfg()
    cfg = replace(cfg, sweep=replace(cfg.sweep, snr_db=(0.0, cfg.channel.snr_db)))
    _, sweep_csv = harness.cmd_sweep(cfg, tmp_path / "sweep")
    _, ablate_csv = harness.cmd_ablate(cfg, tmp_path / "ablate")

    def lines(path, keep):
        header, *rows = Path(path).read_text().splitlines()
        return [line for line in rows if keep(dict(zip(header.split(","), line.split(","))))]

    split = (str(cfg.pipeline.t_f1), str(cfg.pipeline.t_f2), "auto")
    sweep = lines(sweep_csv, lambda r: float(r["snr_db"]) == cfg.channel.snr_db)
    ablate = lines(ablate_csv, lambda r: (r["t_f1"], r["t_f2"], r["t_b_mode"]) == split)
    assert len(sweep) == 2 * len(cfg.sweep.seeds)
    assert ablate == sweep


def test_ablate_directions_on_structured_source(tmp_path):
    # through the command surface: forced depth hurts sw2 and the random-noise
    # baseline loses to inversion on the tight/wide source
    cfg = ExperimentConfig()
    cfg = replace(
        cfg,
        source=replace(
            cfg.source, dimension=64, weights=(0.5, 0.5), means=(0.9, -0.9),
            variances=(0.05, 0.75),
        ),
        channel=replace(cfg.channel, model="real_simplified"),
        sweep=replace(cfg.sweep, seeds=tuple(range(6)), n_per_cell=128),
    )
    rows, _ = harness.cmd_ablate(cfg, tmp_path)
    by = {}
    for r in rows:
        by.setdefault((r.system, r.t_f1, r.t_f2, r.t_b_mode), {})[r.seed] = r
    auto = by[("proposed", 5, 5, "auto")]
    forced = by[("proposed", 5, 5, "t_f")]
    baseline = by[("random_noise", 5, 5, "auto")]
    auto_beats_forced = sum(auto[s].sw2 < forced[s].sw2 for s in auto)
    auto_beats_base = sum(
        auto[s].sw2 < baseline[s].sw2 and auto[s].mse < baseline[s].mse for s in auto
    )
    assert auto_beats_forced > len(auto) / 2
    assert auto_beats_base >= 0.8 * len(auto)


def test_verify_prop1_pass_and_negative_control(tmp_path, capsys, mis_index_budget):
    # prop-1 needs a dimension where per-sample gamma concentrates
    cfg = small_cfg()
    cfg = replace(cfg, source=replace(cfg.source, dimension=32))
    code, report = harness.cmd_verify_prop1(cfg, tmp_path)
    assert code == 0
    assert (tmp_path / "prop1_report.csv").exists()
    out = capsys.readouterr().out
    assert "prop1" in out
    mis_index_budget()
    code_bad, _ = harness.cmd_verify_prop1(cfg, tmp_path)
    assert code_bad == 1


def test_train_command_and_reload(tmp_path):
    cfg = small_cfg()
    ckpt, loss_csv = harness.cmd_train(cfg, tmp_path / "r1")
    params = load_checkpoint(ckpt)
    assert params.d == 8
    lines = Path(loss_csv).read_text().splitlines()
    assert lines[0] == "iteration,loss"
    assert len(lines) == 1 + 120
    ckpt2, loss2 = harness.cmd_train(cfg, tmp_path / "r2")
    assert Path(ckpt).read_bytes() == Path(ckpt2).read_bytes()
    assert Path(loss_csv).read_text() == Path(loss2).read_text()


def test_train_then_sweep_on_one_mlp_config(tmp_path):
    # train writes the checkpoint that the same config's denoiser loads
    out = tmp_path / "out"
    cfg = tmp_path / "mlp.ini"
    cfg.write_text(
        "[source]\ndimension = 8\n"
        f"[denoiser]\ncheckpoint = {out / 'denoiser.ckpt'}\n"
        "[train]\niterations = 20\n"
        "[sweep]\nsnr_db = 5\nseeds = 0\nn_per_cell = 8\n")
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert len((out / "sweep.csv").read_text().splitlines()) == 3  # proposed and baseline


def test_checkpoint_of_other_dimension_exits_2_before_output(tmp_path, capsys):
    ckpt = tmp_path / "d8.ckpt"
    save_checkpoint(init_mlp(8, 8, 1, np.random.default_rng(0)), ckpt)
    cfg = tmp_path / "d16.ini"
    cfg.write_text(f"[source]\ndimension = 16\n[denoiser]\ncheckpoint = {ckpt}\n"
                   "[sweep]\nsnr_db = 5\nseeds = 0\nn_per_cell = 8\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert not (out / "sweep.csv").exists()
    assert "has dimension 8, source.dimension = 16" in capsys.readouterr().err


def test_stochastic_verify_prop1_loads_no_denoiser(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    text = ("[source]\ndimension = 32\n"
            "[denoiser]\ncheckpoint = /missing/net.ckpt\n"
            "[prop1]\nn_samples = 10000\n")
    cfg.write_text(text)
    assert cli.main(["verify-prop1", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    # the validator simulates only the stochastic transmitter
    cfg.write_text(text + "transmitter_mode = ddim_inversion\n")
    capsys.readouterr()
    assert cli.main(["verify-prop1", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 2
    assert not (tmp_path / "b").exists()
    assert (f"{cfg}:7: prop1.transmitter_mode: expected one of stochastic, "
            "got 'ddim_inversion'") in capsys.readouterr().err


def _rows_for_plot():
    rows = []
    for snr in (0.0, 5.0, 10.0, 15.0, 20.0):
        for seed in (0, 1, 2):
            rows.append(ResultRow(
                snr_db=snr, t_f1=5, t_f2=5, t_b_resolved=12, system="proposed",
                transmitter_mode="ddim_inversion", receiver_forward_mode="ddim_inversion",
                t_b_mode="auto", seed=seed, mse=0.1 + 0.01 * snr + 0.001 * seed,
                nmse=0.1, sw2=0.2 - 0.005 * snr, mmd2=0.0, sigma_eps2=0.2,
                sigma_n2=0.1, sigma_tot2=0.3, gamma_mean=1.0, saturated=False,
            ))
    return rows


def test_svg_marker_count_and_determinism():
    rows = _rows_for_plot()
    svg1 = svgplot.emit_svg_plot(rows, "mse")
    svg2 = svgplot.emit_svg_plot(rows, "mse")
    assert svg1 == svg2
    assert svg1.count("<circle") == 5  # one marker per SNR point per series
    assert svg1.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in svg1


def test_svg_unknown_metric_and_empty():
    rows = _rows_for_plot()
    with pytest.raises(ParameterError, match="psnr"):
        svgplot.emit_svg_plot(rows, "psnr")
    with pytest.raises(ParameterError):
        svgplot.emit_svg_plot([], "mse")


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[chanel]\nsnr_db = 5\n")
    code = cli.main(["sweep", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert cli.main(["sweep", "--config", "/does/not/exist.ini"]) == 2
    # a directory and a file that is not UTF-8 cannot be read
    latin1 = tmp_path / "latin1.ini"
    latin1.write_bytes(b"[run]\nseed = 1\n# caf\xe9\n")
    for i, path in enumerate((tmp_path, latin1)):
        out = tmp_path / f"unreadable{i}"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 2, path
        assert not out.exists(), path
        assert f"config error: cannot read config file {path}" in capsys.readouterr().err
    bogus = tmp_path / "bogus.ini"
    bogus.write_text("[channel]\nmodel = bogus\n")
    assert cli.main(["sweep", "--config", str(bogus), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()

    small = "[source]\ndimension = 8\n[sweep]\nsnr_db = 5\nseeds = 0\nn_per_cell = 16\n"
    for i, text in enumerate([
        small + "[channel]\nsnr_db = nan\n",
        small.replace("snr_db = 5", "snr_db = 5 nan"),
        small.replace("n_per_cell = 16", "n_per_cell = 1"),
        small.replace("dimension = 8", "dimension = 7"),
        small + "[pipeline]\nt_f1 = -1\n",
        small + "[pipeline]\nt_f2 = -1\n",
        small + "[pipeline]\nguidance_scale = 1.5\n",
        small + "[run]\njobs = 0\n",
        small + "[pipeline]\nt_b = 0\n",
        small + "[prop1]\nn_samples = 500\n",
        small + "[run]\nseed = -1\n",
        small.replace("seeds = 0", "seeds = 0 -1"),
        small.replace("dimension = 8", "dimension = 0"),
        small.replace("dimension = 8", "dimension = 8\nmeans = 1e154"),
        small.replace("dimension = 8", "dimension = 8\nmeans = 1e200"),
        small.replace("dimension = 8", "dimension = 8\nmeans = 1e50\nvariances = 1e-300"),
    ]):
        path = tmp_path / f"bad{i}.ini"
        path.write_text(text)
        out = tmp_path / f"o{i}"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 2, text
        assert not out.exists(), text
    capsys.readouterr()
    # the split and a fixed depth are checked against the plan's 50 steps,
    # and a zero depth against the split, at the [pipeline] header (line 7)
    for name, text, message in (
        ("long_split", "t_f1 = 40\nt_f2 = 20\n", "t_f1 + t_f2 = 60 exceeds the plan's 50 steps"),
        ("deep_t_b", "t_b = 60\n", "t_b = 60 exceeds the plan's 50 steps"),
        ("zero_t_b", "t_b = 0\n", "t_b = 0 needs an empty split (t_f1 = t_f2 = 0)"),
    ):
        path = tmp_path / f"{name}.ini"
        path.write_text(small + "[pipeline]\n" + text)
        for command in ("sweep", "ablate", "verify-prop1", "train"):
            out = tmp_path / f"{name}_{command}"
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2, command
            assert not out.exists(), command
            assert f"config error: {path}:7: [pipeline]: {message}\n" == capsys.readouterr().err, \
                command
    good = tmp_path / "good.ini"
    good.write_text(small)
    for command in ("sweep", "verify-prop1", "train"):
        out = tmp_path / f"neg_seed_{command}"
        assert cli.main([command, "--config", str(good), "--out", str(out), "--seed", "-1"]) == 2
        assert not out.exists()
    for jobs in ("0", "-3"):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(["sweep", "--config", str(good), "--out", str(out), "--jobs", jobs]) == 2
        assert not out.exists()
    for i, text in enumerate([
        "[train]\nhidden = 0\n",
        "[train]\ntime_embed = 7\n",
        "[train]\ntime_embed = 0\n",
        "[train]\nlearning_rate = -0.1\n",
        "[train]\nbatch_size = 0\n",
        "[train]\niterations = 0\n",
        "[train]\nbeta1 = 1\n",
        "[train]\nbeta2 = 1\n",
        "[train]\nbeta2 = -0.1\n",
    ]):
        path = tmp_path / f"bad_train{i}.ini"
        path.write_text(small + text)
        out = tmp_path / f"t{i}"
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 2, text
        assert not out.exists(), text
    # an mlp checkpoint that cannot be loaded
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(init_mlp(8, 8, 1, np.random.default_rng(0)), ckpt)
    whole = ckpt.read_bytes()
    unloadable = {"missing": tmp_path / "missing.ckpt", "directory": tmp_path}
    for name, blob in (("truncated", whole[:10]), ("magic", b"NOPE" + whole[4:]),
                       ("version", whole[:4] + (99).to_bytes(4, "little") + whole[8:]),
                       ("nan", whole[:-8] + np.array([np.nan], "<f8").tobytes())):
        unloadable[name] = tmp_path / f"{name}.ckpt"
        unloadable[name].write_bytes(blob)
    # a time-embedding width that time_embedding cannot fill (odd or below 2)
    for t_emb in (15, 0):
        unloadable[f"t_emb_{t_emb}"] = tmp_path / f"t_emb_{t_emb}.ckpt"
        save_checkpoint(init_mlp(8, 8, 1, np.random.default_rng(0), t_emb=t_emb),
                        unloadable[f"t_emb_{t_emb}"])
    for name, target in unloadable.items():
        path = tmp_path / f"ckpt_{name}.ini"
        path.write_text(small + f"[denoiser]\ncheckpoint = {target}\n")
        for command in ("sweep", "ablate"):
            out = tmp_path / f"ckpt_{name}_{command}"
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2, name
            assert not out.exists(), name
    nan_snr = tmp_path / "nan_snr.ini"
    nan_snr.write_text("[channel]\nsnr_db = nan\n")
    out = tmp_path / "p"
    assert cli.main(["verify-prop1", "--config", str(nan_snr), "--out", str(out)]) == 2
    assert not out.exists()
    few = tmp_path / "few.ini"
    few.write_text("[prop1]\nn_samples = 500\n")
    out = tmp_path / "q"
    assert cli.main(["verify-prop1", "--config", str(few), "--out", str(out)]) == 2
    assert not out.exists()


def test_source_of_large_finite_second_moment_runs(tmp_path):
    # at d = 8, sum(mean^2 + var) is 8e300 for a mean of 1e150 (from 1e154 it
    # overflows); a variance of 1e296 keeps the float batch's variance, and
    # so the nmse, above 0
    path = tmp_path / "mean_1e150.ini"
    path.write_text("[source]\ndimension = 8\nmeans = 1e150\nvariances = 1e296\n"
                    "[sweep]\nsnr_db = 5\nseeds = 0\nn_per_cell = 4\n")
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_source_whose_metrics_overflow_exits_3(tmp_path, capsys):
    # means = 1e153 parses and builds (its second moment is finite), but the
    # unit spread of its batch is lost in float64, so nmse is infinite (and
    # sw2's squared projections overflow): a runtime failure, the same one
    # under either warnings filter
    path = tmp_path / "mean_1e153.ini"
    path.write_text("[source]\ndimension = 8\nmeans = 1e153\n"
                    "[sweep]\nsnr_db = 5\nseeds = 0\nn_per_cell = 4\n")
    for action in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            code = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / action)])
        assert code == 3
        assert capsys.readouterr().err == "error: metric nmse is not finite (inf)\n"


def test_python_m_runs_cli(tmp_path):
    import subprocess
    import sys

    cfg = tmp_path / "tiny.ini"
    cfg.write_text("[source]\ndimension = 8\n[sweep]\nsnr_db = 5\nseeds = 0\nn_per_cell = 8\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "diffsemcom", "sweep", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "sweep.csv").exists()


def test_cli_runtime_error_exit_code(tmp_path, capsys):
    # the checkpoint's weights are finite, but its prediction overflows at
    # the first step: the non-finite latent is reported under either
    # warnings filter
    params = init_mlp(8, 8, 1, np.random.default_rng(0))
    params.w3.fill(1e308)
    params.b3.fill(1e308)
    save_checkpoint(params, tmp_path / "big.ckpt")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[source]\ndimension = 8\n[denoiser]\n"
                   f"checkpoint = {tmp_path / 'big.ckpt'}\n"
                   "[sweep]\nsnr_db = 5\nseeds = 0\nn_per_cell = 8\n")
    for action in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            code = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / action)])
        assert code == 3
        assert capsys.readouterr().err == "error: latent values must be finite\n"


def test_cli_out_dir_resolution(tmp_path):
    # --out, else the config's [output] directory
    cfg_dir = tmp_path / "from_config"
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(
        "[source]\ndimension = 8\n"
        "[sweep]\nsnr_db = 5\nseeds = 0\nn_per_cell = 16\n"
        f"[output]\ndirectory = {cfg_dir}\n"
    )
    flag_dir = tmp_path / "from_flag"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(flag_dir)]) == 0
    assert (flag_dir / "sweep.csv").exists()
    assert not cfg_dir.exists()
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 0
    assert (cfg_dir / "sweep.csv").exists()
