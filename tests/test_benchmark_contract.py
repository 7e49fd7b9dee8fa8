import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _bench_env():
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                PYTHONPATH=os.pathsep.join(os.path.join(ROOT, d) for d in ("src", "perfbench")))


# Spans that a traced sweep leaves at 0 calls, and why.
EXPECTED_ZERO = {
    "metrics.median_bandwidth": "stale: mmd2_unbiased no longer calls it (ROADMAP item 1)",
    "noise_budget.validate_prop1": "verify-prop1 only",
    "mlp.loss_and_grads": "train only",
    "mlp.mlp_predict": "the mlp denoiser only",
    "mlp.train_denoiser": "train only",
}

TRACED_SWEEP = """
import json, sys
import trace_run
from diffsemcom import cli
names = trace_run.span_names()
tracer = trace_run.Tracer()
tracer.install(names)
code = cli.main(["sweep", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"exit": code, "stats": tracer.summary(names)["stats"]}))
"""


def test_tracer_finds_every_benchmark_span(tmp_path):
    # perfbench/trace_run.py wraps each span that BENCHMARK.json names by
    # looking the function up in the package; a deleted or renamed function
    # must fail here, not only in a traced benchmark run.  A tiny traced
    # sweep must then reach every grid-path span: a helper that calls past
    # a module global would silently zero a benchmark span.
    cfg = tmp_path / "tiny.ini"
    cfg.write_text("[source]\ndimension = 8\n"
                   "[sweep]\nsnr_db = 5\nseeds = 0..1\nn_per_cell = 16\n")
    proc = subprocess.run([sys.executable, "-c", TRACED_SWEEP, str(cfg), str(tmp_path / "out")],
                          cwd=ROOT, env=_bench_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit"] == 0
    calls = {name: s["calls"] for name, s in result["stats"].items()}
    zero = {name for name, n in calls.items() if n == 0}
    assert zero == set(EXPECTED_ZERO), {name: calls[name] for name in zero ^ set(EXPECTED_ZERO)}
    assert calls["harness.run_cell"] == 4  # one SNR x two seeds x (proposed, baseline)
    assert calls["pipeline.run_baseline_random_noise"] == 2  # one per baseline cell


RENDERED_WORKLOADS = """
import sys
from pathlib import Path
import run
from diffsemcom import cli
from diffsemcom.config import parse_config
for workload in run.WORKLOADS.values():
    config = Path(sys.argv[1]) / f"{workload.name}.ini"
    run.render_config(workload, config)
    parse_config(config)
    cli._build_parser().parse_args(run.cli_argv(workload, config, 1, workload.jobs, "out"))
    print(workload.name)
"""


def test_every_benchmark_workload_renders_a_config_and_argv_the_cli_accepts(tmp_path):
    # perfbench/run.py renders each workload's config from configs/ and
    # builds its command line; a removed key or flag that a workload still
    # uses must fail here, not only in a benchmark run
    proc = subprocess.run([sys.executable, "-c", RENDERED_WORKLOADS, str(tmp_path)],
                          cwd=ROOT, env=_bench_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = set(proc.stdout.split())
    assert {"sweep-serial", "ablate-jobs2", "prop1-large", "train-mlp"} <= names

