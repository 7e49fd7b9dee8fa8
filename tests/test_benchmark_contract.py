import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_tracer_finds_every_benchmark_span():
    # perfbench/trace_run.py wraps each span that BENCHMARK.json names by
    # looking the function up in the package; a deleted or renamed function
    # must fail here, not only in a traced benchmark run.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(os.path.join(ROOT, d) for d in ("src", "perfbench")))
    code = "import trace_run; trace_run.Tracer().install(trace_run.span_names())"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
