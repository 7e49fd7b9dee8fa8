"""Traced, serial, in-process runs of one diffsemcom CLI command.

    PYTHONPATH=src python3 perfbench/trace_run.py RESULT.json OUT_PREFIX -- CLI-ARGS...

Runs ``diffsemcom.cli.main(CLI-ARGS + ["--out", OUT_PREFIX + suffix])`` four
times in this process: an untimed warm-up (first calls pay for lazy set-up),
once untraced, then twice with spans recorded around the calls into each
layer.  The traced functions are the spans that the
``per_layer`` metrics of BENCHMARK.json name (``<module>.<function>.<field>``).
Two of them are not plain module functions:

* ``denoisers.predict`` wraps ``predict`` on every ``Denoiser`` subclass;
* ``pipeline.decode`` wraps ``run_ddim_sample`` as ``pipeline`` calls it.

A span holds its name, start, end, parent span and request id (the grid cell,
or 0 outside any cell).  Spans are kept in memory and written to
``OUT_PREFIX-spans<i>.csv`` when each pass ends.  A span's self time is its
duration minus the time its direct children cover.  RESULT.json receives,
per pass, the wall time, the CLI exit code and per-span calls, rows, self
and total seconds; perfbench/run.py turns these into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

from diffsemcom import cli, denoisers, pipeline

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SPAN_FIELDS = ("calls", "rows", "self_s")


def span_names(spec_path=SPEC):
    """Spans that the per-layer metrics of the benchmark spec need."""
    metrics = json.loads(Path(spec_path).read_text())["per_layer"]
    names = set()
    for metric in metrics:
        span, _, field = metric["name"].rpartition(".")
        if field in SPAN_FIELDS:
            names.add(span)
    return sorted(names)


class Tracer:
    """In-memory span recorder; one instance serves every pass."""

    def __init__(self):
        self._originals = {}
        self.reset()

    def reset(self):
        self.spans = []     # [name, start, end, parent, request, self_s, rows]
        self.open = []      # indices of the spans still running
        self.covered = []   # child time inside each open span
        self.request = 0
        self.cells = 0
        self.cell_seed = None
        self.encodes = []   # (cell seed, t_f1, t_f2) per encode_transmit call
        self.prop1_size = None

    def wrap(self, name, fn, hook=None):
        """fn recorded as span `name`; hook(args, kwargs) returns the rows handled."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            request = self.request
            rows = hook(args, kwargs) if hook is not None else 0
            span = [name, 0.0, 0.0, self.open[-1] if self.open else -1, self.request, 0.0, rows]
            self.open.append(len(self.spans))
            self.covered.append(0.0)
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.open.pop()
                duration = span[2] - span[1]
                span[5] = duration - self.covered.pop()
                if self.covered:
                    self.covered[-1] += duration
                self.request = request

        return traced

    def _bind(self, name, args, kwargs):
        return inspect.signature(self._originals[name]).bind(*args, **kwargs).arguments

    # Hooks: request ids, rows and the inputs of derived metrics.
    def _on_run_cell(self, args, kwargs):
        self.cells += 1
        self.request = self.cells
        self.cell_seed = self._bind("harness.run_cell", args, kwargs)["cell"].seed
        return 0

    def _on_encode(self, args, kwargs):
        split = self._bind("pipeline.encode_transmit", args, kwargs)["cfg"].split
        self.encodes.append((self.cell_seed, split.t_f1, split.t_f2))
        return 0

    def _on_validate_prop1(self, args, kwargs):
        bound = self._bind("noise_budget.validate_prop1", args, kwargs)
        self.prop1_size = (int(bound["n_samples"]), int(bound["source"].d))
        return 0

    @staticmethod
    def _on_predict(args, kwargs):
        z = kwargs["z"] if "z" in kwargs else args[1]
        shape = getattr(z, "shape", ())
        return int(shape[0]) if len(shape) > 1 else 1

    def install(self, names):
        """Replace every reference to each traced function by its wrapper."""
        hooks = {
            "harness.run_cell": self._on_run_cell,
            "pipeline.encode_transmit": self._on_encode,
            "noise_budget.validate_prop1": self._on_validate_prop1,
        }
        loaded = [m for key, m in sys.modules.items()
                  if key == "diffsemcom" or key.startswith("diffsemcom.")]
        for name in names:
            if name == "denoisers.predict":
                for cls in _subclasses(denoisers.Denoiser):
                    if "predict" in vars(cls):
                        cls.predict = self.wrap(name, vars(cls)["predict"], self._on_predict)
                continue
            if name == "pipeline.decode":
                pipeline.run_ddim_sample = self.wrap(name, pipeline.run_ddim_sample)
                continue
            module, _, function = name.partition(".")
            original = getattr(sys.modules[f"diffsemcom.{module}"], function)
            self._originals[name] = original
            wrapper = self.wrap(name, original, hooks.get(name))
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def summary(self, names):
        stats = {n: {"calls": 0, "rows": 0, "self_s": 0.0, "total_s": 0.0} for n in names}
        for name, start, end, _parent, _request, self_s, rows in self.spans:
            s = stats[name]
            s["calls"] += 1
            s["rows"] += rows
            s["self_s"] += self_s
            s["total_s"] += end - start
        return {
            "stats": stats,
            "encode_calls": len(self.encodes),
            "distinct_encodes": len(set(self.encodes)),
            "prop1_size": self.prop1_size,
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,request\n")
            for name, start, end, parent, request, _self_s, _rows in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{request}\n")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _timed_pass(cli_args, out):
    start = time.perf_counter()
    code = cli.main([*cli_args, "--out", out])
    return time.perf_counter() - start, code


def main(argv):
    result_path, out_prefix, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: trace_run.py RESULT.json OUT_PREFIX -- CLI-ARGS...")
    names = span_names()
    _, warmup_code = _timed_pass(cli_args, f"{out_prefix}-warmup")
    untraced_wall, untraced_code = _timed_pass(cli_args, f"{out_prefix}-untraced")
    tracer = Tracer()
    tracer.install(names)
    passes = []
    for i in range(2):
        tracer.reset()
        wall, code = _timed_pass(cli_args, f"{out_prefix}-traced{i}")
        tracer.write_spans(f"{out_prefix}-spans{i}.csv")
        passes.append({"wall_s": wall, "exit": code, **tracer.summary(names)})
    Path(result_path).write_text(json.dumps({
        "warmup_exit": warmup_code,
        "untraced_wall_s": untraced_wall,
        "untraced_exit": untraced_code,
        "passes": passes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
