"""Every config that parses runs, or exits 2 before any output.

Config files are drawn from each section's field metadata: a key with
``choices`` takes one of them or an unknown word, any other key a value at
the edges of its type (0, 1e-300, 1e300, negative values, its ``min`` and
``max`` and the values just outside them, and its default's entries), and a
list key one or two such values.  Half the files start from a two-component
source, so a drawn ``weights``, ``means`` or ``variances`` list may leave the
mixture's lists of unequal lengths.  Runs stay tiny: d <= 8, one seed, one or
two SNRs and 2-4 samples per cell for ``sweep`` and ``ablate``, and at most
the default 20,000 samples for ``verify-prop1``.
"""

import contextlib
import io
import os
import re
import tempfile
from dataclasses import fields

from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffsemcom import cli
from diffsemcom.config import ExperimentConfig, parse_config

FLOAT_EDGES = (0.0, 1e-300, 1e300, -1.0, -1e300)

# Keys that set a run's size take values from small ranges, edges included.
SIZED = {
    ("source", "dimension"): st.integers(-1, 8),
    ("pipeline", "t_f1"): st.integers(-1, 12),
    ("pipeline", "t_f2"): st.integers(-1, 12),
    ("pipeline", "t_b"): st.one_of(st.just("auto"), st.integers(-1, 12)),
    ("sweep", "seeds"): st.integers(-1, 3),
    ("sweep", "n_per_cell"): st.integers(1, 4),
    ("run", "jobs"): st.integers(0, 1),
}
# File names: no edge value of theirs reaches sweep or ablate.
SKIPPED = {("denoiser", "checkpoint"), ("output", "directory")}
# Runtime failures that are meant to exit 3: whether a batch overflows
# depends on its draws, so no bound at parse time can be exact.
RUNTIME_FAILURES = re.compile(r"error: metric (mse|nmse|sw2|mmd2) is not finite")


def _edge_values(f):
    """Edge values of a section field, from its annotation and metadata; a
    list field's lists of one or two of them."""
    if "choices" in f.metadata:
        return st.sampled_from((*f.metadata["choices"], "bogus"))
    low, high = f.metadata.get("min"), f.metadata.get("max")
    edges = (() if low is None else (low, low - 1)) + (() if high is None else (high, high + 1))
    edges += f.default if isinstance(f.default, tuple) else (f.default,)
    if f.type in ("int", "tuple[int, ...]"):
        values = st.sampled_from((0, -1, *edges))
    elif f.type in ("float", "tuple[float, ...]"):
        values = st.sampled_from((*FLOAT_EDGES, *edges))
    else:
        return st.booleans() if f.type == "bool" else None
    return st.lists(values, min_size=1, max_size=2) if f.type.startswith("tuple") else values


KEYS = {(section.name, f.name): SIZED.get((section.name, f.name), _edge_values(f))
        for section in fields(ExperimentConfig) for f in fields(section.default_factory)
        if (section.name, f.name) not in SKIPPED}
KEYS = {key: values for key, values in KEYS.items() if values is not None}

BASE = {"source": {"dimension": 8},
        "sweep": {"snr_db": 5, "seeds": 0, "n_per_cell": 4}}
TWO_COMPONENTS = {"weights": [0.5, 0.5], "means": [0.9, -0.9], "variances": [0.05, 0.75]}


def _render(value):
    if isinstance(value, list):
        return " ".join(_render(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def config_texts(draw):
    sections = {name: dict(keys) for name, keys in BASE.items()}
    if draw(st.booleans()):
        sections["source"].update(TWO_COMPONENTS)
    for section, key in draw(st.lists(st.sampled_from(sorted(KEYS)), max_size=3, unique=True)):
        sections.setdefault(section, {})[key] = draw(KEYS[section, key])
    return "".join(f"[{name}]\n" + "".join(f"{k} = {_render(v)}\n" for k, v in keys.items())
                   for name, keys in sections.items())


def _expected_rows(path, command):
    cfg = parse_config(path)
    if command == "sweep":
        return len(cfg.sweep.snr_db) * len(cfg.sweep.seeds) * 2  # proposed and baseline
    return 7 * len(cfg.sweep.seeds)


def _tiny(source):
    return f"[source]\ndimension = 8\n{source}[sweep]\nsnr_db = 5\nseeds = 0\nn_per_cell = 4\n"


@settings(max_examples=100, deadline=None)
@given(text=config_texts())
# a gamma near 1e3 on the baseline's split once broke the budget identity;
# a source batch of zero float variance has an nmse of inf (exit 3); an SNR
# whose noise variance underflows to 0 once made the validator divide by 0;
# a mean that is large against a tiny variance once overflowed the score,
# and so did one component's mean against another's tiny variance, and a
# subnormal variance
@example(text=_tiny("variances = 1e-6\n"))
@example(text=_tiny("means = 1e153\n"))
@example(text=_tiny("means = 1e50\nvariances = 1e-300\n"))
@example(text=_tiny("means = 1e153\nvariances = 1e-300\n"))
@example(text=_tiny("[pipeline]\nt_f1 = 0\nt_f2 = 0\n[channel]\nsnr_db = 1e308\n"))
@example(text=_tiny("weights = 0.5 0.5\nmeans = 1e150 1e-100\nvariances = 1 1e-300\n"))
@example(text=_tiny("means = 0\nvariances = 1e-320\n"))
def test_every_parsed_config_runs_or_exits_2_before_output(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in ("sweep", "ablate", "verify-prop1"):
            out = os.path.join(tmp, command)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, "--config", path, "--out", out])
            if code == 2:
                assert not os.path.exists(out), (command, err.getvalue())
            elif command == "verify-prop1":
                assert code in (0, 1), (code, err.getvalue())
                assert os.path.exists(os.path.join(out, "prop1_report.csv"))
            elif code == 0:
                with open(os.path.join(out, f"{command}.csv"), encoding="utf-8") as fh:
                    rows = fh.read().splitlines()[1:]
                assert len(rows) == _expected_rows(path, command)
            else:
                assert code == 3 and RUNTIME_FAILURES.match(err.getvalue()), \
                    (command, code, err.getvalue())
