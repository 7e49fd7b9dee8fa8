import re
import string
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diffsemcom import cli
from diffsemcom.config import ExperimentConfig, parse_config, serialize_config
from diffsemcom.errors import ConfigError, FieldError
from diffsemcom.pipeline import PipelineConfig
from diffsemcom.schedule import K_STEPS


def write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_empty_file_gives_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, ""))
    assert cfg == ExperimentConfig()
    assert cfg.pipeline.t_b == "auto"
    assert cfg.sweep.seeds == (0, 1, 2, 3, 4)


def test_minimal_file_overrides(tmp_path):
    cfg = parse_config(write(tmp_path, "[channel]\nsnr_db = 12.5\n"))
    assert cfg.channel.snr_db == 12.5
    assert cfg.channel.model == "complex_paper"


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/conf.ini")


def test_unknown_section_named_in_error(tmp_path):
    path = write(tmp_path, "[chanel]\nsnr_db = 5\n")
    with pytest.raises(ConfigError, match=r"chanel\.snr_db"):
        parse_config(path)


def test_unknown_key_named_with_line(tmp_path):
    path = write(tmp_path, "[channel]\nsnr_db = 5\nsnr_dbx = 7\n")
    with pytest.raises(ConfigError, match=r"exp\.ini:3: unknown config key 'channel\.snr_dbx'"):
        parse_config(path)


def test_invalid_value_diagnostics(tmp_path):
    path = write(tmp_path, "[train]\niterations = lots\n")
    with pytest.raises(ConfigError, match=r"exp\.ini:2: train\.iterations"):
        parse_config(path)


@pytest.mark.parametrize("section,key", [
    ("channel", "model"),
    ("prop1", "transmitter_mode"),
])
def test_unknown_enumerated_value_rejected(tmp_path, section, key):
    path = write(tmp_path, f"[{section}]\n{key} = bogus\n")
    with pytest.raises(ConfigError, match=rf"exp\.ini:2: {section}\.{key}: .*'bogus'"):
        parse_config(path)


def test_key_in_other_letter_case_reported_at_its_line(tmp_path):
    path = write(tmp_path, "[channel]\nmodel = complex_paper\nSNR_DB = abc\n", "upper.ini")
    with pytest.raises(ConfigError, match=r"upper\.ini:3: channel\.snr_db: invalid number 'abc'"):
        parse_config(path)


@pytest.mark.parametrize("section,key,value,kind", [
    ("channel", "snr_db", "nan", "number"),
    ("channel", "snr_db", "-inf", "number"),
    ("channel", "snr_db", "inf", "number"),
    ("sweep", "snr_db", "5 nan", "number list"),
    ("source", "means", "0 inf", "number list"),
])
def test_non_finite_number_rejected(tmp_path, section, key, value, kind):
    path = write(tmp_path, f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=rf"exp\.ini:2: {section}\.{key}: invalid {kind} "
                                          r"'.*' \(expected a finite number\)"):
        parse_config(path)


_UNPARSEABLE = [
    ("source", "means", "", "invalid number list '' (expected at least one number)"),
    ("sweep", "seeds", "", "invalid integer list '' (expected at least one integer)"),
    ("sweep", "plot", "maybe", "invalid boolean 'maybe' (expected a boolean (true/false/on/off))"),
]


@pytest.mark.parametrize("section,key,value,message", _UNPARSEABLE,
                         ids=[f"{section}.{key}" for section, key, _, _ in _UNPARSEABLE])
def test_unparseable_value_rejected_at_its_line(tmp_path, section, key, value, message):
    path = write(tmp_path, f"[{section}]\n\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=rf"exp\.ini:3: {section}\.{key}: {re.escape(message)}$"):
        parse_config(path)


_BAD_VALUES = [
    ("[run]\nseed = abc\n",
     "run.seed: invalid integer 'abc' (invalid literal for int() with base 10: 'abc')"),
    ("[channel]\nsnr_db = nan\n", "channel.snr_db: invalid number 'nan' (expected a finite number)"),
    ("[sweep]\nseeds = 3..1\n", "sweep.seeds: invalid integer list '3..1' (descending range '3..1')"),
]


@pytest.mark.parametrize("text,message", _BAD_VALUES, ids=["integer", "nan", "descending"])
def test_unparseable_value_reported_once_on_stderr(tmp_path, capsys, text, message):
    # a key's own error is not wrapped again in its section header's line
    path = write(tmp_path, text)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {path}:2: {message}\n"


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nsnr_db = 40\n",
    "[DEFAULT]\nsnr_db = 40\n[channel]\nmodel = real_simplified\n",
    "[DEFAULT]\nsnr_db = 40\n[channel]\nmodel = real_simplified\n[run]\nseed = 1\n",
], ids=["alone", "with-channel", "with-run"])
def test_default_section_is_an_unknown_section(tmp_path, capsys, text):
    # read as every section's defaults, [DEFAULT] would be ignored or leak
    # its keys into the other sections
    path = write(tmp_path, text)
    for command in ("verify-prop1", "sweep", "ablate", "train"):
        out = tmp_path / command
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2, command
        assert not out.exists(), command
        assert capsys.readouterr().err \
            == f"config error: {path}:2: unknown config key 'DEFAULT.snr_db'\n", command


# Every key that an earlier version read, the guidance keys first.  A case's
# id is its key, or section.key where an earlier case has the same key name.
_REMOVED_KEYS = [
    ("pipeline", "guidance_scale"), ("pipeline", "guidance_label"),
    ("pipeline", "condition_receiver_forward"), ("pipeline", "transmitter_mode"),
    ("output", "dump_records"), ("train", "beta1"), ("train", "beta2"), ("train", "eps"),
    ("sweep", "baseline"), ("train", "checkpoint"), ("train", "loss_csv"),
    ("ablate", "snr_db"), ("ablate", "seeds"), ("ablate", "n_per_cell"),
    ("prop1", "gamma_mode"), ("schedule", "kind"), ("schedule", "t_train"),
    ("schedule", "beta_start"), ("schedule", "beta_end"), ("schedule", "k_steps"),
    ("pipeline", "receiver_forward_mode"), ("train", "learning_rate"), ("train", "batch_size"),
    ("train", "hidden"), ("train", "time_embed"), ("source", "components"),
    ("source", "weight_1"), ("source", "mean_1"), ("source", "var_1"), ("denoiser", "kind"),
]


_REMOVED_IDS = [key if all(k != key for _, k in _REMOVED_KEYS[:i]) else f"{section}.{key}"
                for i, (section, key) in enumerate(_REMOVED_KEYS)]


@pytest.mark.parametrize("section,key", _REMOVED_KEYS, ids=_REMOVED_IDS)
def test_removed_guidance_key_rejected_at_its_line(tmp_path, capsys, section, key):
    path = write(tmp_path, f"[run]\nseed = 1\n[{section}]\n\n{key} = 0\n")
    with pytest.raises(ConfigError, match=rf"exp\.ini:5: unknown config key '{section}\.{key}'"):
        parse_config(path)
    for command in ("verify-prop1", "sweep", "ablate", "train"):
        out = tmp_path / command
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2, command
        assert not out.exists(), command
        assert f"exp.ini:5: unknown config key '{section}.{key}'" in capsys.readouterr().err


def test_section_range_error_reported_at_section_line(tmp_path):
    path = write(tmp_path, "[channel]\nsnr_db = 5\n\n[pipeline]\nt_b = 3\nt_f1 = -1\n")
    with pytest.raises(ConfigError, match=r"exp\.ini:4: \[pipeline\]: split counts must be >= 0"):
        parse_config(path)


# (section, class, field) of every field that declares a rule.
_RULED = [(s.name, s.default_factory, f) for s in fields(ExperimentConfig)
          for f in fields(s.default_factory) if {"choices", "min", "max"} & f.metadata.keys()]


@pytest.mark.parametrize("section,cls,f", _RULED, ids=[f"{s}.{f.name}" for s, _, f in _RULED])
def test_field_rule_rejected_in_file_construction_and_replace(tmp_path, section, cls, f):
    if "choices" in f.metadata:
        bad = ["bogus"]
    else:  # just outside each bound, far above a maximum, and NaN
        bad = [f.metadata["min"] - 1] if "min" in f.metadata else []
        if "max" in f.metadata:
            bad += [f.metadata["max"] + 1, 1e308]
        if "float" in f.type:  # a file rejects "nan" as it parses; a caller can pass one
            bad.append(float("nan"))
    for text in bad:
        value = (text,) if f.type.startswith("tuple") else text
        path = write(tmp_path, f"[{section}]\n\n{f.name} = {text}\n")
        with pytest.raises(ConfigError, match=rf"exp\.ini:3: {section}\.{f.name}: "):
            parse_config(path)
        with pytest.raises(FieldError, match=rf"^{f.name}: "):
            cls(**{f.name: value})
        with pytest.raises(FieldError, match=rf"^{f.name}: "):
            replace(cls(), **{f.name: value})


def test_syntax_error_reported(tmp_path):
    path = write(tmp_path, "[channel\nsnr_db = 5\n")
    with pytest.raises(ConfigError, match="syntax error"):
        parse_config(path)


def test_seed_range_shorthand(tmp_path):
    cfg = parse_config(write(tmp_path, "[sweep]\nseeds = 0..3 10\n"))
    assert cfg.sweep.seeds == (0, 1, 2, 3, 10)
    assert parse_config(write(tmp_path, "[sweep]\nseeds = 2..2\n", "one.ini")).sweep.seeds == (2,)
    path = write(tmp_path, "[sweep]\nsnr_db = 5\nseeds = 0 3..1\n", "down.ini")
    with pytest.raises(ConfigError, match=r"down\.ini:3: sweep\.seeds: invalid integer list "
                                          r"'0 3\.\.1' \(descending range '3\.\.1'\)"):
        parse_config(path)


def test_integer_list_longer_than_max_ints_rejected_at_its_line(tmp_path):
    # a range is sized before it is expanded, so a huge one fails at once
    path = write(tmp_path, "[sweep]\nsnr_db = 5\nseeds = 0..1000000000000\n")
    with pytest.raises(ConfigError, match=r"exp\.ini:3: sweep\.seeds: .*"
                                          r"\(more than 1000000 integers\)"):
        parse_config(path)
    path = write(tmp_path, "[sweep]\nseeds = 7 0..999999\n", "one_over.ini")
    with pytest.raises(ConfigError, match=r"one_over\.ini:2: sweep\.seeds: "):
        parse_config(path)


def test_t_b_forms(tmp_path):
    assert parse_config(write(tmp_path, "[pipeline]\nt_b = auto\n")).pipeline.t_b == "auto"
    assert parse_config(write(tmp_path, "[pipeline]\nt_b = 12\n", "b.ini")).pipeline.t_b == 12
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "[pipeline]\nt_b = -3\n", "c.ini"))


def test_t_b_rejects_non_integers_in_construction_and_replace():
    # a file parses t_b with int(); a library caller could pass 5.5, which
    # run_trial would truncate to depth 5
    for bad in (5.5, True, np.float64(5.0), "5"):
        with pytest.raises(ConfigError, match="t_b must be 'auto' or an integer >= 0"):
            PipelineConfig(t_b=bad)
        with pytest.raises(ConfigError, match="t_b must be 'auto' or an integer >= 0"):
            replace(PipelineConfig(), t_b=bad)
    assert PipelineConfig(t_b=np.int64(5)).t_b == 5
    empty = PipelineConfig(t_f1=0, t_f2=0)
    assert replace(empty, t_b=0).t_b == 0
    with pytest.raises(ConfigError, match=r"t_b = 0 needs an empty split"):
        replace(PipelineConfig(), t_b=0)


def test_source_lists(tmp_path):
    text = """
[source]
dimension = 4
weights = 0.25 0.75
means = 1, -1
variances = 0.5 0.1
"""
    source = parse_config(write(tmp_path, text)).source
    assert source.dimension == 4
    assert source.weights == (0.25, 0.75)
    assert source.means == (1.0, -1.0)
    assert source.variances == (0.5, 0.1)


def test_source_lists_of_unequal_length_exit_2_before_output(tmp_path, capsys):
    # each list parses on its own; the mixture built from them cannot
    path = write(tmp_path, "[source]\ndimension = 4\nweights = 0.5 0.5\nmeans = 1 -1 0\n")
    parse_config(path)
    for command in ("verify-prop1", "sweep", "ablate", "train"):
        out = tmp_path / command
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2, command
        assert not out.exists(), command
        assert "config error: invalid source mixture: inconsistent shapes" \
            in capsys.readouterr().err, command


def test_round_trip_default(tmp_path):
    cfg = parse_config(write(tmp_path, ""))
    path2 = write(tmp_path, serialize_config(cfg), "roundtrip.ini")
    assert parse_config(path2) == cfg


def test_round_trip_rich(tmp_path):
    text = """
[run]
seed = 7
jobs = 2

[source]
dimension = 8
weights = 0.5 0.5
means = 0.9 -0.9
variances = 0.05 0.75

[pipeline]
t_f1 = 3
t_f2 = 2
t_b = 9

[channel]
snr_db = 7.5
model = real_simplified

[sweep]
snr_db = 0 10
seeds = 0..2
n_per_cell = 32
plot = true
"""
    cfg = parse_config(write(tmp_path, text))
    path2 = write(tmp_path, serialize_config(cfg), "roundtrip.ini")
    cfg2 = parse_config(path2)
    assert cfg2 == cfg


def test_readme_table_lists_every_config_key():
    # the table's first cells, between "## Configuration" and the next section
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    listed = {key for line in section.splitlines() if line.startswith("| `")
              for key in re.findall(r"`([a-z0-9_]+\.[a-z0-9_]+)`", line.split(" | ")[0])}
    schema = {f"{s.name}.{f.name}" for s in fields(ExperimentConfig)
              for f in fields(s.default_factory)}
    assert listed == schema


def test_shipped_configs_parse():
    import os

    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in ("default.ini", "bimodal.ini"):
        cfg = parse_config(os.path.join(here, "configs", name))
        assert cfg.pipeline.t_f1 + cfg.pipeline.t_f2 <= K_STEPS


# Values from each field annotation's parser domain.  A field with a rule
# draws from its ``choices`` or between its ``min`` and ``max``; a section
# whose class checks its fields by hand is drawn by _HAND_CHECKED.  A field
# whose annotation is missing here fails the test.
_INTS = st.integers(-10**6, 10**6)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _pipelines(draw):
    """A split within the plan, and a depth that the split allows."""
    t_f1 = draw(st.integers(0, K_STEPS))
    t_f2 = draw(st.integers(0, K_STEPS - t_f1))
    lowest = 0 if t_f1 + t_f2 == 0 else 1
    return PipelineConfig(t_f1, t_f2, draw(st.one_of(st.just("auto"),
                                                     st.integers(lowest, K_STEPS))))


_HAND_CHECKED = {PipelineConfig: _pipelines()}
_VALUES = {
    "int": _INTS,
    "float": _FLOATS,
    "str": st.text(string.ascii_letters + string.digits + "._-/", max_size=12),
    "bool": st.booleans(),
    "tuple[float, ...]": st.lists(_FLOATS, min_size=1, max_size=4).map(tuple),
    "tuple[int, ...]": st.lists(_INTS, min_size=1, max_size=4).map(tuple),
}


def _ints(low, high):
    return st.integers(low, 10**6 if high is None else high)


_BETWEEN = {
    "int": _ints,
    "float": lambda low, high: st.floats(low, high, allow_infinity=False),
    "tuple[float, ...]": lambda low, high: st.lists(st.floats(low, high, allow_infinity=False),
                                                    min_size=1, max_size=4).map(tuple),
    "tuple[int, ...]": lambda low, high: st.lists(_ints(low, high),
                                                  min_size=1, max_size=4).map(tuple),
}


def _domain(f):
    if "choices" in f.metadata:
        return st.sampled_from(f.metadata["choices"])
    if {"min", "max"} & f.metadata.keys():
        return _BETWEEN[f.type](f.metadata.get("min"), f.metadata.get("max"))
    return _VALUES[f.type]


def _specs(cls):
    if cls in _HAND_CHECKED:
        return _HAND_CHECKED[cls]
    return st.builds(cls, **{f.name: _domain(f) for f in fields(cls)})


_CONFIGS = st.builds(ExperimentConfig, **{
    f.name: _specs(f.default_factory) for f in fields(ExperimentConfig)
})


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_CONFIGS)
def test_round_trip_every_field(tmp_path, cfg):
    path = write(tmp_path, serialize_config(cfg), "drawn.ini")
    assert parse_config(path) == cfg
