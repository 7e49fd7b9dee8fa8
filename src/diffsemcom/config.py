"""Experiment configuration: flat-sectioned key=value files.

Every key is optional and falls back to a documented default; unknown
sections or keys are hard errors with the offending line number, so typos
cannot silently change an experiment.  ``serialize_config`` emits a
canonical file that reparses to an equal configuration.  A key decides what
a run computes; how it runs and where it writes are ``--jobs`` and ``--out``.

The section dataclasses, the runtime ``ChannelConfig``, ``PipelineConfig``
and ``TrainConfig`` among them, are the schema: a key's name, default and
single-key rule (``choices``, ``min`` or ``max`` metadata, which
``check_fields`` applies whenever the class is built) are its field's, and
its parser is chosen by the field's annotation; a class constant, such as
``TrainConfig``'s fixed network and recipe, is not a key.  A rule's error
names the key's line; a constructor's hand-written check (``PipelineConfig``'s
split counts, ``t_b`` and their bounds by the plan's steps) names the section
header's.  The one rule that spans two sections, that ``complex_paper``
needs an even ``source.dimension``, is checked by ``harness.build_objects``.
"""

from __future__ import annotations

import configparser
import math
import os
import re
from dataclasses import dataclass, field, fields

from .channel import MAX_SNR_DB, MIN_SNR_DB, ChannelConfig
from .errors import CheckedFields, ConfigError, FieldError, ParameterError
from .mlp import TrainConfig
from .noise_budget import MIN_PROP1_SAMPLES
from .pipeline import PipelineConfig

MAX_INTS = 1_000_000  # longest integer list (a..b ranges expanded) a key may hold


@dataclass(frozen=True)
class SourceSpec(CheckedFields):
    """Gaussian mixture over R^dimension: one list entry per component, and
    each component's mean and variance hold in every dimension."""

    dimension: int = field(default=16, metadata={"min": 1})
    weights: tuple[float, ...] = (1.0,)
    means: tuple[float, ...] = (0.0,)
    variances: tuple[float, ...] = (1.0,)


@dataclass(frozen=True)
class DenoiserSpec:
    checkpoint: str = ""  # empty: the analytic denoiser; else the MLP it holds


@dataclass(frozen=True)
class SweepSpec(CheckedFields):
    snr_db: tuple[float, ...] = field(default=(0.0, 5.0, 10.0, 15.0, 20.0),
                                      metadata={"min": MIN_SNR_DB, "max": MAX_SNR_DB})
    seeds: tuple[int, ...] = field(default=(0, 1, 2, 3, 4), metadata={"min": 0})
    n_per_cell: int = field(default=256, metadata={"min": 2})  # the MMD needs two samples
    plot: bool = False


@dataclass(frozen=True)
class Prop1Spec(CheckedFields):
    n_samples: int = field(default=20000, metadata={"min": MIN_PROP1_SAMPLES})
    # The validator simulates only the stochastic transmitter.  The key stays
    # with that one choice because the prop1-large benchmark workload sets it.
    transmitter_mode: str = field(default="stochastic", metadata={"choices": ("stochastic",)})


@dataclass(frozen=True)
class RunSpec(CheckedFields):
    seed: int = field(default=0, metadata={"min": 0})


@dataclass(frozen=True)
class ExperimentConfig:
    run: RunSpec = field(default_factory=RunSpec)
    source: SourceSpec = field(default_factory=SourceSpec)
    denoiser: DenoiserSpec = field(default_factory=DenoiserSpec)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    prop1: Prop1Spec = field(default_factory=Prop1Spec)
    train: TrainConfig = field(default_factory=TrainConfig)


# Section name -> its dataclass, in file order.
_SECTIONS = {f.name: f.default_factory for f in fields(ExperimentConfig)}


def _line_of(text: str, section: str, key: str | None = None) -> int:
    """Best-effort line number of a section header or key for diagnostics."""
    in_section = False
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if key is None and name == section:
                return i
            in_section = name == section
        elif key is not None and in_section:
            # configparser lowercases option names; the file may not.
            if re.match(rf"^\s*{re.escape(key)}\s*[=:]", line, re.IGNORECASE):
                return i
    return 0


def _to_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _to_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "on", "yes", "1"):
        return True
    if lowered in ("false", "off", "no", "0"):
        return False
    raise ValueError("expected a boolean (true/false/on/off)")


def _to_floats(raw: str) -> tuple[float, ...]:
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ValueError("expected at least one number")
    return tuple(_to_float(p) for p in parts)


def _to_ints(raw: str) -> tuple[int, ...]:
    out: list[int] = []
    for part in raw.replace(",", " ").split():
        if ".." in part:
            lo, hi = (int(end) for end in part.split("..", 1))
            if hi < lo:
                raise ValueError(f"descending range {part!r}")
            if len(out) + hi - lo + 1 > MAX_INTS:
                raise ValueError(f"more than {MAX_INTS} integers")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(part))
    if not out:
        raise ValueError("expected at least one integer")
    return tuple(out)


def _to_t_b(raw: str):
    return raw if raw == "auto" else int(raw)


# Field annotation -> (parser, what diagnostics call a value of that type).
_CONVERTERS = {
    "int": (int, "integer"),
    "float": (_to_float, "number"),
    "str": (str, "string"),
    "bool": (_to_bool, "boolean"),
    "tuple[float, ...]": (_to_floats, "number list"),
    "tuple[int, ...]": (_to_ints, "integer list"),
    "int | str": (_to_t_b, "step count"),
}


def _read_section(parser, text, path, section, cls):
    """Section dataclass ``cls`` from ``section``'s keys, each parsed by its
    field's annotation; a missing key (or section) keeps the field's default."""
    def fail(key, message):
        raise ConfigError(f"{path}:{_line_of(text, section, key)}: {section}.{key}: {message}")

    values = {}
    for f in fields(cls):
        if parser.has_option(section, f.name):  # False for a missing section
            convert, kind = _CONVERTERS[f.type]
            raw = parser.get(section, f.name).strip()
            try:
                values[f.name] = convert(raw)
            except ValueError as exc:  # a bad value names its key's line
                fail(f.name, f"invalid {kind} {raw!r} ({exc})")
    try:
        return cls(**values)
    except FieldError as exc:
        fail(exc.field, exc.reason)
    except (ParameterError, ConfigError) as exc:
        line = _line_of(text, section)
        raise ConfigError(f"{path}:{line}: [{section}]: {exc}") from exc


def parse_config(path) -> ExperimentConfig:
    """Read and fully validate a config file; unknown keys are errors."""
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    # No header can name the "" section, so [DEFAULT] is an ordinary, unknown one.
    parser = configparser.ConfigParser(interpolation=None, strict=True, default_section="")
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        lineno = getattr(exc, "lineno", None)
        where = f"{path}:{lineno}" if lineno else path
        raise ConfigError(f"{where}: syntax error: {exc.message}") from exc

    for section in parser.sections():
        if section not in _SECTIONS:
            first = next(iter(parser[section]), "")
            line = _line_of(text, section, first or None)
            shown = f"{section}.{first}" if first else f"[{section}]"
            raise ConfigError(f"{path}:{line}: unknown config key '{shown}'")
        allowed = {f.name for f in fields(_SECTIONS[section])}
        for key in parser[section]:
            if key not in allowed:
                line = _line_of(text, section, key)
                raise ConfigError(f"{path}:{line}: unknown config key '{section}.{key}'")

    return ExperimentConfig(**{name: _read_section(parser, text, path, name, cls)
                               for name, cls in _SECTIONS.items()})


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return " ".join(_fmt(v) for v in value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(parse(f))) == parse(f)."""
    lines: list[str] = []
    for name in _SECTIONS:
        spec = getattr(cfg, name)
        lines += [f"[{name}]", *(f"{f.name} = {_fmt(getattr(spec, f.name))}"
                                 for f in fields(spec)), ""]
    return "\n".join(lines)
