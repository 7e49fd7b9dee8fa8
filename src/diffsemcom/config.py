"""Experiment configuration: flat-sectioned key=value files.

Every key is optional and falls back to a documented default; unknown
sections or keys are hard errors with the offending line number, so typos
cannot silently change an experiment.  ``serialize_config`` emits a
canonical file that reparses to an equal configuration.
"""

from __future__ import annotations

import configparser
import os
import re
from dataclasses import dataclass, field, fields

from .channel import CHANNEL_MODELS
from .errors import ConfigError
from .noise_budget import GAMMA_MODES
from .pipeline import RECEIVER_FORWARD_MODES, TRANSMITTER_MODES

_SECTION_KEYS = {
    "run": {"seed", "jobs"},
    "schedule": {"kind", "t_train", "beta_start", "beta_end", "k_steps"},
    "source": {"dimension", "components"},  # + weight_i / mean_i / var_i
    "denoiser": {"kind", "checkpoint"},
    "pipeline": {
        "t_f1", "t_f2", "t_b", "transmitter_mode", "receiver_forward_mode",
        "guidance_scale", "guidance_label", "condition_receiver_forward",
    },
    "channel": {"snr_db", "model"},
    "sweep": {"snr_db", "seeds", "n_per_cell", "baseline", "plot"},
    "ablate": {"snr_db", "seeds", "n_per_cell"},
    "prop1": {"n_samples", "gamma_mode", "transmitter_mode"},
    "train": {
        "learning_rate", "batch_size", "iterations", "hidden", "time_embed",
        "beta1", "beta2", "eps", "checkpoint", "loss_csv",
    },
    "output": {"directory", "dump_records"},
}
_SOURCE_DYNAMIC = re.compile(r"^(weight|mean|var)_([0-9]+)$")


@dataclass(frozen=True)
class ComponentSpec:
    weight: float = 1.0
    mean: tuple[float, ...] = (0.0,)
    var: tuple[float, ...] = (1.0,)


@dataclass(frozen=True)
class ScheduleSpec:
    kind: str = "scaled_linear"
    t_train: int = 1000
    beta_start: float = 8.5e-4
    beta_end: float = 0.012
    k_steps: int = 50


@dataclass(frozen=True)
class SourceSpec:
    dimension: int = 16
    components: tuple[ComponentSpec, ...] = (ComponentSpec(),)


@dataclass(frozen=True)
class DenoiserSpec:
    kind: str = "analytic"  # analytic | mlp
    checkpoint: str = ""


@dataclass(frozen=True)
class PipelineSpec:
    t_f1: int = 5
    t_f2: int = 5
    t_b: int | str = "auto"
    transmitter_mode: str = "ddim_inversion"
    receiver_forward_mode: str = "ddim_inversion"
    guidance_scale: float = 0.0
    guidance_label: int | None = None
    condition_receiver_forward: bool = False


@dataclass(frozen=True)
class ChannelSpec:
    snr_db: float = 5.0
    model: str = "complex_paper"


@dataclass(frozen=True)
class SweepSpec:
    snr_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    n_per_cell: int = 256
    baseline: bool = True
    plot: bool = False


@dataclass(frozen=True)
class AblateSpec:
    snr_db: float = 5.0
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    n_per_cell: int = 256


@dataclass(frozen=True)
class Prop1Spec:
    n_samples: int = 20000
    gamma_mode: str = "per_sample"
    transmitter_mode: str = "stochastic"


@dataclass(frozen=True)
class TrainSpec:
    learning_rate: float = 2e-3
    batch_size: int = 256
    iterations: int = 6000
    hidden: int = 64
    time_embed: int = 16
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    checkpoint: str = "denoiser.ckpt"
    loss_csv: str = "train_loss.csv"


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"
    dump_records: bool = False


@dataclass(frozen=True)
class RunSpec:
    seed: int = 0
    jobs: int = 1


@dataclass(frozen=True)
class ExperimentConfig:
    run: RunSpec = field(default_factory=RunSpec)
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    source: SourceSpec = field(default_factory=SourceSpec)
    denoiser: DenoiserSpec = field(default_factory=DenoiserSpec)
    pipeline: PipelineSpec = field(default_factory=PipelineSpec)
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    ablate: AblateSpec = field(default_factory=AblateSpec)
    prop1: Prop1Spec = field(default_factory=Prop1Spec)
    train: TrainSpec = field(default_factory=TrainSpec)
    output: OutputSpec = field(default_factory=OutputSpec)


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
            if re.match(rf"^\s*{re.escape(key)}\s*[=:]", line):
                return i
    return 0


class _SectionReader:
    def __init__(self, parser, text, path, section):
        self.parser = parser
        self.text = text
        self.path = path
        self.section = section

    def _fail(self, key, message):
        line = _line_of(self.text, self.section, key)
        raise ConfigError(f"{self.path}:{line}: {self.section}.{key}: {message}")

    def has(self, key):
        return self.parser.has_section(self.section) and self.parser.has_option(self.section, key)

    def raw(self, key):
        return self.parser.get(self.section, key).strip()

    def typed(self, key, convert, default, kind):
        if not self.has(key):
            return default
        try:
            return convert(self.raw(key))
        except (ValueError, ConfigError) as exc:
            self._fail(key, f"invalid {kind} {self.raw(key)!r} ({exc})")

    def choice(self, key, allowed, default):
        value = self.typed(key, str, default, "string")
        if value not in allowed:
            self._fail(key, f"expected one of {', '.join(allowed)}, got {value!r}")
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
    return tuple(float(p) for p in parts)


def _to_ints(raw: str) -> tuple[int, ...]:
    out: list[int] = []
    for part in raw.replace(",", " ").split():
        if ".." in part:
            lo, hi = part.split("..", 1)
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    if not out:
        raise ValueError("expected at least one integer")
    return tuple(out)


def _to_t_b(raw: str):
    if raw == "auto":
        return "auto"
    value = int(raw)
    if value < 0:
        raise ValueError("t_b must be 'auto' or a non-negative integer")
    return value


def _to_label(raw: str):
    return None if raw == "" else int(raw)


def parse_config(path) -> ExperimentConfig:
    """Read and fully validate a config file; unknown keys are errors."""
    path = os.fspath(path)
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        lineno = getattr(exc, "lineno", None)
        where = f"{path}:{lineno}" if lineno else path
        raise ConfigError(f"{where}: syntax error: {exc.message}") from exc

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            first = next(iter(parser[section]), "")
            line = _line_of(text, section)
            shown = f"{section}.{first}" if first else f"[{section}]"
            raise ConfigError(f"{path}:{line}: unknown config key '{shown}'")
        allowed = _SECTION_KEYS[section]
        for key in parser[section]:
            if key in allowed:
                continue
            if section == "source" and _SOURCE_DYNAMIC.match(key):
                continue
            line = _line_of(text, section, key)
            raise ConfigError(f"{path}:{line}: unknown config key '{section}.{key}'")

    def reader(section):
        return _SectionReader(parser, text, path, section)

    run_r = reader("run")
    run = RunSpec(
        seed=run_r.typed("seed", int, RunSpec.seed, "integer"),
        jobs=run_r.typed("jobs", int, RunSpec.jobs, "integer"),
    )

    sch = reader("schedule")
    schedule = ScheduleSpec(
        kind=sch.typed("kind", str, ScheduleSpec.kind, "string"),
        t_train=sch.typed("t_train", int, ScheduleSpec.t_train, "integer"),
        beta_start=sch.typed("beta_start", float, ScheduleSpec.beta_start, "number"),
        beta_end=sch.typed("beta_end", float, ScheduleSpec.beta_end, "number"),
        k_steps=sch.typed("k_steps", int, ScheduleSpec.k_steps, "integer"),
    )

    src = reader("source")
    dimension = src.typed("dimension", int, SourceSpec.dimension, "integer")
    n_comp = src.typed("components", int, 1, "integer")
    if n_comp < 1:
        src._fail("components", "must be >= 1")
    components = []
    for j in range(1, n_comp + 1):
        weight = src.typed(f"weight_{j}", float, 1.0 / n_comp, "number")
        mean = src.typed(f"mean_{j}", _to_floats, (0.0,), "number list")
        var = src.typed(f"var_{j}", _to_floats, (1.0,), "number list")
        components.append(ComponentSpec(weight=weight, mean=mean, var=var))
    for key in (parser["source"] if parser.has_section("source") else {}):
        m = _SOURCE_DYNAMIC.match(key)
        if m and not (1 <= int(m.group(2)) <= n_comp):
            src._fail(key, f"component index outside 1..{n_comp}")
    source = SourceSpec(dimension=dimension, components=tuple(components))

    den = reader("denoiser")
    denoiser = DenoiserSpec(
        kind=den.choice("kind", ("analytic", "mlp"), DenoiserSpec.kind),
        checkpoint=den.typed("checkpoint", str, DenoiserSpec.checkpoint, "string"),
    )

    pipe = reader("pipeline")
    pipeline = PipelineSpec(
        t_f1=pipe.typed("t_f1", int, PipelineSpec.t_f1, "integer"),
        t_f2=pipe.typed("t_f2", int, PipelineSpec.t_f2, "integer"),
        t_b=pipe.typed("t_b", _to_t_b, PipelineSpec.t_b, "step count"),
        transmitter_mode=pipe.choice(
            "transmitter_mode", TRANSMITTER_MODES, PipelineSpec.transmitter_mode),
        receiver_forward_mode=pipe.choice(
            "receiver_forward_mode", RECEIVER_FORWARD_MODES, PipelineSpec.receiver_forward_mode),
        guidance_scale=pipe.typed(
            "guidance_scale", float, PipelineSpec.guidance_scale, "number"),
        guidance_label=pipe.typed(
            "guidance_label", _to_label, PipelineSpec.guidance_label, "label"),
        condition_receiver_forward=pipe.typed(
            "condition_receiver_forward", _to_bool,
            PipelineSpec.condition_receiver_forward, "boolean"),
    )

    cha = reader("channel")
    channel = ChannelSpec(
        snr_db=cha.typed("snr_db", float, ChannelSpec.snr_db, "number"),
        model=cha.choice("model", CHANNEL_MODELS, ChannelSpec.model),
    )

    swp = reader("sweep")
    sweep = SweepSpec(
        snr_db=swp.typed("snr_db", _to_floats, SweepSpec.snr_db, "number list"),
        seeds=swp.typed("seeds", _to_ints, SweepSpec.seeds, "integer list"),
        n_per_cell=swp.typed("n_per_cell", int, SweepSpec.n_per_cell, "integer"),
        baseline=swp.typed("baseline", _to_bool, SweepSpec.baseline, "boolean"),
        plot=swp.typed("plot", _to_bool, SweepSpec.plot, "boolean"),
    )
    if not sweep.seeds:
        swp._fail("seeds", "must be non-empty")

    abl = reader("ablate")
    ablate = AblateSpec(
        snr_db=abl.typed("snr_db", float, AblateSpec.snr_db, "number"),
        seeds=abl.typed("seeds", _to_ints, AblateSpec.seeds, "integer list"),
        n_per_cell=abl.typed("n_per_cell", int, AblateSpec.n_per_cell, "integer"),
    )

    pr1 = reader("prop1")
    prop1 = Prop1Spec(
        n_samples=pr1.typed("n_samples", int, Prop1Spec.n_samples, "integer"),
        gamma_mode=pr1.choice("gamma_mode", GAMMA_MODES, Prop1Spec.gamma_mode),
        transmitter_mode=pr1.choice(
            "transmitter_mode", TRANSMITTER_MODES, Prop1Spec.transmitter_mode),
    )

    trn = reader("train")
    train = TrainSpec(
        learning_rate=trn.typed("learning_rate", float, TrainSpec.learning_rate, "number"),
        batch_size=trn.typed("batch_size", int, TrainSpec.batch_size, "integer"),
        iterations=trn.typed("iterations", int, TrainSpec.iterations, "integer"),
        hidden=trn.typed("hidden", int, TrainSpec.hidden, "integer"),
        time_embed=trn.typed("time_embed", int, TrainSpec.time_embed, "integer"),
        beta1=trn.typed("beta1", float, TrainSpec.beta1, "number"),
        beta2=trn.typed("beta2", float, TrainSpec.beta2, "number"),
        eps=trn.typed("eps", float, TrainSpec.eps, "number"),
        checkpoint=trn.typed("checkpoint", str, TrainSpec.checkpoint, "string"),
        loss_csv=trn.typed("loss_csv", str, TrainSpec.loss_csv, "string"),
    )

    out = reader("output")
    output = OutputSpec(
        directory=out.typed("directory", str, OutputSpec.directory, "string"),
        dump_records=out.typed("dump_records", _to_bool, OutputSpec.dump_records, "boolean"),
    )

    return ExperimentConfig(
        run=run, schedule=schedule, source=source, denoiser=denoiser,
        pipeline=pipeline, channel=channel, sweep=sweep, ablate=ablate,
        prop1=prop1, train=train, output=output,
    )


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return " ".join(_fmt(v) for v in value)
    if value is None:
        return ""
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(parse(f))) == parse(f)."""
    lines: list[str] = []

    def emit(section, pairs):
        lines.append(f"[{section}]")
        for key, value in pairs:
            lines.append(f"{key} = {_fmt(value)}")
        lines.append("")

    emit("run", [("seed", cfg.run.seed), ("jobs", cfg.run.jobs)])
    emit("schedule", [(f.name, getattr(cfg.schedule, f.name)) for f in fields(cfg.schedule)])
    src_pairs = [("dimension", cfg.source.dimension),
                 ("components", len(cfg.source.components))]
    for j, comp in enumerate(cfg.source.components, start=1):
        src_pairs.append((f"weight_{j}", comp.weight))
        src_pairs.append((f"mean_{j}", comp.mean))
        src_pairs.append((f"var_{j}", comp.var))
    emit("source", src_pairs)
    emit("denoiser", [(f.name, getattr(cfg.denoiser, f.name)) for f in fields(cfg.denoiser)])
    emit("pipeline", [(f.name, getattr(cfg.pipeline, f.name)) for f in fields(cfg.pipeline)])
    emit("channel", [(f.name, getattr(cfg.channel, f.name)) for f in fields(cfg.channel)])
    emit("sweep", [(f.name, getattr(cfg.sweep, f.name)) for f in fields(cfg.sweep)])
    emit("ablate", [(f.name, getattr(cfg.ablate, f.name)) for f in fields(cfg.ablate)])
    emit("prop1", [(f.name, getattr(cfg.prop1, f.name)) for f in fields(cfg.prop1)])
    emit("train", [(f.name, getattr(cfg.train, f.name)) for f in fields(cfg.train)])
    emit("output", [(f.name, getattr(cfg.output, f.name)) for f in fields(cfg.output)])
    return "\n".join(lines)
