"""Exception types shared across the package, and the field-rule check."""

from dataclasses import fields


class ParameterError(ValueError):
    """An argument violates an operation's precondition."""


class FieldError(ParameterError):
    """A dataclass field's value breaks the rule its metadata declares."""

    def __init__(self, name, reason):
        super().__init__(f"{name}: {reason}")
        self.field, self.reason = name, reason


def check_fields(obj):
    """Raise FieldError for the first field of dataclass ``obj`` that breaks its rule.

    A field's metadata may declare ``choices``, the values it may take, and
    ``min`` and ``max``, bounds on a number or on every element of a tuple.
    """
    for f in fields(obj):
        value, choices = getattr(obj, f.name), f.metadata.get("choices")
        low, high = f.metadata.get("min"), f.metadata.get("max")
        if choices is not None and value not in choices:
            raise FieldError(f.name, f"expected one of {', '.join(choices)}, got {value!r}")
        for v in (value if isinstance(value, tuple) else (value,)):
            # written so that a NaN, which compares false, fails both bounds
            if low is not None and not v >= low:
                raise FieldError(f.name, f"{v} is below the minimum {low}")
            if high is not None and not v <= high:
                raise FieldError(f.name, f"{v} is above the maximum {high}")


class CheckedFields:
    """Base of a section dataclass: its fields' rules are checked at construction,
    so a parsed file, ``dataclasses.replace`` and a direct call all go through them."""

    def __post_init__(self):
        check_fields(self)


class DegenerateInputError(ParameterError):
    """Input is structurally valid but degenerate (e.g. a zero-power signal)."""


class ConfigError(ValueError):
    """Configuration file is missing, malformed, or inconsistent."""


class InternalConsistencyError(RuntimeError):
    """Two algebraically equal forms of a quantity disagree beyond rounding."""


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss; the message names the iteration."""
