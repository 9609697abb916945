"""Run configuration: defaults, validation, parsing, and a stable digest."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import Any, Mapping

from .types import SPEED_INDICES, EnvVariant, InputType

# Occupancy limit per speed index: 1.1 - v, clamped to [0.1, 1.0].  Expressed
# in tenths so the defaults come out as exact decimal floats.
DEFAULT_OCCUPANCY_LIMITS = tuple(min(max(11 - i, 1), 10) / 10 for i in SPEED_INDICES)


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or out of range."""


@dataclass(frozen=True)
class EnvConfig:
    """Full parameterization of one environment run."""

    variant: EnvVariant = EnvVariant.BASIC
    input_type: InputType = InputType.RANDOM
    obs_noise_level: float = 0.0
    action_penalty: float = 0.0
    threshold: float = 0.7
    abatement: float = 3.0
    r_acc: float = 0.5
    r_speed: float = 0.5
    base_noise_range: tuple[float, float] = (0.10, 0.15)
    correct_mode_noise_range: tuple[float, float] = (0.0, 0.05)
    incorrect_mode_noise_range: tuple[float, float] = (0.10, 0.15)
    occupancy_limits: tuple[float, ...] = DEFAULT_OCCUPANCY_LIMITS
    episode_length: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must lie in (0, 1), got {self.threshold}")
        for name in ("episode_length", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.episode_length < 1:
            raise ConfigError(f"episode_length must be positive, got {self.episode_length}")
        for name in ("obs_noise_level", "action_penalty", "abatement", "r_acc", "r_speed"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
        if not math.isfinite(self.r_acc + self.r_speed):
            raise ConfigError(f"r_acc + r_speed must be finite, got {self.r_acc} + {self.r_speed}")
        for name in ("base_noise_range", "correct_mode_noise_range", "incorrect_mode_noise_range"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo <= hi):
                raise ConfigError(f"{name} must be finite with 0 <= lo <= hi, got ({lo}, {hi})")
        limits = self.occupancy_limits
        if len(limits) != len(SPEED_INDICES):
            raise ConfigError(f"occupancy_limits needs {len(SPEED_INDICES)} entries, got {len(limits)}")
        if any(not 0.0 <= x <= 1.0 for x in limits):
            raise ConfigError(f"occupancy_limits must lie in [0, 1], got {limits}")
        if any(limits[i] < limits[i + 1] for i in range(len(limits) - 1)):
            raise ConfigError("occupancy_limits must not increase with speed")

    def limit_for_speed(self, speed_index: int) -> float:
        return self.occupancy_limits[speed_index - 1]

    def digest(self) -> str:
        """Short stable hash of every field, for tagging traces and reports.

        A number is normalised to the type of its field's default where that
        is exact, as ``config_from_mapping`` parses it, and ``-0.0`` to
        ``0.0``, so equal configs (``r_acc=1`` and ``r_acc=1.0``,
        ``obs_noise_level=-0.0`` and ``0.0``) share a digest.  Adding ``0``
        does the latter and leaves every other number as it is."""
        parts = []
        for field in fields(self):
            value = getattr(self, field.name)
            kind = type(_DEFAULTS[field.name])
            if issubclass(kind, Enum):
                value = value.value
            elif kind is tuple:
                value = ",".join(repr(float(x) + 0) for x in value)
            elif value == kind(value):
                value = kind(value) + 0
            parts.append(f"{field.name}={value!r}")
        blob = ";".join(parts).encode("ascii")
        return hashlib.sha256(blob).hexdigest()[:12]


_DEFAULTS = {field.name: field.default for field in fields(EnvConfig)}


def _parse_scalar(raw: Any, kind: type) -> Any:
    """``kind(raw)``, refusing booleans and the non-integral numbers int() would truncate."""
    if isinstance(raw, bool) or (kind is int and isinstance(raw, float) and not raw.is_integer()):
        raise ValueError
    return kind(raw)


def _parse_range(value: Any, name: str, size: int) -> tuple[float, ...]:
    if isinstance(value, str):
        items = [part for part in value.replace(",", " ").split() if part]
    elif isinstance(value, (list, tuple)):
        items = list(value)
    else:
        raise ConfigError(f"{name} expects {size} numbers, got {value!r}")
    try:
        parsed = tuple(_parse_scalar(x, float) for x in items)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} contains a non-numeric entry: {value!r}") from None
    if len(parsed) != size:
        raise ConfigError(f"{name} expects {size} numbers, got {len(parsed)}")
    return parsed


def config_from_mapping(mapping: Mapping[str, Any], base: EnvConfig | None = None) -> EnvConfig:
    """Build a config from field-name keys, starting from ``base`` (or defaults).

    Accepts both typed values (e.g. from a decoded wire message) and the string
    forms used in config files.  Each value is parsed by the kind of its
    field's default: an enum member or name, a tuple of that many numbers, or
    one int or float.  Unknown keys are rejected.
    """
    updates: dict[str, Any] = {}
    for key, raw in mapping.items():
        name = key.strip()
        if name not in _DEFAULTS:
            raise ConfigError(f"unknown config key {name!r}")
        kind = type(_DEFAULTS[name])
        try:
            if issubclass(kind, Enum):
                updates[name] = raw if isinstance(raw, kind) else kind(str(raw).lower())
            elif kind is tuple:
                updates[name] = _parse_range(raw, name, len(_DEFAULTS[name]))
            else:
                updates[name] = _parse_scalar(raw, kind)
        except ConfigError:
            raise
        except (OverflowError, TypeError, ValueError):
            raise ConfigError(f"bad value for {name!r}: {raw!r}") from None
    return replace(base if base is not None else EnvConfig(), **updates)


def load_config_file(path: str | Path, base: EnvConfig | None = None) -> EnvConfig:
    """Read ``key = value`` lines (# starts a comment; each key once) into a config."""
    mapping: dict[str, str] = {}
    content = Path(path).read_text(encoding="utf-8-sig")  # utf-8-sig drops a leading byte-order mark
    for lineno, line in enumerate(content.splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        key, sep, value = (part.strip() for part in text.partition("="))
        if not sep or not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if key in mapping:
            raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
        mapping[key] = value
    return config_from_mapping(mapping, base)
