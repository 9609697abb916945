"""Run configuration: defaults, validation, parsing, and a stable digest."""

from __future__ import annotations

import functools
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

# Largest obs_noise_level, action_penalty, r_acc or r_speed (the paper's are at most 0.5): no
# observation noise width, return or square of a return can overflow.
MAX_SCALE = 1e6


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
        # Frozen, so object.__setattr__; writing to self.__dict__ would be
        # quicker here but slows every later attribute read.
        for name in _DEFAULTS:
            object.__setattr__(self, name, check_field(name, getattr(self, name)))
        self.validate()

    def validate(self) -> None:
        """Check the ranges of the canonical values ``__post_init__`` stored."""
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must lie in (0, 1), got {self.threshold}")
        if self.episode_length < 1:
            raise ConfigError(f"episode_length must be positive, got {self.episode_length}")
        for name in ("obs_noise_level", "action_penalty", "abatement", "r_acc", "r_speed"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
            if value > MAX_SCALE and name != "abatement":
                raise ConfigError(f"{name} must be at most {MAX_SCALE:g}, got {value}")
        for name in ("base_noise_range", "correct_mode_noise_range", "incorrect_mode_noise_range"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo <= hi):
                raise ConfigError(f"{name} must be finite with 0 <= lo <= hi, got ({lo}, {hi})")
        limits = self.occupancy_limits
        if any(not 0.0 <= x <= 1.0 for x in limits):
            raise ConfigError(f"occupancy_limits must lie in [0, 1], got {limits}")
        if any(limits[i] < limits[i + 1] for i in range(len(limits) - 1)):
            raise ConfigError("occupancy_limits must not increase with speed")

    def limit_for_speed(self, speed_index: int) -> float:
        return self.occupancy_limits[speed_index - 1]

    def digest(self, seed: int | None = None) -> str:
        """Short stable hash of every field, for tagging traces and reports.

        Construction stores each value in one canonical form, so equal configs
        (``r_acc=1`` and ``r_acc=1.0``, ``obs_noise_level=-0.0`` and ``0.0``)
        share a digest.  A ``seed``, checked as the field is, stands in for
        the root seed: ``config.digest(s) == replace(config, seed=s).digest()``
        without building that config."""
        seed = self.seed if seed is None else check_field("seed", seed)
        blob = f"{_digest_head(self)};seed={seed!r}".encode("ascii")
        return hashlib.sha256(blob).hexdigest()[:12]


_DEFAULTS = {field.name: field.default for field in fields(EnvConfig)}


@functools.lru_cache(maxsize=64)
def _digest_head(config: EnvConfig) -> str:
    """The digested form of every field before ``seed``, the last one; an
    episode loop digests one config under many seeds."""
    parts = []
    for name in list(_DEFAULTS)[:-1]:
        value = getattr(config, name)
        if isinstance(value, Enum):
            value = value.value
        elif isinstance(value, tuple):
            value = ",".join(map(repr, value))
        parts.append(f"{name}={value!r}")
    return ";".join(parts)


def check_field(name: str, value: Any) -> Any:
    """``value`` in the form of field ``name``'s default: the same enum's
    member, a tuple of as many floats, an int from an integral number, or a
    float from an int or float with ``-0.0`` as ``0.0``.  Types are matched
    exactly, so a bool is no number.  Any other value is a ``ConfigError``
    naming the field.  Ranges are ``EnvConfig.validate``'s to check."""
    default = _DEFAULTS[name]
    kind = type(default)
    try:
        if kind is tuple:
            if type(value) in (tuple, list) and len(value) == len(default):
                floats = tuple([x + 0.0 for x in value if type(x) in (float, int)])
                if len(floats) == len(default):
                    return floats
        elif kind is float:
            if type(value) in (float, int):
                return value + 0.0  # adding 0.0 turns -0.0 into 0.0
        elif type(value) is kind:  # an enum member, or an int
            return value
        elif kind is int and type(value) is float and value.is_integer():
            return int(value)
    except OverflowError:  # an int too large for a float
        pass
    raise ConfigError(f"bad value for {name!r}: {value!r}")


def _parse(default: Any, text: str) -> Any:
    """A config-file string as the kind of ``default`` takes it."""
    if isinstance(default, Enum):
        return type(default)(text.lower())
    if isinstance(default, tuple):
        return [float(part) for part in text.replace(",", " ").split()]
    try:
        return type(default)(text)
    except ValueError:  # an int field's "50.0" or "1e3": a float, which check_field takes if integral
        return float(text)


def config_from_mapping(mapping: Mapping[str, Any], base: EnvConfig | None = None) -> EnvConfig:
    """Build a config from field-name keys, starting from ``base`` (or defaults).

    Keys are matched verbatim; unknown keys are rejected.  A string value is
    parsed by the kind of its field's default: an enum name in any case, a
    number, or a list of numbers split on commas and spaces.  Every other
    value (e.g. from a decoded wire message) goes to ``EnvConfig`` as it is.
    """
    updates: dict[str, Any] = {}
    for name, raw in mapping.items():
        if name not in _DEFAULTS:
            raise ConfigError(f"unknown config key {name!r}")
        if isinstance(raw, str):
            try:
                raw = check_field(name, _parse(_DEFAULTS[name], raw))
            except ValueError:
                raise ConfigError(f"bad value for {name!r}: {raw!r}") from None
        updates[name] = raw
    return replace(base if base is not None else EnvConfig(), **updates)


def load_config_file(path: str | Path) -> EnvConfig:
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
    return config_from_mapping(mapping)
