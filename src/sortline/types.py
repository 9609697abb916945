"""Core domain types shared across the package."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

STAGE_CAPACITY = 100.0
SPEED_INDICES = tuple(range(1, 11))


# Members are singletons, so they hash by identity in C, not by Enum's Python-level name hash.
class EnvVariant(Enum):
    BASIC = "basic"
    ADVANCED = "advanced"

    __hash__ = object.__hash__


class InputType(Enum):
    RANDOM = "random"
    SEASONAL = "seasonal"

    __hash__ = object.__hash__


class SortingMode(Enum):
    """Internal machine configuration: neutral, or biased toward one material."""

    BASIC = "basic"
    POSITIVE = "positive"
    NEGATIVE = "negative"

    __hash__ = object.__hash__

    @classmethod
    def from_name(cls, name: str) -> "SortingMode":
        try:
            return cls(name.lower())
        except (AttributeError, ValueError):  # AttributeError: not a string
            raise ValueError(f"unknown sorting mode {name!r}") from None


# Tiny slack absorbs float dust from sorting arithmetic on full stages.
_CAPACITY_WITH_SLACK = STAGE_CAPACITY + 1e-6


class _Mix(NamedTuple):
    a: float
    b: float


class MaterialMix(_Mix):
    """Quantities of materials A and B at one stage, in percent of stage capacity.

    An immutable named tuple, so it also equals the plain tuple ``(a, b)``.
    Building one checks that both quantities are non-negative numbers (NaN is
    refused) and that together they fit the stage.
    """

    __slots__ = ()

    def __new__(cls, a: float, b: float) -> "MaterialMix":
        # Negated, so that NaN, which compares false, fails.
        if not (a >= 0.0 and b >= 0.0):
            raise ValueError(f"negative or NaN material quantity: a={a}, b={b}")
        if a + b > _CAPACITY_WITH_SLACK:
            raise ValueError(f"stage over capacity: a={a}, b={b}")
        return tuple.__new__(cls, (a, b))

    @classmethod
    def _make(cls, iterable) -> "MaterialMix":
        # namedtuple's _make, and _replace through it, would skip the checks.
        return cls(*iterable)

    @property
    def total(self) -> float:
        return self.a + self.b


EMPTY_MIX = MaterialMix(0.0, 0.0)


def speed_fraction(speed_index: int) -> float:
    """Belt speed as a fraction: index 1..10 maps to 0.1..1.0."""
    return speed_index / 10.0


@dataclass(frozen=True, slots=True)
class Action:
    """One agent decision: a speed setting and, in the advanced variant, a mode."""

    speed_index: int
    mode: SortingMode | None = None


# What an action's mode and an observation's ratio category may be, per variant.
MODES: dict[EnvVariant, tuple[SortingMode | None, ...]] = {
    EnvVariant.BASIC: (None,),
    EnvVariant.ADVANCED: tuple(SortingMode),
}
# Every action of a variant, speed-major; an action's index is its position.
ACTIONS = {v: tuple(Action(s, m) for s in SPEED_INDICES for m in MODES[v]) for v in EnvVariant}


def validate_action(action: Action, variant: EnvVariant) -> None:
    """Raise ``ValueError`` unless the speed index is an ``int`` in 1..10 (a
    ``bool``, ``5.0`` or a numpy integer is refused) and the mode is one the
    variant takes."""
    speed = action.speed_index
    if type(speed) is not int or speed not in SPEED_INDICES:
        raise ValueError(f"speed index must be an int in 1..10, got {speed!r}")
    if action.mode not in MODES[variant]:
        names = "|".join(m.value if m else "none" for m in MODES[variant])
        raise ValueError(f"{variant.value} variant takes mode {names}, got {action.mode!r}")


def action_count(variant: EnvVariant) -> int:
    return len(ACTIONS[variant])


def action_from_index(index: int, variant: EnvVariant) -> Action:
    if not 0 <= index < len(ACTIONS[variant]):
        raise ValueError(f"action index out of range: {index}")
    return ACTIONS[variant][index]


class Observation(NamedTuple):
    """What the agent sees: the (possibly noisy) input-stage load as a fraction
    of capacity and, in the advanced variant, the true input ratio category."""

    input_total: float
    ratio_category: SortingMode | None = None


@dataclass(slots=True)
class StorageTally:
    """Cumulative contents of the two storage containers.

    ``a_true``/``b_true`` count correctly routed material; ``a_false`` counts
    material B that landed in container A, and ``b_false`` the reverse.
    """

    a_true: float = 0.0
    a_false: float = 0.0
    b_true: float = 0.0
    b_false: float = 0.0

    def add(self, delta: "StorageTally") -> None:
        self.a_true += delta.a_true
        self.a_false += delta.a_false
        self.b_true += delta.b_true
        self.b_false += delta.b_false

    @property
    def total(self) -> float:
        return self.a_true + self.a_false + self.b_true + self.b_false
