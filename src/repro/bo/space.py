"""Configuration spaces for Bayesian optimization.

A :class:`ConfigSpace` maps between *configurations* (name -> value dicts)
and points in the unit hypercube, which is the representation the surrogate
model and Latin Hypercube Sampling work in.  Integer, float, and categorical
parameters are supported; numeric parameters may be log-scaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

Config = dict[str, object]


@dataclass(frozen=True)
class Parameter:
    """Base class for a single search dimension."""

    name: str

    def to_unit(self, value) -> float:
        raise NotImplementedError

    def from_unit(self, unit: float):
        raise NotImplementedError

    def snap(self, units: np.ndarray) -> np.ndarray:
        """``to_unit(from_unit(u))`` for each *u* of a 1-D array: the unit
        point of the value each *u* stands for.  The kinds compute it as one
        array expression; this default maps the scalar pair."""
        return np.array(
            [self.to_unit(self.from_unit(u)) for u in units], dtype=np.float64
        )

    def cardinality(self) -> float:
        """Number of distinct values (math.inf for continuous)."""
        raise NotImplementedError


@dataclass(frozen=True)
class FloatParameter(Parameter):
    low: float = 0.0
    high: float = 1.0
    log: bool = False

    def __post_init__(self) -> None:
        if self.high <= self.low:
            raise ValueError(f"{self.name}: high must exceed low")
        if self.log and self.low <= 0:
            raise ValueError(f"{self.name}: log scale requires positive bounds")

    def to_unit(self, value) -> float:
        value = float(value)
        if self.log:
            return (math.log(value) - math.log(self.low)) / (
                math.log(self.high) - math.log(self.low)
            )
        return (value - self.low) / (self.high - self.low)

    def from_unit(self, unit: float) -> float:
        unit = min(max(float(unit), 0.0), 1.0)
        if self.log:
            return math.exp(
                math.log(self.low)
                + unit * (math.log(self.high) - math.log(self.low))
            )
        return self.low + unit * (self.high - self.low)

    def snap(self, units: np.ndarray) -> np.ndarray:
        if self.log:
            return super().snap(units)
        span = self.high - self.low
        values = self.low + np.clip(units, 0.0, 1.0) * span
        return (values - self.low) / span

    def cardinality(self) -> float:
        return math.inf


@dataclass(frozen=True)
class IntegerParameter(Parameter):
    low: int = 0
    high: int = 1
    log: bool = False

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ValueError(f"{self.name}: high must be >= low")
        if self.log and self.low <= 0:
            raise ValueError(f"{self.name}: log scale requires positive bounds")

    def to_unit(self, value) -> float:
        if self.high == self.low:
            return 0.5
        value = float(value)
        if self.log:
            return (math.log(value) - math.log(self.low)) / (
                math.log(self.high) - math.log(self.low)
            )
        return (value - self.low) / (self.high - self.low)

    def from_unit(self, unit: float) -> int:
        unit = min(max(float(unit), 0.0), 1.0)
        if self.log:
            raw = math.exp(
                math.log(self.low)
                + unit * (math.log(self.high) - math.log(self.low))
            )
        else:
            raw = self.low + unit * (self.high - self.low)
        return int(min(max(round(raw), self.low), self.high))

    def snap(self, units: np.ndarray) -> np.ndarray:
        if self.high == self.low:
            return np.full(len(units), 0.5)
        if self.log:
            return super().snap(units)
        span = self.high - self.low
        raw = self.low + np.clip(units, 0.0, 1.0) * span
        # rint rounds half to even, as round() does.
        values = np.clip(np.rint(raw), self.low, self.high)
        return (values - self.low) / span

    def cardinality(self) -> float:
        return float(self.high - self.low + 1)


@dataclass(frozen=True)
class CategoricalParameter(Parameter):
    choices: tuple = ()

    def __post_init__(self) -> None:
        if not self.choices:
            raise ValueError(f"{self.name}: choices cannot be empty")
        # Per position, the index ``to_unit`` gives its choice: the first
        # of equal choices, as ``choices.index`` finds it.
        first = np.array([self.choices.index(c) for c in self.choices])
        object.__setattr__(self, "_first_index", first)

    def to_unit(self, value) -> float:
        index = self.choices.index(value)
        return (index + 0.5) / len(self.choices)

    def from_unit(self, unit: float):
        unit = min(max(float(unit), 0.0), 1.0 - 1e-12)
        return self.choices[int(unit * len(self.choices))]

    def snap(self, units: np.ndarray) -> np.ndarray:
        count = len(self.choices)
        positions = (np.clip(units, 0.0, 1.0 - 1e-12) * count).astype(np.intp)
        return (self._first_index[positions] + 0.5) / count

    def cardinality(self) -> float:
        return float(len(self.choices))


@dataclass
class ConfigSpace:
    """An ordered collection of parameters."""

    parameters: list[Parameter] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")

    def __len__(self) -> int:
        return len(self.parameters)

    @property
    def names(self) -> list[str]:
        return [p.name for p in self.parameters]

    def add(self, parameter: Parameter) -> None:
        if parameter.name in self.names:
            raise ValueError(f"duplicate parameter {parameter.name!r}")
        self.parameters.append(parameter)

    def cardinality(self) -> float:
        """Total number of distinct configurations (inf if any float)."""
        total = 1.0
        for parameter in self.parameters:
            total *= parameter.cardinality()
            if math.isinf(total):
                return math.inf
        return total

    # -- unit-cube conversions ---------------------------------------------------

    def to_unit(self, config: Mapping[str, object]) -> np.ndarray:
        return np.array(
            [p.to_unit(config[p.name]) for p in self.parameters], dtype=np.float64
        )

    def from_unit(self, point: Sequence[float]) -> Config:
        return {
            p.name: p.from_unit(u) for p, u in zip(self.parameters, point)
        }

    def snap(self, points: np.ndarray) -> np.ndarray:
        """``to_unit(from_unit(point))`` for each row of an ``(n, d)`` array
        of unit points, computed column by column: the unit points of the
        configurations the rows stand for, as the surrogate sees them."""
        snapped = np.empty((len(points), len(self.parameters)), dtype=np.float64)
        for column, parameter in enumerate(self.parameters):
            snapped[:, column] = parameter.snap(points[:, column])
        return snapped

    # -- sampling -------------------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> Config:
        return self.from_unit(rng.random(len(self.parameters)))

    def sample_many(self, n: int, rng: np.random.Generator) -> list[Config]:
        return [self.sample(rng) for _ in range(n)]
