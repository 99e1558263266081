"""Recombining scenario lattice, AR inflow noise, and forward sampling.

The lattice stores one deterministic first-stage realization and L
equiprobable openings for every later stage. Forward paths draw one
opening per stage transition via inverse-CDF on a weight vector; each
path owns an independent PCG64 stream seeded from
``SeedSequence([seed, iteration, path_index])`` so batches can run in
any order (or concurrently) without changing results.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .risk import WeightVector

ENUMERATION_CAP = 100_000


class TreeTooLarge(ValueError):
    """Full-tree traversal was requested beyond the enumeration cap."""


@dataclass(frozen=True)
class NoiseRealization:
    """One opening: inflow noise per hydro, caps per renewable, optional
    per-bus demand overrides."""

    inflow_noise: dict = field(default_factory=dict)
    renewable_cap: dict = field(default_factory=dict)
    demand: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, cap in self.renewable_cap.items():
            if cap < 0:
                raise ValueError(f"renewable cap for {name!r} is negative")
        for name, d in self.demand.items():
            if d < 0:
                raise ValueError(f"demand override for {name!r} is negative")


@dataclass(frozen=True)
class Lattice:
    """T stages, L openings per stage from 2..T, deterministic stage 1;
    ``openings[t - 2]`` holds stage t's openings, stored as tuples."""

    num_stages: int
    num_openings: int
    stage1: NoiseRealization
    openings: tuple

    def __post_init__(self):
        T, L = self.num_stages, self.num_openings
        if T < 1:
            raise ValueError("need at least one stage")
        if L < 1:
            raise ValueError("need at least one opening per stage")
        openings = tuple(tuple(per_stage) for per_stage in self.openings)
        if len(openings) != T - 1:
            raise ValueError(
                f"expected openings for {T - 1} stages, got {len(openings)}")
        for t, per_stage in enumerate(openings, start=2):
            if len(per_stage) != L:
                raise ValueError(f"stage {t} has {len(per_stage)} openings, "
                                 f"expected {L}")
        object.__setattr__(self, "openings", openings)

    def noise(self, stage: int, opening: int) -> NoiseRealization:
        """Realization of `opening` (0-based) at `stage` (1-based, >= 2)."""
        if stage < 2 or stage > self.num_stages:
            raise IndexError(f"stage {stage} has no sampled openings")
        return self.openings[stage - 2][opening]

    def stage_noise(self, stage: int, opening: Optional[int]) -> NoiseRealization:
        return self.stage1 if stage == 1 else self.noise(stage, opening)


class SamplerMode(enum.Enum):
    UNIFORM = "uniform"
    RISK_ADJUSTED = "risk"
    ALTERNATING = "alternating"

    @classmethod
    def parse(cls, text: str) -> "SamplerMode":
        for mode in cls:
            if mode.value == text:
                return mode
        raise ValueError(f"sampling must be one of "
                         f"{[m.value for m in cls]}, got {text!r}")


@dataclass(frozen=True, eq=False)
class PathStep:
    """One stage of a forward path. Steps and paths compare and hash by
    identity, since a comparison of their arrays has no single truth
    value."""

    opening: Optional[int]        # 0-based; None at the deterministic root
    state_out: np.ndarray         # the flat state, as hydro defines it
    immediate_cost: float
    weights: Optional[WeightVector]  # used to sample the next stage


@dataclass(frozen=True, eq=False)
class PathRecord:
    steps: tuple

    @property
    def total_cost(self) -> float:
        return float(sum(s.immediate_cost for s in self.steps))


def path_rng(seed: int, iteration: int, path_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one forward path."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, iteration, path_index])))


def sample_opening(weights: WeightVector, rng: np.random.Generator) -> int:
    """Inverse-CDF draw of a 0-based opening index; one uniform per call."""
    cdf = np.cumsum(weights.weights)
    idx = int(np.searchsorted(cdf, rng.random(), side="right"))
    return min(idx, len(weights) - 1)

