"""Lattice shape rules and sampler statistics."""

import numpy as np
import pytest

from hydrosddp.risk import WeightVector, uniform_weights
from hydrosddp.scenario import (
    Lattice,
    NoiseRealization,
    PathRecord,
    PathStep,
    SamplerMode,
    path_rng,
    sample_opening,
)


def flat_lattice(T, L):
    quiet = NoiseRealization()
    return Lattice(T, L, quiet, [[quiet] * L for _ in range(T - 1)])


def test_lattice_shape_validation():
    quiet = NoiseRealization()
    with pytest.raises(ValueError):
        Lattice(0, 2, quiet, [])
    with pytest.raises(ValueError):
        Lattice(3, 2, quiet, [[quiet, quiet]])  # missing stage 3
    with pytest.raises(ValueError):
        Lattice(2, 2, quiet, [[quiet]])  # short opening list
    with pytest.raises(ValueError, match="at least one opening"):
        Lattice(2, 0, quiet, [[]])
    # Openings are held as tuples, so lattices built from lists and from
    # tuples of equal noises are equal.
    assert flat_lattice(3, 2) == Lattice(3, 2, quiet, ((quiet, quiet),) * 2)
    assert flat_lattice(3, 2).openings == ((quiet, quiet),) * 2
    assert flat_lattice(3, 2) != flat_lattice(3, 1)
    lat = flat_lattice(3, 2)
    assert lat.stage_noise(1, None) is quiet or isinstance(lat.stage1, NoiseRealization)
    with pytest.raises(IndexError):
        lat.noise(1, 0)


def test_noise_guards():
    with pytest.raises(ValueError):
        NoiseRealization(renewable_cap={"w": -1.0})
    with pytest.raises(ValueError):
        NoiseRealization(demand={"b": -2.0})


def test_sample_opening_degenerate():
    w = WeightVector([0.0, 1.0])
    for seed in range(20):
        assert sample_opening(w, path_rng(seed, 0, 0)) == 1


def test_sample_opening_uniform_frequencies():
    rng = path_rng(123, 1, 0)
    w = uniform_weights(3)
    draws = np.array([sample_opening(w, rng) for _ in range(30000)])
    for k in range(3):
        freq = float(np.mean(draws == k))
        assert 0.32 <= freq <= 0.347  # 4-sigma binomial band around 1/3


def test_sample_opening_weighted_frequencies():
    rng = path_rng(7, 3, 2)
    probs = np.array([0.125, 0.125, 0.375, 0.375])
    w = WeightVector(probs)
    n = 40000
    draws = np.array([sample_opening(w, rng) for _ in range(n)])
    for k, p in enumerate(probs):
        freq = float(np.mean(draws == k))
        band = 4.0 * np.sqrt(p * (1 - p) / n)
        assert abs(freq - p) <= band


def test_rng_reproducible_streams():
    a = [sample_opening(uniform_weights(4), path_rng(99, 5, 2)) for _ in range(3)]
    b = [sample_opening(uniform_weights(4), path_rng(99, 5, 2)) for _ in range(3)]
    assert a == b
    # distinct path indices give distinct streams
    seq1 = path_rng(99, 5, 0).random(8)
    seq2 = path_rng(99, 5, 1).random(8)
    assert not np.allclose(seq1, seq2)


def test_sampler_mode_parse():
    assert SamplerMode.parse("uniform") is SamplerMode.UNIFORM
    assert SamplerMode.parse("risk") is SamplerMode.RISK_ADJUSTED
    assert SamplerMode.parse("alternating") is SamplerMode.ALTERNATING
    with pytest.raises(ValueError):
        SamplerMode.parse("sometimes")


def test_path_steps_compare_and_hash_by_identity():
    # Equal but distinct state arrays: a field-wise comparison would ask
    # an array for one truth value. Paths compare by their bytes
    # (``oracles.path_bytes``), not by ``==``.
    a, b = (PathStep(0, np.array([1.0, 2.0]), 3.0, uniform_weights(2))
            for _ in range(2))
    assert a == a and a != b
    assert PathRecord((a,)) != PathRecord((a,))
    assert len({a, b, PathRecord((a,)), PathRecord((b,))}) == 4
