"""The seeded stream: array draws are the scalar stream, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupalg.builders import cyclic_table, group_groupoid, pair_groupoid, product
from groupalg.randgen import (SplitMix64, below, boxes, random_function, random_unitary_field,
                              units)

from oracles import next_u64

_GAMMA = 0x9E3779B97F4A7C15
_TOP = (1 << 64) - 1

# seeds whose counter wraps past 2^64 within the first few draws
_WRAPPING_SEEDS = [_TOP, _TOP - 1, (1 << 64) - _GAMMA, (_TOP - 3 * _GAMMA) % (1 << 64)]


def _scalar_random(rng):
    """The top 53 bits of one draw as a float, in Python ints."""
    return (next_u64(rng) >> 11) * (2.0 ** -53)


def _scalar_box(rng):
    return complex(-1.0 + 2.0 * _scalar_random(rng), -1.0 + 2.0 * _scalar_random(rng))


def _scalar_function(n, rng):
    return np.array([_scalar_box(rng) for _ in range(n)], dtype=complex)


def _scalar_unitary_field(weights, rng):
    out = []
    for w in weights:
        d = len(w)
        m = np.array([[_scalar_box(rng) for _ in range(d)] for _ in range(d)])
        q, r = np.linalg.qr(m + 2 * d * np.eye(d))
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        root = np.sqrt(np.asarray(w, dtype=float))
        out.append((q.T / root).T * root)
    return out


@pytest.mark.parametrize("seed", [0, 1, 7, 2024, *_WRAPPING_SEEDS])
def test_array_draws_are_the_scalar_stream(seed):
    scalar, vector = SplitMix64(seed), SplitMix64(seed)
    assert vector.next_u64s(40).tolist() == [next_u64(scalar) for _ in range(40)]
    assert vector.state == scalar.state
    boxes = vector.complex_boxes(25)
    assert boxes.dtype == np.complex128
    assert boxes.tobytes() == _scalar_function(25, scalar).tobytes()
    assert vector.state == scalar.state
    assert vector.complex_boxes(0).shape == (0,) and vector.state == scalar.state


@pytest.mark.parametrize("seed", [0, 1, 7, 2024, *_WRAPPING_SEEDS])
def test_scalar_methods_are_the_block_conversions_of_single_draws(seed):
    scalar, vector = SplitMix64(seed), SplitMix64(seed)
    for n in (1, 2, 3, 7, 1000, 2**40 + 1):
        assert vector.random() == _scalar_random(scalar)
        assert vector.randint(n) == next_u64(scalar) % n
        assert vector.complex_box() == _scalar_box(scalar)
    assert vector.state == scalar.state
    u = SplitMix64(seed).next_u64s(12)
    again = SplitMix64(seed)
    assert units(u).tolist() == [again.random() for _ in range(12)]
    assert below(u, 5).tolist() == [x % 5 for x in u.tolist()]
    assert boxes(u).tobytes() == SplitMix64(seed).complex_boxes(6).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, _TOP), st.integers(0, 64))
def test_array_draws_match_for_any_seed(seed, k):
    scalar, vector = SplitMix64(seed), SplitMix64(seed)
    assert vector.complex_boxes(k).tobytes() == _scalar_function(k, scalar).tobytes()
    assert vector.state == scalar.state
    assert int(vector.next_u64s(1)[0]) == next_u64(scalar)


@pytest.mark.parametrize("seed", [3, _TOP])
def test_random_function_and_unitary_field_are_unchanged(seed):
    G = product(pair_groupoid("abc"), group_groupoid(*cyclic_table(2)))
    scalar, vector = SplitMix64(seed), SplitMix64(seed)
    assert random_function(G, vector).tobytes() == _scalar_function(G.n_arrows, scalar).tobytes()
    # dimensions repeated out of order: one batched QR per dimension
    weights = [np.linspace(0.5, 2.0, d) for d in (3, 1, 6, 3, 1, 6, 36)]
    new, old = random_unitary_field(weights, vector), _scalar_unitary_field(weights, scalar)
    assert [u.tobytes() for u in new] == [u.tobytes() for u in old]
    assert vector.state == scalar.state
    assert random_function(pair_groupoid([]), vector).shape == (0,)
