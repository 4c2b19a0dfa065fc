"""Unit + property tests for dominance relations, Eq. (1) positions and
the exact skyline filter."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dominance import dominates, eps_dominates, kung_skyline, position

vec = st.tuples(*[st.floats(0.01, 1.0) for _ in range(3)])


def brute_skyline(vectors):
    out = []
    for i, v in enumerate(vectors):
        if not any(dominates(u, v) for u in vectors):
            if v not in [vectors[j] for j in out]:
                out.append(i)
    return out


def test_dominates_hand():
    assert dominates((0.1, 0.2), (0.2, 0.2))
    assert not dominates((0.2, 0.2), (0.2, 0.2))  # no strict improvement
    assert not dominates((0.1, 0.3), (0.2, 0.2))  # trade-off


def test_eps_dominance_relaxes():
    # worse by <= (1+eps) on one measure, better on another
    assert eps_dominates((0.22, 0.1), (0.2, 0.2), eps=0.1)
    assert not eps_dominates((0.3, 0.1), (0.2, 0.2), eps=0.1)


def test_eps_zero_matches_weak_dominance():
    assert eps_dominates((0.2, 0.2), (0.2, 0.2), eps=0.0)
    assert not eps_dominates((0.21, 0.2), (0.2, 0.2), eps=0.0)


@given(u=vec, v=vec)
@settings(max_examples=200, deadline=None)
def test_dominates_implies_eps_dominates(u, v):
    if dominates(u, v):
        assert eps_dominates(u, v, eps=0.1)


@given(u=vec)
@settings(max_examples=50, deadline=None)
def test_dominance_irreflexive_eps_reflexive(u):
    assert not dominates(u, u)
    assert eps_dominates(u, u, eps=0.1)


@given(u=vec, v=vec, w=vec)
@settings(max_examples=200, deadline=None)
def test_dominance_transitive(u, v, w):
    if dominates(u, v) and dominates(v, w):
        assert dominates(u, w)


def test_position_grid_hand():
    # eps=1 -> log base 2; lowers 0.1 -> value 0.4 lands in cell 2
    pos = position((0.4, 0.1, 0.9), [0.1, 0.1, 0.1], eps=1.0)
    assert len(pos) == 2  # last measure is decisive, not gridded
    assert pos[0] == 2
    assert pos[1] == 0


def test_position_same_cell_implies_eps_close():
    eps = 0.3
    lowers = [0.001, 0.001, 0.001]
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = tuple(rng.uniform(0.01, 1.0, 3))
        b = tuple(rng.uniform(0.01, 1.0, 3))
        if position(a, lowers, eps) == position(b, lowers, eps):
            for x, y in zip(a[:-1], b[:-1]):
                assert x <= (1 + eps) * y + 1e-9
                assert y <= (1 + eps) * x + 1e-9


def test_position_monotone_in_value():
    lowers = [0.01, 0.01]
    p1 = position((0.02, 0.5), lowers, 0.2)
    p2 = position((0.9, 0.5), lowers, 0.2)
    assert p2[0] > p1[0]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("d", [2, 3, 4])
def test_kung_matches_bruteforce(seed, d):
    """Same set and same order: ascending indices, first of duplicates
    kept (``ParetoTable.result`` hands this order to the selection's
    tie-break). One-decimal values plus re-drawn rows force duplicates."""
    rng = np.random.default_rng(seed)
    V = rng.uniform(0, 1, size=(40, d)).round(1)
    V = rng.permutation(np.vstack([V, V[rng.choice(40, 10, replace=False)]]))
    vectors = [tuple(v) for v in V]
    got = kung_skyline(vectors)
    assert got == brute_skyline(vectors)
    assert sorted(vectors[i] for i in got) == sorted(
        set(v for v in vectors if not any(dominates(u, v) for u in vectors))
    )


def test_kung_empty_and_single():
    assert kung_skyline([]) == []
    assert kung_skyline([(0.5, 0.5)]) == [0]


def test_kung_removes_duplicates():
    vs = [(0.2, 0.2), (0.2, 0.2), (0.5, 0.1)]
    assert kung_skyline(vs) == [0, 2]


def test_kung_all_on_front():
    vs = [(0.1, 0.9), (0.5, 0.5), (0.9, 0.1)]
    assert sorted(kung_skyline(vs)) == [0, 1, 2]


def test_kung_chain_keeps_minimum():
    vs = [(0.1, 0.1), (0.2, 0.2), (0.3, 0.3)]
    assert kung_skyline(vs) == [0]


@given(
    st.lists(
        st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_kung_property_no_dominated_and_covering(vectors):
    sky = kung_skyline(vectors)
    front = [vectors[i] for i in sky]
    for a, b in itertools.permutations(front, 2):
        assert not dominates(a, b)
    for v in vectors:
        assert any(u == v or dominates(u, v) for u in front)
