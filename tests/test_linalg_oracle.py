"""The sparse fraction-free kernel of rht.linalg against the dense oracle.

Every output of the kernel is canonical (RREF, RREF kernel basis, solution
with free variables 0, rank, membership), so it must equal the dense
eliminator's output exactly, not just up to a change of basis.
"""

from fractions import Fraction
from random import Random

import pytest

import dense_oracle as oracle
from rht.linalg import (EchelonSpan, RatMatrix, kernel_basis, rank,
                        row_echelon, solve)

F = Fraction
BIG = 2 ** 64


def _entry(rng, kind):
    if kind == "int":
        return F(rng.randint(-4, 4))
    if kind == "rat":
        return F(rng.randint(-5, 5), rng.randint(1, 6))
    return F(rng.randint(-3, 3) * BIG + rng.randint(0, 9),
             rng.choice((1, 3, BIG + 1)))


def _random_rows(rng, nrows, ncols, kind, density):
    rows = [[_entry(rng, kind) if rng.random() < density else F(0)
             for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 2 and rng.random() < 0.5:
        # repeated rows, possibly scaled
        i, j = rng.randrange(nrows), rng.randrange(nrows)
        rows[j] = [x * rng.choice((1, -2, F(1, 3))) for x in rows[i]]
    return rows


def _cases(seed, count):
    """(rows, ncols) over the shapes the kernel must handle."""
    rng = Random(seed)
    shapes = [(0, 0), (0, 4), (3, 0), (5, 5), (9, 3), (3, 9), (1, 7), (7, 1)]
    for _ in range(count):
        nrows, ncols = rng.choice(shapes + [(rng.randint(0, 8),
                                             rng.randint(0, 8))])
        kind = rng.choice(("int", "rat", "big"))
        density = rng.choice((0.0, 0.2, 0.5, 1.0))
        yield _random_rows(rng, nrows, ncols, kind, density), ncols, rng


def _matrix(rows, ncols):
    return RatMatrix.from_rows(rows, cols=ncols)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rank_and_row_echelon_match_oracle(seed):
    for rows, ncols, _ in _cases(seed, 80):
        m = _matrix(rows, ncols)
        assert rank(m) == oracle.rank(m)
        got, pivots = row_echelon(rows)
        want, want_pivots = oracle.row_echelon(rows)
        assert pivots == want_pivots
        assert got == want
        # reduce=False: same pivots, each row a multiple of its RREF row
        loose, loose_pivots = row_echelon(rows, reduce=False)
        assert loose_pivots == want_pivots
        for r, p in zip(loose, loose_pivots):
            assert [x / r[p] for x in r] == want[want_pivots.index(p)]
        assert all(not any(r) for r in loose[len(loose_pivots):])


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_kernel_basis_matches_oracle(seed):
    for rows, ncols, _ in _cases(seed, 80):
        m = _matrix(rows, ncols)
        assert kernel_basis(m) == oracle.kernel_basis(m)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_solve_matches_oracle(seed):
    for rows, ncols, rng in _cases(seed, 80):
        m = _matrix(rows, ncols)
        # consistent right-hand side, then an arbitrary (often inconsistent) one
        x0 = [_entry(rng, "rat") for _ in range(ncols)]
        for b in (m.matvec(x0), [_entry(rng, "big") for _ in range(m.rows)]):
            got = solve(m, b)
            assert got == oracle.solve(m, b)
            if got is not None:
                assert m.matvec(got) == b


def test_solve_inconsistent_is_none():
    m = RatMatrix.from_rows([[1, 1], [2, 2]])
    assert solve(m, [F(1), F(3)]) is None
    assert oracle.solve(m, [F(1), F(3)]) is None
    assert solve(RatMatrix(2, 0), [F(0), F(1)]) is None


@pytest.mark.parametrize("seed", [10, 11])
def test_echelon_span_sequences_match_oracle(seed):
    for rows, ncols, rng in _cases(seed, 60):
        span = EchelonSpan(ncols)
        added = []
        for vec in rows + _random_rows(rng, 3, ncols, "rat", 0.5):
            probe = _random_rows(rng, 1, ncols, "int", 0.5)[0]
            before = oracle.rank(_matrix(added, ncols)) if added else 0
            with_probe = oracle.rank(_matrix(added + [probe], ncols))
            assert span.contains(probe) == (with_probe == before)
            grew = oracle.rank(_matrix(added + [vec], ncols)) > before
            assert span.add(vec) == grew
            added.append(vec)
            want, pivots = oracle.row_echelon(added)
            assert span.pivots == pivots
            assert span.rows == want[:len(pivots)]
            assert span.rank() == len(pivots)


def test_echelon_span_residue_matches_dense_reduction():
    rng = Random(12)
    for rows, ncols, _ in _cases(12, 40):
        span = EchelonSpan(ncols)
        for vec in rows:
            span.add(vec)
        red, pivots = oracle.row_echelon(rows)
        vec = _random_rows(rng, 1, ncols, "big", 0.7)[0]
        want = list(vec)
        for r, p in enumerate(pivots):
            f = want[p]
            want = [a - f * b for a, b in zip(want, red[r])]
        assert span.residue(vec) == {c: x for c, x in enumerate(want) if x}
        assert span.residue(dict(enumerate(vec))) == span.residue(vec)


def test_echelon_span_int_vectors_stay_exact():
    span = EchelonSpan(3)
    assert span.add([1, 0, 0])
    assert span.rows == [[F(1), F(0), F(0)]]
    assert all(type(x) is Fraction for x in span.rows[0])
    assert span.add([0, 3, 1])
    assert span.rows[1] == [F(0), F(1), F(1, 3)]
    assert span.contains([2, 6, 2])
    assert not span.contains([0, 0, 1])
    assert span.residue([0, 0, 1]) == {2: F(1)}


def test_echelon_span_rejects_wrong_length():
    span = EchelonSpan(2)
    for vec in ([1, 0, 0], [1], {2: 1}, {-1: 1}):
        with pytest.raises(ValueError):
            span.add(vec)
        with pytest.raises(ValueError):
            span.contains(vec)
    assert span.rank() == 0


def test_row_echelon_rejects_ragged_rows():
    with pytest.raises(ValueError):
        row_echelon([[1, 2], [3]])
