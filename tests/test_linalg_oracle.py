"""The sparse fraction-free kernel of rht.linalg against the dense oracle.

Every output of the kernel is canonical (RREF, RREF kernel basis, solution
with free variables 0, rank, membership), so it must equal the dense
eliminator's output exactly, not just up to a change of basis.  The oracle
takes and returns dense rows; ``oracle.columns`` builds the sparse columns
handed to ``rht``, and ``oracle.sparse`` turns one dense row into the
sparse shape ``rht`` takes and returns.  ``kernel_basis`` and ``homology``
must also equal the two-span kernel and the tagged-span cohomology kept in
the oracle module: representatives and class coordinates are canonical too.
"""

from fractions import Fraction
from random import Random

import pytest

import dense_oracle as oracle
from rht.linalg import EchelonSpan, homology, kernel_basis

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


def tagged_solve(cols, b):
    """x with sum_j x_j cols[j] = b and free variables 0, or None if there
    is none, read from a tagged span: the residue of (b, 0) modulo the span
    of the vectors (cols[j], e_j) is (0, -x).  The tags run in reverse
    column order, so the pivots among them are exactly the free variables,
    where the residue is zero."""
    nrows, k = len(b), len(cols)
    span = EchelonSpan(nrows + k)
    for j, col in enumerate(cols):
        span.add({**col, nrows + k - 1 - j: 1})
    res = span.residue(dict(enumerate(b)))
    if min(res, default=nrows) < nrows:
        return None
    return [-res.get(nrows + k - 1 - j, F(0)) for j in range(k)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rank_and_row_echelon_match_oracle(seed):
    for rows, ncols, _ in _cases(seed, 80):
        span = EchelonSpan(ncols)
        for r in rows:
            span.add(oracle.sparse(r))
        want, want_pivots = oracle.row_echelon(rows)
        assert span.rank() == oracle.rank(rows) == len(want_pivots)
        assert span.pivots == want_pivots
        assert span.rows == [oracle.sparse(r) for r in want[:len(want_pivots)]]
        assert all(not any(r) for r in want[len(want_pivots):])
        # the rank of the column span, as rht's rank checks take it
        cols = EchelonSpan(len(rows))
        assert sum(cols.add(c) for c in oracle.columns(rows, ncols)) == \
            span.rank()


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_kernel_basis_matches_oracle(seed):
    for rows, ncols, _ in _cases(seed, 80):
        got = kernel_basis(oracle.columns(rows, ncols))
        assert got == [oracle.sparse(v)
                       for v in oracle.kernel_basis(rows, ncols)]
        assert all(list(v) == sorted(v) for v in got)


def _combination(rng, vectors, dim):
    """A random combination of dense vectors, often with zero weights."""
    out = [F(0)] * dim
    for v in vectors:
        c = _entry(rng, rng.choice(("int", "rat", "big"))) \
            if rng.random() < 0.6 else F(0)
        out = [a + c * b for a, b in zip(out, v)]
    return out


def _complexes(seed, count):
    """(d_out, d_in, dim, cocycles) at one degree of a random complex: d_out
    any matrix out of Q^dim, d_in boundaries drawn inside its kernel, among
    them zero columns and repeats, and cocycles drawn from the kernel."""
    for rows, dim, rng in _cases(seed, count):
        ker = oracle.kernel_basis(rows, dim)
        d_in = [oracle.sparse(_combination(rng, ker, dim))
                for _ in range(rng.randint(0, 6))]
        if d_in and rng.random() < 0.3:
            d_in.append(dict(rng.choice(d_in)))
        cocycles = [oracle.sparse(_combination(rng, ker, dim))
                    for _ in range(3)] + [oracle.sparse(v) for v in ker]
        yield oracle.columns(rows, dim), d_in, dim, cocycles


def assert_homology_matches_reference(d_out, d_in, dim, cocycles):
    reps, coords = homology(d_out, d_in)
    want_reps, want_coords = oracle.tagged_homology(d_out, d_in, dim)
    assert reps == want_reps
    assert all(list(v) == sorted(v) for v in reps)
    for x in cocycles:
        got = coords(x)
        assert got == want_coords(x)
        assert list(got) == sorted(got)
    return reps, coords


@pytest.mark.parametrize("seed", [13, 14, 15])
def test_homology_matches_tagged_span_reference(seed):
    for d_out, d_in, dim, cocycles in _complexes(seed, 100):
        assert kernel_basis(d_out) == oracle.two_span_kernel_basis(d_out)
        assert_homology_matches_reference(d_out, d_in, dim, cocycles)


def test_homology_reference_cases():
    e = [{0: F(1)}, {1: F(1)}, {2: F(1)}]
    zero3 = [{}, {}, {}]
    # a boundary v_2 - v_1 keeps v_1 and drops v_2, whose class is [v_1]
    reps, coords = assert_homology_matches_reference(
        zero3, [{0: F(-1), 1: F(1)}], 3, e)
    assert reps == [e[0], e[2]]
    assert [coords(v) for v in e] == [{0: F(1)}, {0: F(1)}, {1: F(1)}]
    # empty d_in: every kernel vector represents a class
    reps, coords = assert_homology_matches_reference(zero3, [], 3, e)
    assert reps == e
    # empty d_out: nothing to represent, and boundaries are empty columns
    reps, coords = assert_homology_matches_reference([], [{}, {}], 0, [{}])
    assert reps == [] and coords({}) == {}
    # zero columns in d_out and in d_in; the kernel of d_out is e_0, e_2
    d_out = [{}, {0: F(2)}, {}]
    reps, coords = assert_homology_matches_reference(
        d_out, [{}, {2: F(3, 5)}, {}], 3, [e[0], e[2]])
    assert reps == [e[0]]
    assert coords(e[2]) == {}


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_solve_matches_oracle(seed):
    for rows, ncols, rng in _cases(seed, 80):
        cols = oracle.columns(rows, ncols)
        # consistent right-hand side, then an arbitrary (often inconsistent) one
        x0 = [_entry(rng, "rat") for _ in range(ncols)]
        for b in (oracle.matvec(rows, x0),
                  [_entry(rng, "big") for _ in range(len(rows))]):
            got = tagged_solve(cols, b)
            assert got == oracle.solve(rows, b, ncols)
            if got is not None:
                assert oracle.matvec(rows, got) == b


def test_solve_inconsistent_is_none():
    rows = [[1, 1], [2, 2]]
    assert tagged_solve(oracle.columns(rows, 2), [F(1), F(3)]) is None
    assert oracle.solve(rows, [F(1), F(3)], 2) is None
    assert tagged_solve([], [F(0), F(1)]) is None


@pytest.mark.parametrize("seed", [10, 11])
def test_echelon_span_sequences_match_oracle(seed):
    for rows, ncols, rng in _cases(seed, 60):
        span = EchelonSpan(ncols)
        added = []
        for vec in rows + _random_rows(rng, 3, ncols, "rat", 0.5):
            probe = _random_rows(rng, 1, ncols, "int", 0.5)[0]
            before = oracle.rank(added) if added else 0
            with_probe = oracle.rank(added + [probe])
            in_span = not span.residue(oracle.sparse(probe))
            assert in_span == (with_probe == before)
            grew = oracle.rank(added + [vec]) > before
            assert span.add(oracle.sparse(vec)) == grew
            added.append(vec)
            want, pivots = oracle.row_echelon(added)
            assert span.pivots == pivots
            assert span.rows == [oracle.sparse(r) for r in want[:len(pivots)]]
            assert span.rank() == len(pivots)


def test_echelon_span_residue_matches_dense_reduction():
    rng = Random(12)
    for rows, ncols, _ in _cases(12, 40):
        span = EchelonSpan(ncols)
        for vec in rows:
            span.add(oracle.sparse(vec))
        red, pivots = oracle.row_echelon(rows)
        vec = _random_rows(rng, 1, ncols, "big", 0.7)[0]
        want = list(vec)
        for r, p in enumerate(pivots):
            f = want[p]
            want = [a - f * b for a, b in zip(want, red[r])]
        assert span.residue(oracle.sparse(vec)) == oracle.sparse(want)
        # explicit zero entries are ignored
        assert span.residue(dict(enumerate(vec))) == \
            span.residue(oracle.sparse(vec))


def test_echelon_span_int_vectors_stay_exact():
    span = EchelonSpan(3)
    assert span.add(oracle.sparse([1, 0, 0]))
    assert span.rows == [oracle.sparse([F(1), F(0), F(0)])]
    assert all(type(x) is Fraction for x in span.rows[0].values())
    assert span.add(oracle.sparse([0, 3, 1]))
    assert span.rows[1] == oracle.sparse([F(0), F(1), F(1, 3)])
    assert not span.residue(oracle.sparse([2, 6, 2]))
    assert span.residue(oracle.sparse([0, 0, 1])) == {2: F(1)}


def test_echelon_span_rejects_wrong_length():
    span = EchelonSpan(2)
    for vec in ({2: 1}, {-1: 1}):
        with pytest.raises(ValueError):
            span.add(vec)
        with pytest.raises(ValueError):
            span.residue(vec)
    assert span.rank() == 0


def test_row_echelon_rejects_ragged_rows():
    span = EchelonSpan(2)
    assert span.add({0: 1, 1: 2})
    with pytest.raises(ValueError):
        span.add({2: 3})
    assert span.rank() == 1
