from fractions import Fraction
from math import lcm
from random import Random

import rht
from dense_oracle import columns, matvec, sparse
from rht import linalg
from rht.linalg import combine, kernel_basis, EchelonSpan
from test_linalg_oracle import tagged_solve

F = Fraction


def identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(m, n):
    return [[F(0)] * n for _ in range(m)]


def rank(rows, ncols):
    """Rank of dense rows, as the rank of their sparse column span."""
    span = EchelonSpan(len(rows))
    return sum(span.add(c) for c in columns(rows, ncols))


def test_rank_identity_and_zero():
    assert rank(identity(2), 2) == 2
    assert rank(zeros(3, 5), 5) == 0


def test_rank_dependent_rows():
    assert rank([[1, 2], [2, 4]], 2) == 1


def test_kernel_identity_empty():
    assert kernel_basis(columns(identity(4), 4)) == []


def test_kernel_zero_matrix_standard_vectors():
    ker = kernel_basis([{}, {}, {}])
    assert ker == [{0: F(1)}, {1: F(1)}, {2: F(1)}]


def test_kernel_one_relation():
    ker = kernel_basis([{0: 1}, {0: 1}])
    assert ker == [{0: F(1), 1: F(-1)}]
    assert all(type(x) is Fraction for x in ker[0].values())


def test_combine_drops_cancelled_keys_once():
    got = combine([({"a": 1, "b": F(1, 2)}, 2), ({"b": 1, "c": 3}, -1),
                   ({"c": F(3)}, 1)])
    assert got == {"a": F(2)}
    assert all(type(x) is Fraction for x in got.values())
    assert combine([]) == {}
    assert combine([({"x": F(1, 3)}, 0)]) == {}
    # a key that cancels and comes back keeps its first place
    assert list(combine([({"x": 1}, 1), ({"y": 1}, 1), ({"x": 1}, -1),
                         ({"x": 2}, 1)])) == ["x", "y"]
    # ints at weight 1, int x int and weight -1 still give Fractions
    for pairs, want in (([({"a": 3, "b": F(1, 2)}, 1)],
                         {"a": F(3), "b": F(1, 2)}),
                        ([({"a": 3}, 2), ({"a": 1, "b": -4}, 1)],
                         {"a": F(7), "b": F(-4)}),
                        ([({"a": F(1, 3), "b": 2}, -1)],
                         {"a": F(-1, 3), "b": F(-2)})):
        got = combine(pairs)
        assert got == want and list(got) == list(want)
        assert all(type(x) is Fraction for x in got.values())
    # a key whose first term is 0 keeps its place
    got = combine([({"x": 0, "y": 1}, 1), ({"z": 1}, 1), ({"x": 5}, 1)])
    assert list(got) == ["x", "y", "z"] and got["x"] == 5
    assert all(type(x) is Fraction for x in got.values())


def test_solve_identity_and_inconsistent():
    b = [F(1), F(2), F(3)]
    assert tagged_solve(columns(identity(3), 3), b) == b
    assert tagged_solve([{}, {}], [F(1), F(0)]) is None


def test_solve_scalar():
    assert tagged_solve([{0: 2}], [F(1)]) == [F(1, 2)]


def _random_matrix(rng, m, n):
    return [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(m)]


def _transpose(rows, ncols):
    return [[r[j] for r in rows] for j in range(ncols)]


def test_rank_equals_rank_of_transpose():
    rng = Random(7)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = _random_matrix(rng, m, n)
        assert rank(a, n) == rank(_transpose(a, n), m)


def test_rank_nullity():
    rng = Random(11)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        a = _random_matrix(rng, m, n)
        assert n == rank(a, n) + len(kernel_basis(columns(a, n)))


def test_kernel_vectors_are_in_kernel():
    rng = Random(13)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        a = _random_matrix(rng, m, n)
        for v in kernel_basis(columns(a, n)):
            dense = [v.get(j, F(0)) for j in range(n)]
            assert all(x == 0 for x in matvec(a, dense))


def test_solve_is_exact():
    rng = Random(17)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = _random_matrix(rng, m, n)
        x0 = [F(rng.randint(-2, 2)) for _ in range(n)]
        b = matvec(a, x0)
        x = tagged_solve(columns(a, n), b)
        assert x is not None
        assert matvec(a, x) == b


def test_echelon_span_incremental():
    span = EchelonSpan(3)
    assert span.add(sparse([F(1), F(2), F(0)]))
    assert not span.add(sparse([F(2), F(4), F(0)]))
    assert span.add(sparse([F(0), F(0), F(5)]))
    assert span.rank() == 2
    assert not span.residue(sparse([F(3), F(6), F(-1)]))
    assert span.residue(sparse([F(0), F(1), F(0)]))


def recomputed_index(span):
    """{c: {p : c in row p, c != p}}, read off the rows themselves."""
    want = {}
    for p, r in span._rows.items():
        for c in r:
            if c != p:
                want.setdefault(c, set()).add(p)
    return want


def random_vector(rng, dim):
    return {c: F(rng.randint(-3, 3), rng.randint(1, 2))
            for c in rng.sample(range(dim), rng.randint(1, min(dim, 4)))}


def int_row(vec):
    """The integer row add_int takes for the sparse vector vec: vec scaled
    by the lcm of its denominators, zeros dropped."""
    den = lcm(*[x.denominator for x in vec.values()])
    return {c: int(x * den) for c, x in vec.items() if x}


def test_column_index_tracks_rewritten_rows():
    # every insert that clears its new pivot out of older rows rewrites
    # them; after each one the index must name exactly the rows holding
    # each non-pivot column, for add and for add_int modulo a base alike
    rng = Random(4411)
    rewrites = residues = 0
    for _ in range(200):
        dim = rng.randint(1, 10)
        base, span = EchelonSpan(dim), EchelonSpan(dim)
        for _ in range(rng.randint(1, 12)):
            target = span if rng.random() < 0.3 else base
            before = dict(target._rows)
            if target is span:
                v = random_vector(rng, dim)
                r = base.residue(v)
                want = bool(r) and bool(span.residue(r))
                assert span.add_int(int_row(v), base) == want
                residues += want
            else:
                base.add(random_vector(rng, dim))
            rewrites += any(target._rows[p] is not r
                            for p, r in before.items())
            assert base._cols == recomputed_index(base)
            assert span._cols == recomputed_index(span)
    assert rewrites >= 200 and residues >= 50, (rewrites, residues)


def test_add_int_keeps_the_base():
    base = EchelonSpan(3)
    base.add({0: 1, 1: 1})
    span = EchelonSpan(3)
    assert span.add_int({0: 2}, base)
    assert not span.add_int({1: 1}, base)
    assert not span.add_int({0: 1, 1: 1}, base)
    assert span.add_int({2: 5}, base)
    assert span.rows == [{1: F(1)}, {2: F(1)}]
    assert base.rows == [{0: F(1), 1: F(1)}]


def test_add_int_takes_any_int_keys_in_key_order():
    # keys far outside 0..dim-1, negative ones included, pivot at the
    # least key: the spans of positions renumbered in key order
    keys = [-10 ** 12, -7, 3, 10 ** 9]
    rng = Random(26)
    for _ in range(100):
        dim = len(keys)
        by_pos, by_key = EchelonSpan(dim), EchelonSpan(dim)
        for _ in range(rng.randint(1, 6)):
            v = int_row(random_vector(rng, dim))
            if v:
                assert by_key.add_int({keys[c]: x for c, x in v.items()}) \
                    == by_pos.add_int(v)
        assert by_key.rows == [{keys[c]: x for c, x in r.items()}
                               for r in by_pos.rows]


def test_one_elimination_of_d_out_and_a_kernel_wide_span(monkeypatch):
    # kernel_basis eliminates d_out once, and homology adds one span of the
    # kernel's width for the boundaries: no second pass over the kernel,
    # and no span of width dim + number of cocycles
    widths = []

    class RecordingSpan(EchelonSpan):
        def __init__(self, dim):
            widths.append(dim)
            super().__init__(dim)

    monkeypatch.setattr(linalg, "EchelonSpan", RecordingSpan)
    # d_out on Q^5 of rank 2, kernel of dimension 3; one boundary in it
    d_out = [{0: F(1)}, {0: F(1)}, {1: F(2)}, {}, {1: F(-1, 3)}]
    ker = kernel_basis(d_out)
    assert len(ker) == 3 and widths == [5]
    del widths[:]
    reps, _ = linalg.homology(d_out, [{0: F(1), 1: F(-1)}])
    assert len(reps) == 2 and widths == [5, 3]


def test_public_names_resolve():
    namespace = {}
    exec("from rht import *", namespace)
    assert all(namespace[name] is getattr(rht, name) for name in rht.__all__)
    assert linalg.__all__ == ["EchelonSpan", "combine", "homology",
                              "kernel_basis"]
    assert all(hasattr(linalg, name) for name in linalg.__all__)
