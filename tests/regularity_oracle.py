"""Reference regular-sequence check, kept as a test oracle.

This is the plain version that ``rht.formality.regular_sequence_check``
replaced.  For every relation index i >= 1 it builds the presented ring
``QuotientRing(algebra, seq[:i], N)`` afresh, and for every degree k it forms
the matrix of multiplication by f_i from Q_k to Q_{k+|f_i|} in quotient
bases: each basis monomial m of Q_k gives the column of the normal form of
the ``Poly`` f_i * m, read in ``Fraction``s.  f_i is injective on Q_k when
those columns are independent; otherwise the witness is the first
``kernel_basis`` vector of the matrix, on the basis monomials of Q_k.
"""

from fractions import Fraction

from rht.formality import RegularSequenceWitness
from rht.gca import Poly
from rht.linalg import EchelonSpan, kernel_basis
from rht.quotient import QuotientRing

QONE = Fraction(1)


def multiplication_matrix(ring, f, n):
    """Multiplication by f: Q_n -> Q_{n+|f|} in quotient bases, one sparse
    column per basis monomial of Q_n."""
    alg = ring.algebra
    bpos = ring._degree_data(n + alg.poly_degree(f))[4]
    return [{bpos[mm]: c for mm, c in
             ring.reduce(alg.multiply(Poly({m: QONE}), f)).items()}
            for m in ring._degree_data(n)[3]]


def regular_sequence_check(algebra, seq, N):
    """(ok, witness) as ``rht.formality.regular_sequence_check`` gives it."""
    if any(d % 2 for d in algebra.degrees):
        raise ValueError("regular sequences live in an even polynomial ring")
    degrees = [algebra.poly_degree(f) for f in seq]
    for i, (f, df) in enumerate(zip(seq, degrees)):
        if df is None:
            return False, RegularSequenceWitness(i, 0, Poly.unit())
        if i == 0:
            continue
        ring = QuotientRing(algebra, seq[:i], N)
        for k in range(0, N - df + 1):
            mat = multiplication_matrix(ring, f, k)
            span = EchelonSpan(ring.rank(k + df))
            if not all(span.add(col) for col in mat):
                basis = ring._degree_data(k)[3]
                ker = kernel_basis(mat)[0]
                bad = Poly({basis[j]: c for j, c in ker.items()})
                return False, RegularSequenceWitness(i, k, bad)
    return True, None
