"""bigraded_model against the plain construction in bigraded_oracle.

The library grows the model in one algebra, built again only after a stage
added generators, and keeps the d and the lower weight of each monomial
from one stage to the next.  On seeded rings
(some with generators in degrees 2 and 3, where a stage's new generators
reach the degrees the next stage reads), the section 4 ring and the
cohomology of the odd wedge it must give what the oracle gives: the same generators in the same order, the same lower
degrees, the same d images with the same key order and the same rho images.
"""

from random import Random

import bigraded_oracle as oracle
import test_properties as props
from rht.formality import bigraded_model
from rht.gca import FreeGCA
from rht.quotient import ModelCohomology, QuotientRing
from test_formality import odd_wedge_y, section4_h, section4_y

CASES = 100


def assert_same_model(H, N):
    B = bigraded_model(H, N)
    cdga, lower, rho_images = oracle.bigraded_model(H, N)
    assert B.cdga.generators == cdga.generators
    assert B.cdga.truncation == cdga.truncation
    assert list(B.lower.items()) == list(lower.items())
    got = B.cdga.differential.images
    want = cdga.differential.images
    assert list(got) == list(want)
    for name, img in want.items():
        assert list(got[name].terms.items()) == list(img.terms.items()), name
    assert list(B.rho_images.items()) == list(rho_images.items())
    return B


def random_low_ring(rng):
    """(H, N): a presented ring on two or three generators of degree 2 to 4,
    odd ones among them, with two random relations of degree 4 to 7.  Its
    bigraded model has generators of degree 2 and 3, so a killer added at
    one stage changes the monomials of the degrees the next stage reads."""
    N = rng.randint(9, 12)
    gens = FreeGCA([("x%d" % i, rng.choice([2, 2, 3, 4]))
                    for i in range(rng.randint(2, 3))])
    rels = [props.random_homogeneous(rng, gens, rng.randint(4, 7))
            for _ in range(2)]
    return QuotientRing(gens, [f for f in rels if f is not None], N), N


def test_bigraded_model_matches_oracle_on_seeded_rings():
    rng = Random(1717)
    lower_two = 0
    for _ in range(CASES):
        B = assert_same_model(*props.random_cohomology_ring(rng))
        lower_two += max(B.lower.values()) >= 2
        B = assert_same_model(*random_low_ring(rng))
        lower_two += max(B.lower.values()) >= 2
    assert lower_two >= 20, lower_two


def test_bigraded_model_matches_oracle_on_section4_and_odd_wedge():
    assert_same_model(section4_h(), 16)
    assert_same_model(ModelCohomology(section4_y(22), 20), 20)
    B = assert_same_model(ModelCohomology(odd_wedge_y(24), 20), 20)
    assert len(B.cdga.names) == 13
    # the size of the barobs_s3 benchmark workload
    B = assert_same_model(ModelCohomology(odd_wedge_y(32), 30), 30)
    assert len(B.cdga.names) == 67
