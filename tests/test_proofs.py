"""Whole-hyperplane proofs of the defining property for m+n = 7 and 8.

verify_highest_weight_symbolic checks theta v_lambda at a generic point of
the element's hyperplane, so a pass proves the claim on the whole
hyperplane.  Every positive root in every ordering of each gl(m,n) with
m+n = 7 or 8 is proved, and so is every endpoint-fixed shuffle Borel
element.  Each has a control: at a generic point of the parallel
hyperplane one unit off (the constraint plus 1) theta v_lambda is not a
singular vector.  The proofs build theta v_lambda in the numbering
construct._is_singular picks, so they also gate that numbering on the
whole hyperplane.
"""

import pytest

from shapovalov import construct
from shapovalov.exact_algebra import generic_point
from shapovalov.pbw import gl
from shapovalov.shuffles import enumerate_shuffles

SIZES = [pytest.param(m, N - m, id=f"gl({m},{N - m})") for N in (7, 8) for m in range(1, N + 1)]


def _elements(m, n):
    alg = gl(m, n)
    for root, (i, j) in alg.positive_roots():
        orderings = construct.ODD_ORDERINGS if i <= m < j else construct.EVEN_ORDERINGS
        for o in orderings:
            yield construct.theta_for_root(alg, root, o)
    if m and n:
        for sh in enumerate_shuffles(m, n):
            yield construct.theta_borel(sh)


@pytest.mark.parametrize("m, n", SIZES)
def test_every_root_ordering_and_borel(m, n):
    """Each proof holds and each control fails; the count is two orderings
    per even root, four per odd root and one element per Borel."""
    count = 0
    for theta in _elements(m, n):
        label = (theta.alg, construct.root_to_str(theta.alg, theta.eta), theta.ordering, str(theta.borel))
        assert construct.verify_highest_weight_symbolic(theta), label
        off = generic_point(m, n, [theta.hyperplane().constraint_poly() + 1])
        assert not construct._is_singular(theta, off), label
        count += 1
    N = m + n
    odd = m * n
    assert count == 2 * (N * (N - 1) // 2 - odd) + 4 * odd + (len(enumerate_shuffles(m, n)) if n else 0)
