"""Malformed members of sets of ring elements and of words of A^m.

One table: every entry point that reads a set of ring elements or of
words, against every kind of malformed member.  Each cell must raise a
ValueError that names the member, never a TypeError from a sort or a
hash, an IndexError, or a verdict.

The setting is Z2[x]/(x^3 - 1): its words are vectors of Z2^3, and its
table ring, on the basis 1, x, x^2, is the group algebra Z2[C3], whose
elements are the flat words (c0, c1, c2).  Each malformed member has a
word form and an element form, and the entry point gets the zero of its
kind followed by the member.
"""

import pytest

from frobring.catalog import z2_quotient_x3_minus_1
from frobring.codes import (LinearCode, group_algebra_dual_report, group_inversion,
                            is_skew_cyclic, skew_cyclic_dual_report)
from frobring.finring import is_left_ideal, is_right_ideal
from frobring.frobenius import (find_frobenius_functional, functional_left_orthogonal,
                                functional_orthogonal, functional_right_orthogonal,
                                identity_form, left_annihilator, orthogonal, right_annihilator)
from frobring.znmod import ZnLinearForm

Q = z2_quotient_x3_minus_1()
R, A = Q.as_finite_ring(), Q.base
EPS_R = find_frobenius_functional(R)
EPS_A = ZnLinearForm(A.shape, (1,))
FORM = identity_form(A, 3)

# name: (word of A^3, element of R)
MALFORMED = {
    "int": (5, 5),
    "str": ("xyz", "xyz"),
    "list": ([(1,), (0,), (0,)], [1, 0, 0]),
    "bool coordinate": (((True,), (0,), (0,)), (True, 0, 0)),
    "out-of-range coordinate": (((2,), (0,), (0,)), (2, 0, 0)),
    "short": (((1,), (0,)), (1, 0)),
    "long": (((1,), (0,), (0,), (0,)), (1, 0, 0, 0)),
    "entry of the wrong rank": (((1, 0), (0,), (0,)), ((1,), (0,), (0,))),
    "flattens to an element": (((1, 1), (0,), ()), ((1, 1), (0,), ())),
    "word of another ambient": (((1, 1, 1),), ((1, 1, 1),)),
}

# name: (reads words, call on [zero, member] or, for group_inversion and the
# one-argument SkewQuotient methods, the member)
ENTRY_POINTS = {
    "is_left_ideal": (False, lambda s: is_left_ideal(R, s)),
    "is_right_ideal": (False, lambda s: is_right_ideal(R, s)),
    "left_annihilator": (False, lambda s: left_annihilator(R, s)),
    "right_annihilator": (False, lambda s: right_annihilator(R, s)),
    "functional_left_orthogonal": (False, lambda s: functional_left_orthogonal(R, EPS_R, s)),
    "functional_right_orthogonal": (False, lambda s: functional_right_orthogonal(R, EPS_R, s)),
    "group_algebra_dual_report": (False, lambda s: group_algebra_dual_report(R, s)),
    "group_inversion": (False, lambda s: group_inversion(R, s[1])),
    "LinearCode": (True, lambda s: LinearCode(A, 3, "left", s)),
    "orthogonal": (True, lambda s: orthogonal(FORM, s, "left")),
    "functional_orthogonal": (True, lambda s: functional_orthogonal(FORM, EPS_A, s, "right")),
    "is_skew_cyclic": (True, lambda s: is_skew_cyclic(s, Q)),
    "skew_cyclic_dual_report": (True, lambda s: skew_cyclic_dual_report(s, Q, EPS_A)),
    "SkewQuotient.add": (True, lambda s: Q.add(*s)),
    "SkewQuotient.neg": (True, lambda s: Q.neg(s[1])),
    "SkewQuotient.mul": (True, lambda s: Q.mul(*s)),
    "SkewQuotient.reversal": (True, lambda s: Q.reversal(s[1])),
    "SkewQuotient.constant_term_product": (True, lambda s: Q.constant_term_product(*s)),
}

SKEW = ("is_skew_cyclic", "skew_cyclic_dual_report")


@pytest.mark.parametrize("member", MALFORMED)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_malformed_member_is_a_value_error_naming_it(entry, member):
    """The skew routes read a word's coordinates once its nesting is that
    of A^m, in the quotient's table ring, so a word whose coordinates are
    not ints in range is named by its coordinates there."""
    words, call = ENTRY_POINTS[entry]
    bad = MALFORMED[member][0 if words else 1]
    names = {repr(bad)}
    if entry in SKEW and member in ("bool coordinate", "out-of-range coordinate"):
        names = {repr(Q.flatten(bad))}
    with pytest.raises(ValueError) as raised:
        call([Q.zero if words else R.zero, bad])
    assert any(name in str(raised.value) for name in names), str(raised.value)
