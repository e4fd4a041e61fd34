"""The integer bimodule-hom system agrees with the dense reference.

triangular.bimodule_hom_basis and standard_form_check (hypothesis cond_iii)
build their rows from the integer product table; dense_oracle builds dense
action matrices from Element arithmetic and reduces them by dense Gauss
elimination.  Both must give the same canonical hom basis, the same
standard-form generators and the same verdict, and hypothesis_report must
report them, on the oracle algebras, T6 k=3, block [2,2,1] and on T3 with
a non-integer structure constant.
"""

from fractions import Fraction

import pytest

import dense_oracle
from liebider import (block_upper_triangular, bimodule_hom_basis, hypothesis_report,
                      standard_form_check, upper_triangular)
from liebider import triangular as triangular_module
from test_bider import t3_scaled
from test_decompose_oracle import ALGEBRAS

CASES = dict(ALGEBRAS, t3_scaled=t3_scaled,
             t6k3=lambda: upper_triangular(6, 3),
             block221=lambda: block_upper_triangular([2, 2, 1], 1))


def dense(row, n):
    return tuple(Fraction(row.get(c, 0)) for c in range(n))


@pytest.mark.parametrize("name", sorted(CASES))
def test_hom_system_matches_dense_reference(name):
    t = CASES[name]()
    dm = len(t.m_indices)
    homs = dense_oracle.bimodule_homs(t)
    gens = dense_oracle.standard_form_generators(t)
    assert bimodule_hom_basis(t) == list(homs)
    assert [dense(g, dm * dm) for g in triangular_module._standard_form_generators(t)] == gens
    assert standard_form_check(t) is dense_oracle.standard_form_check(t)
    assert hypothesis_report(t).details["cond_iii"] == {
        "hom_dim": len(homs), "standard_generator_count": len(gens),
        "equal_spans": dense_oracle.standard_form_check(t)}


@pytest.mark.parametrize("name", ["t3", "block22"])
def test_standard_form_check_needs_both_containments(name, monkeypatch):
    # the hom span is the identity's; a generator set of the same rank but
    # another span, a larger one and an empty one each fail
    t = CASES[name]()
    dm = len(t.m_indices)
    homs = [tuple(x for row in h for x in row) for h in bimodule_hom_basis(t)]
    assert len(homs) == 1
    for gens in ([{0: Fraction(1)}], [{0: Fraction(1)}, {dm + 1: Fraction(1)}], []):
        monkeypatch.setattr(triangular_module, "_standard_form_generators",
                            lambda t, gens=gens: gens)
        assert standard_form_check(t) is False
        assert dense_oracle.spans_equal(homs, [dense(g, dm * dm) for g in gens]) is False
