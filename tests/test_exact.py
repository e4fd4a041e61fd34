"""The exact-value rule: every stored value is an int when it is integral
and a Fraction otherwise (linalg.exact).

The rule must change no value: map and Element arithmetic agree with the
Fraction-only reference in exact_reference.py.  A table with
denominators keeps the Fraction path, and solves, decomposes and passes
the lemma suite.  No true division appears in the library, so no int
can turn into a float, and no float reaches a result.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import exact_reference as ref
from liebider import (BilinearMap, Element, MapLaw, NotLieBider, decompose, lemma_suite,
                      make_extremal, make_inner, multiply, solve_space, upper_triangular,
                      verify_decomposition)
from liebider.linalg import exact

SRC = Path(__file__).resolve().parent.parent / "src" / "liebider"

VALUES = st.one_of(st.integers(-10 ** 30, 10 ** 30), st.fractions(), st.booleans(),
                   st.floats(allow_nan=False, allow_infinity=False))


@given(VALUES)
def test_exact_is_an_int_exactly_when_integral(value):
    got = exact(value)
    assert got == Fraction(value)
    assert type(got) is (int if Fraction(value).denominator == 1 else Fraction)
    assert ref.is_stored(got)
    again = exact(got)
    assert again == got and type(again) is type(got)


@given(st.one_of(st.integers(-10 ** 6, 10 ** 6), st.fractions()),
       st.integers(-50, 50).filter(bool))
def test_exact_divides_by_den(value, den):
    got = exact(value, den)
    assert got == Fraction(value) / den
    assert ref.is_stored(got)


def test_exact_never_returns_a_float_or_a_bool():
    assert exact(True) == 1 and type(exact(True)) is int
    assert exact(2.0) == 2 and type(exact(2.0)) is int
    assert exact(0.5) == Fraction(1, 2) and type(exact(0.5)) is Fraction
    assert type(exact("3/1")) is int and exact("3/1") == 3
    assert exact(7, 7) == 1 and type(exact(7, 7)) is int
    assert exact(6, -4) == Fraction(-3, 2)


# maps and elements on a table with denominators, so both kinds of value
# meet in the arithmetic
T3R = ref.rescaled(upper_triangular(3, 2), [Fraction(1, 2), 3])
DIM = T3R.alg.dim
COEFFS = st.dictionaries(st.tuples(*[st.integers(0, DIM - 1)] * 3),
                         st.fractions(-6, 6, max_denominator=3), max_size=12)
COORDS = st.lists(st.fractions(-4, 4, max_denominator=3), min_size=DIM, max_size=DIM)
SCALARS = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=4))


def stored(values):
    values = list(values)
    assert all(ref.is_stored(v) for v in values), values
    return values


@given(COEFFS, COEFFS, SCALARS)
def test_map_arithmetic_matches_the_fraction_reference(a, b, s):
    alg = T3R.alg
    phi, psi = BilinearMap(alg, a), BilinearMap(alg, b)
    ra, rb = ref.ref_map(a), ref.ref_map(b)
    cases = [(phi, ra), (phi + psi, ref.ref_add(ra, rb)), (phi - psi, ref.ref_add(ra, rb, -1)),
             (phi.scale(s), ref.ref_scale(ra, s))]
    for got, want in cases:
        assert got.items() == ref.ref_items(want)
        stored(v for *_, v in got.items())
        assert stored(got.flat()) == ref.ref_flat(want, DIM)
        rebuilt = BilinearMap(alg, want)
        assert got == rebuilt and hash(got) == hash(rebuilt)
        for i in range(DIM):
            for j in range(DIM):
                assert stored(got.value(i, j).coords) == ref.ref_value(want, DIM, i, j)
    assert (phi == psi) == (ra == rb)


@given(COEFFS, COORDS, COORDS, SCALARS)
def test_element_arithmetic_matches_the_fraction_reference(a, x, y, s):
    alg = T3R.alg
    ex, ey = Element(alg, x), Element(alg, y)
    assert stored(multiply(ex, ey).coords) == ref.ref_multiply(alg, x, y)
    assert stored((ex + ey).coords) == [p + q for p, q in zip(x, y)]
    assert stored((ex - ey).coords) == [p - q for p, q in zip(x, y)]
    assert stored(ex.scale(s).coords) == [Fraction(s) * p for p in x]
    assert stored(BilinearMap(alg, a)(ex, ey).coords) == ref.ref_call(ref.ref_map(a), DIM, x, y)
    assert ex == Element(alg, [Fraction(p) for p in x])
    assert hash(ex) == hash(Element(alg, [Fraction(p) for p in x]))


def test_constructor_tables_hold_ints():
    alg = upper_triangular(4, 2).alg
    assert all(type(v) is int for *_, v in alg.structure_items())
    assert all(type(v) is int for v in alg.unit)


def test_rescaled_t5_keeps_the_fraction_path():
    t = ref.rescaled_t5()
    table = [v for *_, v in t.alg.structure_items()]
    assert stored(table) and any(type(v) is Fraction for v in table)
    space = solve_space(t.alg, MapLaw.LIE_BIDER)
    values = stored(v for phi in space for *_, v in phi.items())
    assert len(space) == 27
    assert 0 < sum(type(v) is Fraction for v in values) < len(values)
    for phi in space:
        d = decompose(t, phi)
        assert verify_decomposition(t, phi, d)
        assert make_inner(t, d.lambda0) + make_extremal(t, d.r) + d.mu == phi
        stored(d.lambda0.coords + d.r.coords)
        stored(v for *_, v in d.mu.items())
        assert lemma_suite(t, phi).all_pass()


def test_library_has_no_true_division():
    # int / int is a float: one such division would break exactness
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _values(obj):
    """Every number inside a result: Elements, maps, dicts, sequences."""
    if isinstance(obj, Element):
        yield from obj.coords
    elif isinstance(obj, BilinearMap):
        yield from (v for *_, v in obj.items())
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _values(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _values(v)
    elif isinstance(obj, (int, Fraction, float)) and not isinstance(obj, bool):
        yield obj


@pytest.mark.parametrize("make", [lambda: upper_triangular(4, 2), ref.rescaled_t5],
                         ids=["t4", "t5k2_rescaled"])
def test_no_result_holds_a_float(make):
    t = make()
    alg = t.alg
    found = list(_values(t.center))
    for law in MapLaw:
        found += _values(solve_space(alg, law))
    for phi in solve_space(alg, MapLaw.LIE_BIDER):
        d = decompose(t, phi)
        found += _values([d.lambda0, d.r, d.mu, list(lemma_suite(t, phi))])
    # the basis maps pass every lemma; a map off the law fails some, with
    # witnesses
    off = phi + BilinearMap(alg, {(0, 1, 1): Fraction(1, 3)})
    with pytest.raises(NotLieBider) as exc:
        decompose(t, off)
    failing = [ent for ent in lemma_suite(t, off) if not ent["passed"]]
    assert failing
    found += _values([exc.value.witness, failing])
    assert stored(found)
