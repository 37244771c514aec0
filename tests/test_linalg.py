from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qlzero.linalg import LinearBasis, accumulate
from qlzero.scalars import qpow, qq_int


def test_rank_and_membership_over_field():
    lb = LinearBasis()
    assert lb.add({"a": qq_int(1), "b": qpow(1)})
    assert lb.add({"b": qq_int(2)})
    assert not lb.add({"a": qq_int(3), "b": qpow(1) * qq_int(3)})  # dependent
    assert lb.rank == 2
    assert lb.reduce({"a": qpow(2), "b": qq_int(-1)}) == {}
    assert lb.reduce({"c": qq_int(1)}) == {"c": qq_int(1)}


def test_residual_is_canonical():
    lb = LinearBasis()
    lb.add({"a": qq_int(1), "c": qq_int(1)})
    v1 = lb.reduce({"a": qq_int(2), "b": qq_int(1)})
    v2 = lb.reduce(dict(v1))
    assert v1 == v2
    assert "a" not in v1  # pivot eliminated


def test_standard_columns():
    lb = LinearBasis()
    lb.add({"a": qq_int(1), "b": qq_int(1)})
    assert lb.standard_columns(["a", "b", "c"]) == ["b", "c"]


def test_works_with_fractions():
    lb = LinearBasis()
    lb.add({"x": Fraction(2), "y": Fraction(1, 3)})
    lb.add({"y": Fraction(5)})
    assert lb.reduce({"x": Fraction(4), "y": Fraction(7)}) == {}
    assert lb.reduce({"z": Fraction(1)}) == {"z": Fraction(1)}


def test_custom_column_order_controls_pivots():
    lb = LinearBasis(key=lambda c: -ord(c))
    lb.add({"a": qq_int(1), "z": qq_int(1)})
    assert "z" in lb.pivots and "a" not in lb.pivots


COLUMNS = "abcde"
fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
# sums of two q-powers too, so that pivots carry non-monomial denominators
rfqs = st.builds(lambda c, k, d, l: qq_int(c) * qpow(k) + qq_int(d) * qpow(l),
                 st.integers(-2, 2), st.integers(-2, 2),
                 st.integers(-2, 2), st.integers(-2, 2))


def vectors(entries):
    return st.lists(st.dictionaries(st.sampled_from(COLUMNS), entries,
                                    max_size=len(COLUMNS)).map(
        lambda v: {c: x for c, x in v.items() if x}), max_size=7)


def assert_fully_reduced(lb, added, one):
    for piv, row in lb.pivots.items():
        assert row[piv] == one and piv == min(row, key=lb.key)
        for other in lb.pivots:
            assert other == piv or other not in row, (piv, other, row)
    # the basis spans every inserted vector
    for vec in added:
        assert lb.reduce(vec) == {}


@given(vectors(rfqs))
@settings(max_examples=60, deadline=None)
def test_basis_stays_fully_reduced_over_qq(vecs):
    lb = LinearBasis()
    for v in vecs:
        lb.add(v)
    assert_fully_reduced(lb, vecs, qq_int(1))


@given(vectors(fractions))
@settings(max_examples=100, deadline=None)
def test_basis_stays_fully_reduced_over_fractions(vecs):
    lb = LinearBasis(key=lambda c: -ord(c))
    for v in vecs:
        lb.add(v)
    assert_fully_reduced(lb, vecs, Fraction(1))


@st.composite
def streams(draw, entries):
    """(start, items, cancelled, scale): a start vector and a shuffled
    (key, value) stream in which every item of the keys in `cancelled`
    comes with its negation, so those keys cancel back to their start."""
    start = draw(st.dictionaries(st.sampled_from(COLUMNS), entries))
    start = {c: x for c, x in start.items() if x}
    items = draw(st.lists(st.tuples(st.sampled_from(COLUMNS), entries), max_size=10))
    cancelled = draw(st.sets(st.sampled_from(COLUMNS)))
    items += [(c, -x) for c, x in items if c in cancelled]
    return start, draw(st.permutations(items)), cancelled, draw(st.none() | entries)


def assert_accumulates(start, items, cancelled, scale, zero):
    ref = dict(start)
    for c, x in items:
        ref[c] = ref.get(c, zero) + (x if scale is None else scale * x)
    target = dict(start)
    assert accumulate(target, items, scale) is target
    assert target == {c: x for c, x in ref.items() if x}
    assert all(target.values())
    assert all(target.get(c) == start.get(c) for c in cancelled)


@given(streams(rfqs))
@settings(max_examples=100, deadline=None)
def test_accumulate_drops_cancellations_over_qq(stream):
    assert_accumulates(*stream, qq_int(0))


@given(streams(fractions))
@settings(max_examples=200, deadline=None)
def test_accumulate_drops_cancellations_over_fractions(stream):
    assert_accumulates(*stream, Fraction(0))
