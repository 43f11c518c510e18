"""ResourceVector arithmetic and ordering, with property-based checks.

Every dimension is an integer, so the properties hold exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import ResourceVector

res_vectors = st.builds(
    ResourceVector,
    gpus=st.integers(min_value=0, max_value=64),
    cpus=st.integers(min_value=0, max_value=256),
    host_mem=st.integers(min_value=0, max_value=10**13),
)


class TestBasics:
    def test_zero(self):
        z = ResourceVector.zero()
        assert z.is_zero
        assert z.gpus == 0 and z.cpus == 0 and z.host_mem == 0

    def test_negative_allowed_as_delta(self):
        delta = ResourceVector(gpus=-1)
        assert delta.gpus == -1

    def test_require_non_negative(self):
        with pytest.raises(ValueError):
            ResourceVector(gpus=-1).require_non_negative()
        vec = ResourceVector(1, 1, 1)
        assert vec.require_non_negative() is vec

    def test_add(self):
        a = ResourceVector(1, 2, 3)
        b = ResourceVector(4, 5, 6)
        assert a + b == ResourceVector(5, 7, 9)

    def test_subtract_below_zero(self):
        diff = ResourceVector(1, 1, 1) - ResourceVector(2, 0, 0)
        assert diff == ResourceVector(-1, 1, 1)
        assert not diff.is_zero

    def test_repr_is_compact(self):
        text = repr(ResourceVector(2, 8, 4 * 2**30))
        assert "gpu=2" in text and "4.00 GiB" in text


class TestOrdering:
    def test_fits_within_partial_order(self):
        small = ResourceVector(1, 1, 1)
        big = ResourceVector(2, 2, 2)
        assert small.fits_within(big)
        assert not big.fits_within(small)
        assert big.dominates(small)

    def test_incomparable_vectors(self):
        a = ResourceVector(2, 1, 0)
        b = ResourceVector(1, 2, 0)
        assert not a.fits_within(b)
        assert not b.fits_within(a)


class TestProperties:
    @given(a=res_vectors, b=res_vectors)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(a=res_vectors, b=res_vectors, c=res_vectors)
    def test_addition_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(a=res_vectors, b=res_vectors)
    def test_sum_dominates_parts(self, a, b):
        assert (a + b).dominates(a)
        assert (a + b).dominates(b)

    @given(a=res_vectors)
    def test_fits_within_reflexive(self, a):
        assert a.fits_within(a)

    @given(parts=st.lists(res_vectors, max_size=8), data=st.data())
    def test_sum_is_order_independent(self, parts, data):
        shuffled = data.draw(st.permutations(parts))
        zero = ResourceVector.zero()
        assert sum(shuffled, zero) == sum(parts, zero)

    @given(a=res_vectors, b=res_vectors)
    def test_add_then_subtract_roundtrips(self, a, b):
        assert (a + b) - b == a
