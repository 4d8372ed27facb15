import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab.setcore import (
    CapExceeded,
    Family,
    Universe,
    downward_closure,
    ll_refines,
    vee,
)

U = Universe.of("a", "b", "c")


def fam(*subsets):
    return U.family([U.subset(s) for s in subsets])


class TestUniverse:
    def test_labels_unique(self):
        with pytest.raises(ValueError):
            Universe.of("a", "a")

    def test_nonempty(self):
        with pytest.raises(ValueError):
            Universe(())

    def test_cap(self):
        with pytest.raises(CapExceeded):
            Universe(tuple(f"x{i}" for i in range(17)))

    def test_subset_roundtrip(self):
        s = U.subset("ac")
        assert s.labels() == ("a", "c")
        assert "a" in s and "b" not in s


class TestFamily:
    def test_canonical_order_and_dedup(self):
        f = fam("b", "a", "b")
        assert [m.labels() for m in f] == [("a",), ("b",)]

    def test_mask_key_roundtrip(self):
        f = fam("a", "ab", "")
        assert Family.from_mask_key(U, f.mask_key()) == f

    def test_universe_mismatch(self):
        other = Universe.of("x", "y")
        with pytest.raises(ValueError):
            U.family([other.subset("x")])


class TestVee:
    def test_singleton_unions(self):
        assert vee(fam("a"), fam("b")) == fam("ab")

    def test_identity_element(self):
        a = fam("a", "bc")
        assert vee(a, fam("")) == a

    def test_enumerated_unions(self):
        # {{a},{b}} v {{b},{c}}: all four unions, deduplicated
        got = vee(fam("a", "b"), fam("b", "c"))
        assert got == fam("ab", "ac", "b", "bc")

    def test_universe_mismatch(self):
        other = Universe.of("x", "y")
        with pytest.raises(ValueError):
            vee(fam("a"), other.family([other.subset("x")]))

    def test_empty_operand(self):
        assert vee(fam("a"), U.family([])) == U.family([])


class TestLlRefines:
    def test_subset_witness(self):
        assert ll_refines(fam("a"), fam("ab"))

    def test_reflexive(self):
        a = fam("a", "bc")
        assert ll_refines(a, a)

    def test_no_member_inside(self):
        assert not ll_refines(fam("ab"), fam("a", "b"))

    def test_subfamily_not_sufficient(self):
        # b a subfamily of a does not by itself give b << a
        assert not ll_refines(fam("a"), fam("a", "b"))


class TestDownwardClosure:
    def test_two_member_family(self):
        got = downward_closure([fam("a", "ab")])
        assert got == [U.family([]), fam("a"), fam("ab"), fam("a", "ab")]

    def test_empty_input(self):
        assert downward_closure([]) == []

    def test_paper_generators(self):
        got = downward_closure([fam("a", "ab"), fam("ac", "abc")])
        assert len(got) == 7  # the empty family is shared
        assert fam("ac") in got and fam("a", "ab") in got

    def test_idempotent(self):
        once = downward_closure([fam("a", "b", "ab")])
        assert downward_closure(once) == once

    def test_monotone(self):
        small = set(downward_closure([fam("a", "ab")]))
        large = set(downward_closure([fam("a", "ab"), fam("bc")]))
        assert small <= large

    def test_cap(self):
        with pytest.raises(CapExceeded):
            downward_closure([fam("a", "b", "c", "ab", "ac", "bc", "abc")], cap=10)


families = st.builds(
    lambda masks: Family.from_masks(U, masks),
    st.lists(st.integers(min_value=0, max_value=7), max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(families, families, families)
def test_vee_associative_commutative(a, b, c):
    assert vee(a, b) == vee(b, a)
    assert vee(vee(a, b), c) == vee(a, vee(b, c))


@settings(max_examples=200, deadline=None)
@given(families, families, families)
def test_ll_refines_transitive(a, b, c):
    if ll_refines(a, b) and ll_refines(b, c):
        assert ll_refines(a, c)
