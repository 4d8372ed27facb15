import random

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from coarselab.lineset import (
    INF,
    BlocksSet,
    ExtendedDistance,
    FiniteSet,
    GeometricSet,
    LineSetError,
    PeriodicSet,
    arithmetic,
    diameter,
    evens,
    hausdorff_at_scale,
    hausdorff_distance,
    intersection,
    is_subset,
    lineset_from_json,
    naturals,
    normality_split,
    odds,
    point_distance,
    sparsify_split,
    union,
    verify_gap_certificate,
)
from coarselab.lineset import (
    _FAR,
    _distance_field,
    _distances_to,
    _last_within,
    _padded_window,
    _periodic_field,
    _runs_field,
    _sparsify_fields,
    _sparsify_runs,
    _sparsify_take,
)

from oracles import brute_hausdorff, last_within_reference, random_periodic


class TestMembership:
    def test_periodic_even(self):
        assert evens().contains(4)

    def test_geometric_non_power(self):
        assert not GeometricSet(1, 2, 1).contains(12)

    def test_explicit_removal(self):
        s = PeriodicSet(progressions=((1, 3),), removals=(7,))
        assert not s.contains(7)
        assert s.contains(10)

    def test_removal_outside_body_rejected(self):
        with pytest.raises(ValueError):
            PeriodicSet(progressions=((0, 2),), removals=(3,))


class TestWindow:
    def test_evens(self):
        assert evens().window(5) == [0, 2, 4]

    def test_geometric(self):
        assert GeometricSet(1, 2, 1).window(20) == [2, 4, 8, 16]

    def test_naturals(self):
        assert naturals().window(3) == [0, 1, 2, 3]


class TestIsFinite:
    def test_finite_list(self):
        assert FiniteSet((1, 5, 9)).is_finite()

    def test_evens(self):
        assert not evens().is_finite()

    def test_periodic_without_progressions(self):
        assert PeriodicSet(finite_part=(3,)).is_finite()


class TestHausdorffExact:
    def test_self_distance_zero(self):
        s = PeriodicSet((4,), ((1, 3),))
        assert hausdorff_distance(s, s).value == 0

    def test_evens_odds(self):
        assert hausdorff_distance(evens(), odds()).value == 1

    def test_finite_vs_infinite(self):
        assert hausdorff_distance(FiniteSet((0,)), evens()) is INF or hausdorff_distance(
            FiniteSet((0,)), evens()
        ).is_infinite

    def test_empty_rejected(self):
        with pytest.raises(LineSetError):
            hausdorff_distance(FiniteSet(()), evens())

    def test_non_exact_tier_rejected(self):
        with pytest.raises(LineSetError):
            hausdorff_distance(GeometricSet(), evens())

    def test_both_finite(self):
        assert hausdorff_distance(FiniteSet((0, 10)), FiniteSet((3,))).value == 7

    def test_agrees_with_brute_force_on_500_pairs(self):
        rng = random.Random(20260809)
        checked = 0
        while checked < 500:
            a, b = random_periodic(rng), random_periodic(rng)
            if a.is_empty() or b.is_empty():
                continue
            assert hausdorff_distance(a, b).value == brute_hausdorff(a, b), (a, b)
            checked += 1

    def test_pseudo_metric_on_200_triples(self):
        rng = random.Random(77)
        checked = 0
        while checked < 200:
            xs = [random_periodic(rng) for _ in range(3)]
            if any(x.is_empty() for x in xs):
                continue
            dab = hausdorff_distance(xs[0], xs[1]).value
            dbc = hausdorff_distance(xs[1], xs[2]).value
            dac = hausdorff_distance(xs[0], xs[2]).value
            assert dab == hausdorff_distance(xs[1], xs[0]).value
            assert hausdorff_distance(xs[0], xs[0]).value == 0
            assert dac <= dab + dbc
            checked += 1

    def test_infinite_periodic_pairs_always_finite(self):
        rng = random.Random(31415)
        checked = 0
        while checked < 200:
            a, b = random_periodic(rng), random_periodic(rng)
            if a.is_finite() or b.is_finite() or a.is_empty() or b.is_empty():
                continue
            assert not hausdorff_distance(a, b).is_infinite
            checked += 1


class TestHausdorffAtScale:
    def test_geometric_pair_refuted(self):
        a, b = GeometricSet(1, 2, 1), GeometricSet(1, 4, 1)
        v = hausdorff_at_scale(a, b, 10, 10**6)
        assert v.is_no
        x = v.witness["point"]
        near = b if v.witness["side"] == 0 else a
        assert point_distance(near, x) > 10

    def test_exact_tier_delegates(self):
        assert hausdorff_at_scale(evens(), odds(), 1, 100).is_yes

    def test_exact_tier_no_carries_witness(self):
        v = hausdorff_at_scale(evens(), arithmetic(0, 10), 2, 100)
        assert v.is_no
        x, side = v.witness["point"], v.witness["side"]
        far_from = arithmetic(0, 10) if side == 0 else evens()
        assert point_distance(far_from, x) > 2

    def test_blocks_gap_midpoints(self):
        blocks = BlocksSet("doubling-blocks", (1,))
        v = hausdorff_at_scale(naturals(), blocks, 5, 10**4)
        assert v.is_no
        assert point_distance(blocks, v.witness["point"]) > 5

    def test_far_exact_pair_builds_each_window_once(self, monkeypatch):
        calls = []
        build = PeriodicSet.window_array

        def counted(self, hi):
            calls.append(hi)
            return build(self, hi)

        monkeypatch.setattr(PeriodicSet, "window_array", counted)
        v = hausdorff_at_scale(arithmetic(0, 10), arithmetic(0, 3), 1, 100)
        assert v.is_no
        assert calls == [151, 151]

    def test_unknown_on_exhaustion(self):
        a = GeometricSet(1, 2, 1)
        v = hausdorff_at_scale(a, a, 3, 1000)
        assert v.is_unknown
        assert v.witness["budget"] == 1000


class TestGapCertificates:
    def test_evens_gap_one(self):
        v = verify_gap_certificate(evens(), 1, 10)
        assert v.is_yes and v.witness["pair"] == (0, 2)

    def test_evens_gap_two_exact_no(self):
        v = verify_gap_certificate(evens(), 2, 10)
        assert v.is_no and v.witness["max_gap"] == 2

    def test_geometric_gap(self):
        v = verify_gap_certificate(GeometricSet(1, 2, 1), 100, 1000)
        assert v.is_yes and v.witness["pair"] == (128, 256)

    def test_finite_rejected(self):
        with pytest.raises(LineSetError):
            verify_gap_certificate(FiniteSet((1, 2)), 1, 10)


class TestSparsifySplit:
    def test_window_values(self):
        left, right = sparsify_split(naturals())
        # simulated from the index rule: side 0 takes 1-based indices
        # [16^j, 2*16^j), side 1 takes [4*16^j, 8*16^j)
        assert left.window(40) == [0] + list(range(15, 31))
        assert right.window(62) == [3, 4, 5, 6]

    def test_both_infinite(self):
        left, right = sparsify_split(naturals())
        assert not left.is_finite() and not right.is_finite()
        assert len(left.window(10**5)) > 1000

    def test_mutual_refutation_up_to_64(self):
        left, right = sparsify_split(naturals())
        for k in (1, 4, 16, 64):
            assert hausdorff_at_scale(left, right, k, 10**6).is_no

    def test_subsets_of_base(self):
        base = evens()
        left, right = sparsify_split(base)
        for x in left.window(500) + right.window(500):
            assert base.contains(x)

    def test_finite_rejected(self):
        with pytest.raises(LineSetError):
            sparsify_split(FiniteSet((1, 2, 3)))


class TestNormalitySplit:
    def test_pointwise_rule(self):
        a, b = GeometricSet(1, 2, 1), FiniteSet((0,))
        x1, x2, v = normality_split(a, b, 200)
        # side nearer b is the small neighborhood of 0; side nearer a is cofinite
        assert x1.window(30) == [0, 1]
        assert x2.window(12) == list(range(1, 13))
        assert v.is_yes

    def test_coverage(self):
        a, b = evens(), odds()
        x1, x2, _ = normality_split(a, b, 300)
        covered = set(x1.window(300)) | set(x2.window(300))
        assert covered == set(range(301))

    def test_sparsified_halves(self):
        left, right = sparsify_split(naturals())
        _, _, v = normality_split(left, right, 10**5)
        assert v.is_yes
        for row in v.witness["scales"]:
            assert row["last_near_a"] <= 100 and row["last_near_b"] <= 100


@st.composite
def periodic_sets(draw, infinite: bool = False) -> PeriodicSet:
    """Overlapping progressions, a finite part partly inside them, and
    removals drawn from the set body."""
    ap = st.tuples(st.integers(0, 40), st.integers(1, 9))
    progs = draw(st.lists(ap, min_size=1 if infinite else 0, max_size=3))
    fin = draw(st.lists(st.integers(0, 300), max_size=6))
    on_progs = PeriodicSet(progressions=progs).window(300)
    if on_progs:
        fin += draw(st.lists(st.sampled_from(on_progs), max_size=4))
    body = PeriodicSet(fin, progs).window(320)
    rem = draw(st.lists(st.sampled_from(body), max_size=6)) if body else []
    return PeriodicSet(fin, progs, rem)


@st.composite
def enumerated_sets(draw):
    """Finite sets, geometric sets, and the doubling-blocks and
    geometric-offset rules, with small parameters."""
    kind = draw(st.sampled_from(["finite", "geometric", "doubling-blocks", "geometric-offset"]))
    if kind == "finite":
        return FiniteSet(tuple(draw(st.lists(st.integers(0, 700), max_size=12))))
    if kind == "geometric":
        return GeometricSet(draw(st.integers(1, 9)), draw(st.integers(2, 5)), draw(st.integers(0, 3)))
    if kind == "doubling-blocks":
        return BlocksSet(kind, (draw(st.integers(1, 40)),))
    ints = (draw(st.integers(1, 9)), draw(st.integers(2, 5)), draw(st.integers(0, 3)), draw(st.integers(0, 4)))
    return BlocksSet(kind, ints if ints != (1, 2, 0, 0) else (1, 2, 0, 1))


def assert_window(s, hi: int) -> None:
    """``s.window_array(hi)`` is ``int64`` and lists the members that
    ``contains`` accepts in ``[0, hi]``; ``s.window(hi)`` is its list form."""
    arr = s.window_array(hi)
    assert arr.dtype == np.int64
    expected = [n for n in range(hi + 1) if s.contains(n)]
    assert arr.tolist() == expected
    assert s.window(hi) == expected


class TestWindowArray:
    """``window_array`` of every class against its membership rule."""

    @seed(20261018)
    @settings(max_examples=300, deadline=None)
    @given(periodic_sets(), st.integers(0, 320))
    def test_periodic_matches_window(self, s, hi):
        assert_window(s, hi)

    @seed(20261018)
    @settings(max_examples=200, deadline=None)
    @given(enumerated_sets(), st.integers(0, 700))
    def test_enumerated_sets_match_contains(self, s, hi):
        assert_window(s, hi)

    @seed(20261018)
    @settings(max_examples=100, deadline=None)
    @given(periodic_sets(infinite=True), st.integers(0, 320))
    def test_sparsify_halves_match_contains(self, base, hi):
        for half in sparsify_split(base):
            assert_window(half, hi)

    @seed(20261018)
    @settings(max_examples=100, deadline=None)
    @given(periodic_sets(infinite=True), periodic_sets(), st.integers(0, 200))
    def test_nearer_side_matches_contains(self, a, b, hi):
        if b.is_empty():
            b = a
        for side in (0, 1):
            assert_window(BlocksSet("nearer-side", (side,), (a, b)), hi)

    def test_nearer_side_of_a_finite_set_beyond_the_cushion(self):
        for side in (0, 1):
            assert_window(BlocksSet("nearer-side", (side,), (naturals(), PeriodicSet((65,)))), 0)

    def test_nearer_side_of_sparsified_halves(self):
        left, right = sparsify_split(evens())
        x1, x2, _ = normality_split(left, right, 400)
        for x in (x1, x2):
            assert_window(x, 400)


@st.composite
def line_sets(draw):
    """A set of every class: periodic and enumerated sets, sparsify halves
    and nearer sides of periodic sets."""
    kind = draw(st.sampled_from(["periodic", "enumerated", "sparsify-half", "nearer-side"]))
    if kind == "periodic":
        return draw(periodic_sets().filter(lambda s: not s.is_empty()))
    if kind == "enumerated":
        return draw(enumerated_sets().filter(lambda s: not s.is_empty()))
    side = draw(st.integers(0, 1))
    if kind == "sparsify-half":
        return sparsify_split(draw(periodic_sets(infinite=True)))[side]
    return BlocksSet(kind, (side,), (draw(periodic_sets(infinite=True)), draw(periodic_sets(infinite=True))))


def assert_field(elems, hi: int) -> None:
    elems = np.asarray(elems, dtype=np.int64)
    expected = _distances_to(np.arange(hi + 1, dtype=np.int64), elems)
    field = _distance_field(elems, hi)
    assert field.dtype == np.int64
    assert field.tolist() == expected.tolist()


class TestDistanceField:
    """``_distance_field(e, hi)`` is ``_distances_to(np.arange(hi + 1), e)``."""

    @pytest.mark.parametrize(
        "elems, hi",
        [
            ([0], 0),
            ([3, 8], 0),
            ([7], 30),
            ([40, 50], 10),
            ([2, 5, 6], 20),
            ([0, 4, 9], 9),
            ([1, 9, 30], 12),
        ],
        ids=["hi-zero", "hi-zero-above", "single", "all-above-hi", "finite-below-hi",
             "ends-at-hi", "one-past-hi"],
    )
    def test_edges(self, elems, hi):
        assert_field(elems, hi)

    @seed(20261018)
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 400), min_size=1, max_size=30, unique=True), st.integers(0, 300))
    def test_sorted_arrays(self, elems, hi):
        assert_field(sorted(elems), hi)

    @seed(20261018)
    @settings(max_examples=150, deadline=None)
    @given(line_sets(), st.integers(0, 300))
    def test_padded_windows_of_every_class(self, s, hi):
        assert_field(_padded_window(s, hi), hi)

    def test_empty_rejected(self):
        with pytest.raises(LineSetError):
            _distance_field(np.zeros(0, dtype=np.int64), 5)


def run_ends(elems: np.ndarray, n: int, side: int) -> list[tuple[int, int]]:
    """First and last element of each run of ``_sparsify_take(elems[:n], side)``."""
    return [(int(elems[a]), int(elems[b - 1])) for a, b in _sparsify_runs(n, side)]


def assert_sparsify_fields(base, hi: int) -> None:
    window, field, *halves = _sparsify_fields(base, hi)
    assert window.tolist() == _padded_window(base, hi).tolist()
    assert field.tolist() == _distance_field(window, hi).tolist()
    for half, got in zip(sparsify_split(base), halves):
        win = _padded_window(half, hi)
        assert (got is None) == (win.size == 0)
        if got is not None:
            assert got.tolist() == _distance_field(win, hi).tolist()


class TestBuildFields:
    """The bunch build path's fields equal ``_distance_field`` of the
    windows they stand for."""

    @seed(20261019)
    @settings(max_examples=150, deadline=None)
    @given(periodic_sets(infinite=True), st.integers(-3, 3), st.integers(0, 400))
    def test_periodic_field_matches_distance_field(self, s, shift, far):
        n0, per = s.stabilization_base(), s.period()
        tops = [n0 + per + shift, n0 + 2 * per + shift, n0 + 2 * per + far]
        for hi in (0, n0, *tops):
            hi = max(hi, 0)
            expected = _distance_field(_padded_window(s, hi), hi)
            assert _periodic_field(s, hi).tolist() == expected.tolist()

    @seed(20261019)
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 600), min_size=1, max_size=80, unique=True),
        st.data(),
        st.integers(0, 500),
    )
    def test_runs_field_matches_distance_field(self, elems, data, hi):
        # n cuts the sorted array anywhere: inside a run, between runs, or
        # before the first run of side 1 (n < 4)
        elems = np.asarray(sorted(elems), dtype=np.int64)
        n = data.draw(st.integers(1, elems.size))
        for side in (0, 1):
            take = _sparsify_take(elems[:n], side)
            runs = run_ends(elems, n, side)
            assert bool(runs) == bool(take.size)
            if runs:
                got = _runs_field(_distance_field(elems, hi), runs, hi)
                assert got.tolist() == _distance_field(take, hi).tolist()

    @pytest.mark.parametrize(
        "n, side",
        [(1, 0), (3, 1), (4, 1), (6, 1), (8, 1), (20, 0), (31, 0), (40, 1), (70, 1)],
        ids=["first-of-0", "before-1", "first-of-1", "inside-1", "end-of-1", "inside-0",
             "end-of-0", "gap-of-1", "second-run-of-1"],
    )
    def test_runs_field_at_cuts(self, n, side):
        elems = np.asarray(evens().window(400), dtype=np.int64)
        take = _sparsify_take(elems[:n], side)
        runs = run_ends(elems, n, side)
        assert bool(runs) == (n != 3)  # n = 3 stops before the first run of side 1
        for hi in (0, 5, int(take[-1]), int(take[-1]) + 7, 300) if runs else ():
            got = _runs_field(_distance_field(elems, hi), runs, hi)
            assert got.tolist() == _distance_field(take, hi).tolist()

    @seed(20261019)
    @settings(max_examples=100, deadline=None)
    @given(periodic_sets(infinite=True), st.integers(0, 700))
    def test_sparsify_fields_match_padded_windows(self, base, hi):
        assert_sparsify_fields(base, hi)

    def test_sparsify_fields_of_a_sparse_base_at_small_windows(self):
        # {0, 40, 80, ...}: up to window 11 the second half's window is
        # empty; at 12 to 30 it ends inside its first run, and at 170 the
        # first half's window ends inside its second run
        for hi in (0, 5, 11, 12, 13, 30, 100, 170):
            assert_sparsify_fields(arithmetic(0, 40), hi)

    @seed(20261019)
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 60), min_size=0, max_size=120),
        st.data(),
        st.lists(st.integers(0, 70), min_size=0, max_size=8),
    )
    def test_last_within_matches_reference(self, dists, data, scales):
        dists = np.asarray(dists, dtype=np.int64)
        flags = st.lists(st.booleans(), min_size=dists.size, max_size=dists.size)
        keep = np.asarray(data.draw(flags), dtype=bool)
        expected = last_within_reference(np.where(keep, dists, _FAR), tuple(scales))
        assert _last_within(dists, keep, tuple(scales)).tolist() == expected.tolist()


class TestAlgebra:
    def test_union_covers_naturals(self):
        assert union(evens(), odds()).window(6) == list(range(7))

    def test_union_respects_removals(self):
        a = PeriodicSet(progressions=((0, 2),), removals=(4,))
        b = PeriodicSet(progressions=((0, 4),))
        u = union(a, b)  # 4 returns via b
        assert u.contains(4)

    def test_intersection_crt(self):
        got = intersection(arithmetic(1, 3), arithmetic(2, 4))
        assert got.window(40) == [10, 22, 34]

    def test_intersection_empty(self):
        got = intersection(arithmetic(0, 2), arithmetic(1, 2))
        assert got.is_empty()

    def test_subset(self):
        assert is_subset(evens(), naturals())
        assert not is_subset(naturals(), evens())
        assert is_subset(arithmetic(0, 4), evens())

    def test_diameter(self):
        assert diameter(FiniteSet((3, 9))).value == 6
        assert diameter(evens()).is_infinite


class TestPairedDivergence:
    def test_index_projections_fail_every_scale(self):
        # paired sets with diverging pointwise distances at equal indices
        a = GeometricSet(1, 4, 1)
        b = BlocksSet("geometric-offset", (1, 4, 1, 2))
        for k in (1, 8, 64):
            assert hausdorff_at_scale(a, b, k, 10**6).is_no


BAD_BLOCKS = {
    "geometric-offset m < 1": ("geometric-offset", (-3, 2, 0, 3), ()),
    "geometric-offset m < 1, c > 0": ("geometric-offset", (-2, 2, 0, 1), ()),
    "geometric-offset b < 2": ("geometric-offset", (1, 1, 0, 1), ()),
    "geometric-offset k0 < 0": ("geometric-offset", (1, 2, -1, 0), ()),
    "geometric-offset c < 0": ("geometric-offset", (1, 2, 0, -1), ()),
    "geometric-offset three ints": ("geometric-offset", (1, 2, 0), ()),
    "geometric-offset repeats 2": ("geometric-offset", (1, 2, 0, 0), ()),
    "sparsify-half side 5": ("sparsify-half", (5,), (naturals(),)),
    "sparsify-half no base": ("sparsify-half", (0,), ()),
    "nearer-side side -1": ("nearer-side", (-1,), (evens(), odds())),
    "nearer-side one set": ("nearer-side", (0,), (evens(),)),
    "doubling-blocks width 0": ("doubling-blocks", (0,), ()),
    "doubling-blocks with a set": ("doubling-blocks", (2,), (evens(),)),
}


class TestBlocksValidation:
    @pytest.mark.parametrize("case", sorted(BAD_BLOCKS))
    def test_bad_parameters_rejected(self, case):
        rule, ints, sets = BAD_BLOCKS[case]
        with pytest.raises(ValueError):
            BlocksSet(rule, ints, sets)
        doc = {"kind": "blocks", "rule": rule, "ints": list(ints), "sets": [s.to_json() for s in sets]}
        with pytest.raises(ValueError):
            lineset_from_json(doc)


    @pytest.mark.parametrize("ints", [(1, 2, 1, 0), (1, 3, 0, 0), (2, 2, 0, 0), (1, 2, 0, 1)])
    def test_geometric_offset_edges_strictly_increase(self, ints):
        vals = BlocksSet("geometric-offset", ints).window(10**4)
        assert len(vals) > 3 and all(x < y for x, y in zip(vals, vals[1:]))


class TestSerialization:
    def test_roundtrip(self):
        sets = [
            FiniteSet((1, 5)),
            PeriodicSet((9,), ((0, 2), (1, 7)), (4,)),
            GeometricSet(3, 2, 2),
            BlocksSet("sparsify-half", (0,), (naturals(),)),
        ]
        for s in sets:
            back = lineset_from_json(s.to_json())
            assert back == s

    def test_extended_distance_json(self):
        assert ExtendedDistance.finite(4).to_json() == 4
        assert INF.to_json() == "inf"
