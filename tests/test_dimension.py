import random

import numpy as np
import pytest

from coarselab import dimension

from coarselab import lineset as ls
from coarselab.backends import (
    ExplicitBackend,
    MetricLineBackend,
    PartitionCoarseBackend,
    TopoTraceBackend,
    lambda_of,
)
from coarselab.dimension import (
    Cover,
    asdim_explicit,
    asdim_topo_line_report,
    asr_uniformly_bounded,
    greedy_interval_coarsen,
    is_uniformly_bounded,
    mult1_forced_member_size,
    multiplicity,
    refines,
    transversal_family,
)
from coarselab.mining import all_partitions, random_lsr
from coarselab.setcore import CapExceeded, Family, Universe
from coarselab.structures import ExplicitLSR

from oracles import partition_backend

U3 = Universe.of("a", "b", "c")
U4 = Universe.of("a", "b", "c", "d")


def fam(u, *subsets):
    return u.family([u.subset(s) for s in subsets])


class TestTransversal:
    def test_single_member(self):
        got = transversal_family([U3.subset("a")])
        assert got == fam(U3, "a")

    def test_two_singletons(self):
        got = transversal_family([U3.subset("a"), U3.subset("b")])
        assert got == fam(U3, "ab")

    def test_one_pair(self):
        got = transversal_family([U3.subset("ab")])
        assert got == fam(U3, "a", "b", "ab")

    def test_cap(self):
        big = Universe(tuple("abcdefghijklmn"))
        with pytest.raises(CapExceeded):
            transversal_family([big.subset("abcdefghijklmn")])


class TestUniformBoundedness:
    def test_adjacent_pairs_metric(self):
        v = is_uniformly_bounded(Cover.from_rule("adjacent-pairs"), MetricLineBackend())
        assert v.is_yes and v.witness["diameter_bound"] == 1

    def test_i_to_2i_split_verdicts(self):
        cover = Cover.from_rule("i-to-2i")
        assert is_uniformly_bounded(cover, TopoTraceBackend()).is_yes
        assert is_uniformly_bounded(cover, MetricLineBackend()).is_no

    def test_singleton_cover_everywhere(self):
        assert is_uniformly_bounded(Cover.from_rule("singletons"), TopoTraceBackend()).is_yes
        assert is_uniformly_bounded(Cover.from_rule("singletons"), MetricLineBackend()).is_yes
        for blocks in all_partitions(U3):
            pb = PartitionCoarseBackend(U3, blocks)
            cover = Cover.explicit([U3.subset(x) for x in "abc"])
            assert is_uniformly_bounded(cover, pb).is_yes

    def test_explicit_witness(self):
        pb = partition_backend(U3, [["a", "b"], ["c"]])
        cover = Cover.explicit([U3.subset("ac"), U3.subset("b")])
        v = is_uniformly_bounded(cover, pb)
        assert v.is_no and v.witness["subfamily"] == ["{a,c}"]

    def test_members_bounded_consequence_explicit(self):
        # uniformly bounded families consist of bounded sets, all backends
        rng = random.Random(3)
        for blocks in all_partitions(U4):
            pb = PartitionCoarseBackend(U4, blocks)
            bounded = pb.bounded_mask()
            nonempty = [Family.from_mask_key(U4, 1 << s).members[0] for s in range(1, 16)]
            for _ in range(10):
                members = rng.sample(nonempty, rng.randint(1, 4))
                cover = Cover.explicit(members)
                if is_uniformly_bounded(cover, pb).is_yes:
                    assert all(bounded >> s.mask & 1 for s in members)

    def test_members_bounded_consequence_line(self):
        mb, tb = MetricLineBackend(), TopoTraceBackend()
        finite_cover = Cover.of_line_sets([ls.FiniteSet((1, 2)), ls.FiniteSet((7, 9))])
        assert is_uniformly_bounded(finite_cover, mb).is_yes
        assert mb.bounded(ls.FiniteSet((1, 2))).is_yes
        infinite_cover = Cover.of_line_sets([ls.evens()])
        assert is_uniformly_bounded(infinite_cover, tb).is_no
        assert tb.bounded(ls.evens()).is_no

    def test_intersecting_union_lemma_metric(self):
        # merge two uniformly bounded window families along intersections
        rng = random.Random(5)
        mb = MetricLineBackend()
        for _ in range(25):
            u_members = [
                ls.FiniteSet(tuple(range(s, s + rng.randint(1, 3))))
                for s in rng.sample(range(40), 5)
            ]
            v_members = [
                ls.FiniteSet(tuple(range(s, s + rng.randint(1, 4))))
                for s in rng.sample(range(40), 5)
            ]
            u_cover, v_cover = Cover.of_line_sets(u_members), Cover.of_line_sets(v_members)
            assert is_uniformly_bounded(u_cover, mb).is_yes
            assert is_uniformly_bounded(v_cover, mb).is_yes
            merged = [
                ls.union(a, b)
                for a in u_members
                for b in v_members
                if not ls.intersection(a, b).is_empty()
            ]
            if merged:
                assert is_uniformly_bounded(Cover.of_line_sets(merged), mb).is_yes

    def test_intersecting_union_lemma_explicit(self):
        rng = random.Random(6)
        for blocks in all_partitions(U4):
            pb = PartitionCoarseBackend(U4, blocks)
            singles = [Family.from_mask_key(U4, 1 << s).members[0] for s in range(1, 16)]
            for _ in range(6):
                u_members = rng.sample(singles, 3)
                v_members = rng.sample(singles, 3)
                u_cover, v_cover = Cover.explicit(u_members), Cover.explicit(v_members)
                if not (
                    is_uniformly_bounded(u_cover, pb).is_yes
                    and is_uniformly_bounded(v_cover, pb).is_yes
                ):
                    continue
                merged = [
                    a.union(b)
                    for a in u_members
                    for b in v_members
                    if not a.intersection(b).is_empty
                ]
                if merged:
                    assert is_uniformly_bounded(Cover.explicit(merged), pb).is_yes

    def test_lsr_ub_implies_asr_ub(self):
        # the comparison direction of uniform boundedness, on regular instances
        rng = random.Random(8)
        instances = [PartitionCoarseBackend(U4, blocks) for blocks in all_partitions(U4)]
        singles = [Family.from_mask_key(U4, 1 << s).members[0] for s in range(1, 16)]
        for pb in instances:
            asr = lambda_of(pb)
            for _ in range(8):
                members = rng.sample(singles, rng.randint(1, 4))
                if is_uniformly_bounded(Cover.explicit(members), pb).is_yes:
                    ok, witness = asr_uniformly_bounded(asr, members)
                    assert ok, witness


class StarRuleFamily:
    """Parameterized line cover for the validation gate."""

    def __init__(self, kind: str, param: int):
        self.kind = kind
        self.param = param

    def window_members(self, n: int) -> list[frozenset[int]]:
        if self.kind == "interval":  # [i, i+c]: star c+1, finite
            return [frozenset(range(i, min(i + self.param, n) + 1)) for i in range(1, n + 1)]
        if self.kind == "stretch":  # [i, 2i]: star grows with the point but stays finite
            return [frozenset(range(i, min(2 * i, n) + 1)) for i in range(1, n + 1)]
        if self.kind == "nested":  # [1, i]: infinite star at every point
            return [frozenset(range(1, i + 1)) for i in range(1, n + 1)]
        if self.kind == "fan":  # {p, i}: infinite star at p
            p = self.param
            return [frozenset((p, i)) for i in range(1, n + 1)]
        if self.kind == "tail":  # one infinite member [p, infinity)
            return [frozenset((i,)) for i in range(1, n + 1)] + [
                frozenset(range(self.param, n + 1))
            ]
        raise ValueError(self.kind)

    def star_finite(self) -> bool:
        return self.kind in ("interval", "stretch")

    def all_members_finite(self) -> bool:
        return self.kind != "tail"


def windowed_trace_ub(family: StarRuleFamily, windows=(128, 256, 512, 1024)) -> bool:
    """Brute-force proxy on growing windows: per-point stars must
    stabilize, and the total coverage attached to each deep starting
    point must stop growing (members are matched across windows by
    their minimum; edge-clipped members near the window top are
    excluded to avoid clipping artifacts)."""
    deep = windows[0] // 4
    star_histories: dict[int, list[int]] = {}
    size_histories: dict[int, list[int]] = {}
    for w in windows:
        members = [m for m in family.window_members(w) if m]
        for x in range(1, deep + 1):
            star_histories.setdefault(x, []).append(sum(1 for m in members if x in m))
        sums: dict[int, int] = {}
        for m in members:
            mn = min(m)
            if mn <= deep:
                sums[mn] = sums.get(mn, 0) + len(m)
        for mn, total in sums.items():
            size_histories.setdefault(mn, []).append(total)
    stars_stable = all(h[-1] == h[-2] for h in star_histories.values())
    members_stable = all(h[-1] == h[-2] for h in size_histories.values())
    return stars_stable and members_stable


class TestStarFinitenessGate:
    def test_criterion_matches_windowed_brute_force_on_50_families(self):
        families = (
            [StarRuleFamily("interval", c) for c in range(1, 21)]
            + [StarRuleFamily("stretch", 0) for _ in range(5)]
            + [StarRuleFamily("nested", 0) for _ in range(5)]
            + [StarRuleFamily("fan", p) for p in range(1, 11)]
            + [StarRuleFamily("tail", p) for p in range(1, 11)]
        )
        assert len(families) == 50
        for family in families:
            criterion = family.star_finite() and family.all_members_finite()
            assert windowed_trace_ub(family) == criterion, family.kind

    def test_production_rules_agree_with_brute_force(self):
        tb = TopoTraceBackend()
        mapping = {
            "adjacent-pairs": StarRuleFamily("interval", 1),
            "i-to-2i": StarRuleFamily("stretch", 0),
        }
        for rule, family in mapping.items():
            verdict = is_uniformly_bounded(Cover.from_rule(rule), tb)
            assert verdict.is_yes == windowed_trace_ub(family)


class TestMultiplicityAndRefinement:
    def test_partition_multiplicity_one(self):
        cover = Cover.explicit([U3.subset("ab"), U3.subset("c")])
        assert multiplicity(cover)[0] == 1

    def test_interval_chain_multiplicity_two(self):
        cover = Cover.of_line_sets(
            [ls.FiniteSet((1, 2, 3)), ls.FiniteSet((2, 3, 4, 5)), ls.FiniteSet((4, 5, 6, 7))]
        )
        assert multiplicity(cover, window=7) == (2, 2)

    def test_adjacent_pairs_refine_interval_chain(self):
        chain = Cover.of_line_sets(
            [ls.FiniteSet((1, 2, 3)), ls.FiniteSet((2, 3, 4, 5)), ls.FiniteSet((4, 5, 6, 7))]
        )
        ok, mapping = refines(Cover.from_rule("adjacent-pairs"), chain, window=6)
        assert ok and len(mapping) == 5

    def test_refinement_counterexample(self):
        ok, witness = refines(
            Cover.explicit([U3.subset("ab")]), Cover.explicit([U3.subset("a"), U3.subset("b")])
        )
        assert not ok and witness == "{a,b}"


class TestGreedyCoarsening:
    def test_adjacent_pairs_anchor_sequence(self):
        _, cert = greedy_interval_coarsen(Cover.from_rule("adjacent-pairs"), 16)
        assert cert.intervals == (
            (1, 3),
            (2, 5),
            (4, 7),
            (6, 9),
            (8, 11),
            (10, 13),
            (12, 15),
            (14, 16),
        )
        assert cert.multiplicity == 2

    def test_singletons_length_two_intervals(self):
        _, cert = greedy_interval_coarsen(Cover.from_rule("singletons"), 8)
        assert cert.intervals == tuple((i, i + 1) for i in range(1, 8))

    def test_disjoint_beyond_neighbors(self):
        _, cert = greedy_interval_coarsen(Cover.from_rule("adjacent-pairs"), 64)
        ivs = cert.intervals
        for i in range(len(ivs)):
            for j in range(i + 2, len(ivs)):
                lo1, hi1 = ivs[i]
                lo2, hi2 = ivs[j]
                assert hi1 < lo2

    def test_certificate_refinement_verified(self):
        cover = Cover.from_rule("adjacent-pairs")
        coarse, cert = greedy_interval_coarsen(cover, 32)
        members = cover.window_members(32)
        targets = coarse.window_members(32)
        for idx, m in enumerate(members):
            assert m <= targets[cert.refinement_map[idx]]

    def test_not_a_cover_rejected(self):
        cover = Cover.of_line_sets([ls.FiniteSet((1, 2))])
        with pytest.raises(ValueError):
            greedy_interval_coarsen(cover, 5)


class TestAsdimExplicit:
    def test_one_block(self):
        report = asdim_explicit(partition_backend(U4, [["a", "b", "c", "d"]]))
        assert report.value == 0

    def test_two_blocks(self):
        report = asdim_explicit(partition_backend(U3, [["a", "b"], ["c"]]))
        assert report.value == 0
        assert report.certificates

    def test_singleton_families_only(self):
        report = asdim_explicit(ExplicitBackend(ExplicitLSR.from_generators(U3, [])))
        assert report.value == 0
        assert report.uniformly_bounded_covers == 1

    def test_certificates_verify(self):
        report = asdim_explicit(partition_backend(U4, [["a", "b"], ["c", "d"]]))
        for cert in report.certificates:
            assert cert.multiplicity <= report.value + 1

    def test_subspace_monotonicity_exhaustive(self):
        for universe in (Universe.of("a", "b"), U3, U4):
            for blocks in all_partitions(universe):
                pb = PartitionCoarseBackend(universe, blocks)
                whole = asdim_explicit(pb).value
                for y_mask in range(1, 1 << universe.size):
                    y = universe.subset_from_mask(y_mask)
                    sub = ExplicitBackend(pb.to_explicit().restrict(y))
                    assert asdim_explicit(sub).value <= whole

    def test_subspace_monotonicity_randomized_four_points(self):
        rng = random.Random(12)
        done = 0
        while done < 25:
            lsr = random_lsr(U4, rng)
            if lsr is None:
                continue
            backend = ExplicitBackend(lsr)
            whole = asdim_explicit(backend).value
            for y_mask in (0b0111, 0b1011, 0b0011, 0b0101):
                sub = ExplicitBackend(lsr.restrict(U4.subset_from_mask(y_mask)))
                assert asdim_explicit(sub).value <= whole
            done += 1


class TestAsdimUniverseTables:
    @pytest.mark.parametrize("n_pts", [1, 2, 3, 4])
    def test_tables_are_cached_read_only_and_narrow(self, n_pts):
        tables = dimension._universe_tables(n_pts)
        assert dimension._universe_tables(n_pts) is tables
        slots = (1 << n_pts) - 1
        for table in tables:
            assert table.shape == (1 << slots,)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = table[0]
        tkey, is_cover, down, mult = tables
        assert is_cover.dtype == bool
        assert mult.dtype == np.uint8 and int(mult.max()) == 1 << (n_pts - 1)
        assert down.dtype.itemsize == (1 if slots <= 8 else 2)
        assert tkey.dtype.itemsize == (1 if slots < 8 else 2)

    def test_backends_sharing_a_universe_report_as_when_first(self):
        backends = [
            partition_backend(U4, [["a", "b"], ["c", "d"]]),
            partition_backend(U4, [["a"], ["b", "c", "d"]]),
            ExplicitBackend(ExplicitLSR.from_generators(U4, [fam(U4, "ab", "cd")])),
        ]
        first = []
        for backend in backends:
            dimension._universe_tables.cache_clear()
            first.append(asdim_explicit(backend))
        dimension._universe_tables.cache_clear()
        for backend, report in [*zip(backends, first), *reversed(list(zip(backends, first)))]:
            assert asdim_explicit(backend) == report


class TestTopoLineReport:
    def test_windows_certified(self):
        report = asdim_topo_line_report([16, 32, 64, 128, 256, 512])
        assert report.certified
        assert report.conclusion() == "asdim = 1 certified at windows {16, 32, 64, 128, 256, 512}"

    def test_forced_member_sizes_diverge(self):
        sizes = [mult1_forced_member_size(n) for n in (16, 64, 256)]
        assert sizes == [16, 64, 256]
