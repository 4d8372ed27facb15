import itertools
import random

import numpy as np
import pytest

from coarselab import lineset as ls
from coarselab._bitops import bits, vee_key
from coarselab.backends import (
    ExplicitBackend,
    FromASRBackend,
    LineAlikeRule,
    LineProximityRule,
    MetricLineBackend,
    NearnessQuery,
    PartitionCoarseBackend,
    TopoTraceBackend,
    induced_nearness,
    lambda_of,
    n_e_of_l,
    nearness_of,
    proximity_of,
    regularize,
    restrict,
    sampled_line_axiom_report,
)
from coarselab.mining import all_partitions, close_lsr, random_lsr, universe_of_size
from coarselab.setcore import Family, Subset, Universe
from coarselab.structures import (
    ExplicitASR,
    ExplicitLSR,
    check_asr_axioms,
    check_nearness_axioms,
    is_a_lsr,
    is_h_nearness,
)

from oracles import (
    bounded_reference,
    first_refiner,
    is_connected_reference,
    partition_backend,
    unbounded_refiners,
)

U2 = Universe.of("a", "b")
U3 = Universe.of("a", "b", "c")
U4 = Universe.of("a", "b", "c", "d")


def fam(u, *subsets):
    return u.family([u.subset(s) for s in subsets])


def support_asr(universe: Universe, blocks) -> ExplicitASR:
    def sat(mask):
        return sum(b for b in blocks if b & mask)

    ids: dict[int, int] = {}
    table = []
    for mask in range(1 << universe.size):
        key = sat(mask)
        ids.setdefault(key, len(ids))
        table.append(ids[key])
    return ExplicitASR(universe, tuple(table))


class TestPartitionBackend:
    def test_member_rule(self):
        pb = partition_backend(U3, [["a", "b"], ["c"]])
        assert pb.member(fam(U3, "a", "b")).is_yes
        assert pb.member(fam(U3, "a", "c")).is_no

    def test_bounded(self):
        pb = partition_backend(U3, [["a", "b"], ["c"]])
        assert pb.bounded(U3.subset("ab")).is_yes
        assert pb.bounded(U3.subset("ac")).is_no
        assert pb.bounded(U3.subset("")).is_yes

    def test_connected_iff_single_block(self):
        assert partition_backend(U3, [["a", "b", "c"]]).is_connected().is_yes
        assert partition_backend(U3, [["a", "b"], ["c"]]).is_connected().is_no

    def test_bounded_and_connected_match_the_point_loops(self):
        # verdicts and witnesses on every partition backend of 1 to 4
        # points and, for boundedness, every subset
        for n in range(1, 5):
            u = universe_of_size(n)
            for blocks in all_partitions(u):
                pb = PartitionCoarseBackend(u, blocks)
                assert pb.is_connected() == is_connected_reference(pb)
                for mask in range(1 << n):
                    s = Subset(u, mask)
                    assert pb.bounded(s) == bounded_reference(pb, s)

    def test_member_axioms_exhaustive(self):
        # singleton-true, downward-monotone, product-closed on all keys
        for blocks in ([["a", "b"], ["c"]], [["a"], ["b"], ["c"]], [["a", "b", "c"]]):
            pb = partition_backend(U3, blocks)
            table = pb.member_table()
            for s in range(8):
                assert table[1 << s]
            tops = [k for k in range(1 << 8) if table[k]]
            for key in tops:
                for t in bits(key):
                    assert table[key ^ (1 << t)]
            for f, g in itertools.combinations_with_replacement(tops, 2):
                if f & g:
                    assert table[f | g]
                assert table[vee_key(f, g)]

    def test_mutual_rule_coincides(self):
        # the per-pair mutual-reach construction equals the single-relation
        # one here, because the relation family has a maximal element
        for blocks_labels in ([["a", "b"], ["c"]], [["a"], ["b"], ["c"]], [["a", "b", "c"]]):
            pb = partition_backend(U3, blocks_labels)
            table = pb.member_table()
            for key in range(1 << 8):
                masks = list(bits(key))
                mutual = all(
                    pb.saturation(a) | a == pb.saturation(a)
                    and a & ~pb.saturation(b) == 0
                    and b & ~pb.saturation(a) == 0
                    for a in masks
                    for b in masks
                )
                assert bool(table[key]) == mutual


class TestLineBackends:
    def test_metric_member_exact(self):
        mb = MetricLineBackend()
        v = mb.member([ls.evens(), ls.odds()])
        assert v.is_yes and v.witness["scale"] == 1

    def test_metric_member_infinite_pair(self):
        mb = MetricLineBackend()
        v = mb.member([ls.FiniteSet((0,)), ls.evens()])
        assert v.is_no

    def test_metric_member_scale_bounded(self):
        mb = MetricLineBackend(scale_budget=16, window=10**4)
        v = mb.member([ls.GeometricSet(1, 2, 1), ls.GeometricSet(1, 4, 1)])
        assert v.is_unknown and v.witness["refuted_pairs"]

    def test_topo_trace_rule(self):
        tb = TopoTraceBackend()
        assert tb.member([ls.evens(), ls.odds(), ls.naturals()]).is_yes
        assert tb.member([ls.evens(), ls.FiniteSet((1,))]).is_no
        assert tb.member([ls.FiniteSet((1,)), ls.FiniteSet((2, 9))]).is_yes

    def test_topo_trace_rule_matches_windowed_brute_force(self):
        # ground truth by escalating-window element counts
        rng = random.Random(20260809)
        tb = TopoTraceBackend()
        checked = 0
        while checked < 200:
            members = []
            for _ in range(rng.randint(1, 3)):
                kind = rng.random()
                if kind < 0.4:
                    members.append(
                        ls.FiniteSet(tuple(rng.randint(0, 50) for _ in range(rng.randint(1, 4))))
                    )
                elif kind < 0.8:
                    members.append(ls.arithmetic(rng.randint(0, 10), rng.randint(1, 6)))
                else:
                    members.append(ls.GeometricSet(rng.randint(1, 3), rng.randint(2, 4), 1))
            verdict = tb.member(members)
            flags = []
            for s in members:
                counts = [len(s.window(w)) for w in (256, 1024, 4096)]
                flags.append(counts[-1] == counts[-2] == counts[-3])
            brute = all(flags) or not any(flags)
            assert verdict.is_yes == brute
            checked += 1

    def test_sampled_axiom_suite(self):
        for backend in (MetricLineBackend(), TopoTraceBackend()):
            assert sampled_line_axiom_report(backend, seed=1, samples=200).passed

    def test_connected(self):
        assert MetricLineBackend().is_connected().is_yes
        assert TopoTraceBackend().is_connected().is_yes


class TestNeighborhoods:
    def test_diagonal(self):
        delta = tuple(1 << i for i in range(3))
        got = n_e_of_l(U3, delta, U3.subset("a"))
        assert got == fam(U3, "a")

    def test_full_relation(self):
        rows = tuple(7 for _ in range(3))
        got = n_e_of_l(U3, rows, U3.subset("a"))
        assert got.size == 7 and U3.subset("") not in got

    def test_block_relation(self):
        got = n_e_of_l(U3, (3, 3, 4), U3.subset("a"))
        assert got == fam(U3, "a", "b", "ab")

    def test_neighborhood_is_member(self):
        # every relation neighborhood is alike at large scale
        pb = partition_backend(U3, [["a", "b"], ["c"]])
        for rows in ((3, 3, 4), (1, 2, 4), (3, 1, 4)):
            for l_mask in range(8):
                fam_got = n_e_of_l(U3, rows, Subset(U3, l_mask))
                if fam_got.size:
                    assert pb.member(fam_got).is_yes


class TestLambda:
    def test_roundtrip_exhaustive_small(self):
        for universe in (U2, U3):
            for blocks in all_partitions(universe):
                asr = support_asr(universe, blocks)
                assert check_asr_axioms(asr).passed
                assert lambda_of(FromASRBackend(asr)) == asr

    def test_roundtrip_randomized_four_points(self):
        rng = random.Random(7)
        parts = list(all_partitions(U4))
        for _ in range(200):
            blocks = parts[rng.randrange(len(parts))]
            asr = support_asr(U4, blocks)
            assert lambda_of(FromASRBackend(asr)) == asr

    def test_not_regular_raises_with_witness(self):
        c = ExplicitLSR.from_generators(U3, [fam(U3, "a", "ab"), fam(U3, "ac", "abc")])
        with pytest.raises(ValueError, match="witness"):
            lambda_of(ExplicitBackend(c))

    def test_line_rules(self):
        assert lambda_of(MetricLineBackend()) == LineAlikeRule("finite-hausdorff")
        assert lambda_of(TopoTraceBackend()) == LineAlikeRule("same-size-class")
        rule = lambda_of(TopoTraceBackend())
        assert rule.alike(ls.evens(), ls.odds()).is_yes
        assert rule.alike(ls.evens(), ls.FiniteSet((1,))).is_no

    def test_collection_below_its_regularization(self):
        # every member family stays a member for the induced equivalence
        for blocks in all_partitions(U3):
            pb = PartitionCoarseBackend(U3, blocks)
            asr = lambda_of(pb)
            induced = FromASRBackend(asr)
            table, ind_table = pb.member_table(), induced.member_table()
            assert not np.any(table & ~ind_table)


class TestInducedNearness:
    def test_partition_examples(self):
        pb = partition_backend(U3, [["a", "b"], ["c"]])
        assert nearness_of(NearnessQuery(pb, fam(U3, "a", "b"))).is_no
        assert nearness_of(NearnessQuery(pb, fam(U3, "a", "ab"))).is_yes

    def test_metric_line_examples(self):
        mb = MetricLineBackend()
        v = nearness_of(NearnessQuery(mb, [ls.evens(), ls.odds()]))
        assert v.is_yes and v.witness["clause"] == "unbounded-refiner"
        v2 = nearness_of(NearnessQuery(mb, [ls.FiniteSet((1,)), ls.evens()]))
        assert v2.is_no

    def test_metric_line_common_point(self):
        mb = MetricLineBackend()
        v = nearness_of(NearnessQuery(mb, [ls.evens(), ls.arithmetic(0, 3)]))
        assert v.is_yes and v.witness["clause"] == "common-point"

    def test_geometric_family_refuted_at_every_scale(self):
        mb = MetricLineBackend()
        sets = [ls.GeometricSet(1, 2**n, 1) for n in range(1, 9)]
        v = nearness_of(NearnessQuery(mb, sets, scale_budget=64, window=10**6))
        assert v.is_unknown
        refs = v.witness["scale_refutations"]
        assert [r["scale"] for r in refs] == list(range(65))
        for r in refs:
            i, j = r["members"]
            far_from = sets[j] if r["side"] == 0 else sets[i]
            assert ls.point_distance(far_from, r["point"]) > r["scale"]

    def test_theorem_connected_partitions(self):
        for universe in (U2, U3, U4):
            full = [(1 << universe.size) - 1]
            pb = PartitionCoarseBackend(universe, full)
            assert check_nearness_axioms(induced_nearness(pb)).passed

    def test_failures_are_exactly_the_two_by_two_partitions(self):
        bad = []
        for universe in (Universe.of("a"), U2, U3, U4):
            for blocks in all_partitions(universe):
                pb = PartitionCoarseBackend(universe, blocks)
                if not check_nearness_axioms(induced_nearness(pb)).passed:
                    bad.append((universe.size, sorted(b.bit_count() for b in blocks)))
        assert bad == [(4, [2, 2]), (4, [2, 2]), (4, [2, 2])]

    def _check_query_path(self, b, keys):
        # the materialized collection against the per-family query, and
        # the query's refiner clause against the plain scan of the oracle
        near = induced_nearness(b)
        refiners = unbounded_refiners(b.member_table(), b.universe.size)
        refined = 0
        for key in keys:
            v = nearness_of(NearnessQuery(b, Family.from_mask_key(b.universe, key)))
            assert near.is_near_key(key) == v.is_yes, (b.describe(), key)
            if v.witness["clause"] == "common-point":
                continue
            wit = first_refiner(refiners, key)
            if v.is_yes:
                assert v.witness["witness"] == str(Family.from_mask_key(b.universe, wit))
                refined += 1
            else:
                assert wit is None, (b.describe(), key)
        return refined

    def test_table_matches_query_path(self):
        # on at most 3 points only the pairwise-meeting unbounded triangle
        # {ab, bc, ac} reaches the refiner clause
        backends = [
            PartitionCoarseBackend(u, blocks)
            for u in (Universe.of("a"), U2, U3)
            for blocks in all_partitions(u)
        ]
        backends += [ExplicitBackend(random_lsr(U3, random.Random(seed))) for seed in range(20)]
        backends.append(ExplicitBackend(close_lsr(U3, [fam(U3, "ab", "bc", "ac").mask_key()])))
        refined = 0
        for b in backends:
            refined += self._check_query_path(b, range(1 << (1 << b.universe.size)))
        assert refined > 0

    def test_table_matches_query_path_on_four_points(self):
        # every key near without a common point, plus seeded keys; on 4
        # points those near keys all sit on the three {2,2} partitions
        backends = [PartitionCoarseBackend(U4, blocks) for blocks in all_partitions(U4)]
        closures = (random_lsr(U4, random.Random(seed)) for seed in itertools.count())
        backends += itertools.islice((ExplicitBackend(c) for c in closures if c), 20)
        keys = np.arange(1 << 16)
        inter = np.full(keys.size, 15)
        for s in range(16):
            inter[keys >> s & 1 == 1] &= s
        rng = random.Random(4)
        refined = 0
        for b in backends:
            apart = np.flatnonzero(induced_nearness(b).table() & (inter == 0)).tolist()
            refined += self._check_query_path(b, apart + rng.sample(range(1 << 16), 256))
        assert refined >= 966

    def test_h_nearness_with_closure_tables(self):
        # one-block backends against every valid closure table on 2 points
        pb = partition_backend(U2, [["a", "b"]])
        tables = []
        for cl_a in (0b01, 0b11):
            for cl_b in (0b10, 0b11):
                table = (0, cl_a, cl_b, 0b11)
                try:
                    from coarselab.structures import validate_closure_table

                    validate_closure_table(U2, table)
                except ValueError:
                    continue
                tables.append(table)
        assert tables
        for table in tables:
            n = induced_nearness(pb, closure=table)
            ok, witness = is_h_nearness(n)
            assert ok, (table, witness)


class TestProximityOf:
    def test_line_rule(self):
        rule = proximity_of(MetricLineBackend())
        assert isinstance(rule, LineProximityRule)
        assert rule.near(ls.evens(), ls.odds()).is_yes
        assert rule.near(ls.FiniteSet((1,)), ls.FiniteSet((2,))).is_no
        assert rule.near(ls.FiniteSet((1, 2)), ls.FiniteSet((2,))).is_yes

    def test_explicit_discrete_closure(self):
        # one block: everything is bounded, so asymptotic disjointness is
        # vacuous and the relation reduces to intersection
        pb = partition_backend(U3, [["a", "b", "c"]])
        prox = proximity_of(pb)
        assert prox.near(0b001, 0b011)
        assert not prox.near(0b001, 0b010)
        assert not prox.near(0, 0b010)

    def test_explicit_unbounded_clause(self):
        # two blocks of two: disjoint cross-block sets stay near because
        # their unbounded parts are alike
        pb = partition_backend(U4, [["a", "b"], ["c", "d"]])
        prox = proximity_of(pb)
        a = U4.subset("ac").mask
        b = U4.subset("bd").mask
        assert a & b == 0 and prox.near(a, b)

    def test_normality_precondition(self):
        for blocks in all_partitions(U3):
            pb = PartitionCoarseBackend(U3, blocks)
            proximity_of(pb)  # support partitions are asymptotically normal


class TestRegularize:
    def test_fixpoint_on_induced_collections(self):
        asr = support_asr(U3, [3, 4])
        c = FromASRBackend(asr).to_explicit()
        assert regularize(c).keys == c.keys

    def test_contains_input_and_is_a(self):
        pb = partition_backend(U3, [["a", "b"], ["c"]])
        c = pb.to_explicit()
        reg = regularize(c)
        assert c.keys <= reg.keys
        ok, witness = is_a_lsr(reg)
        assert ok, witness

    def test_idempotent(self):
        pb = partition_backend(U3, [["a", "b"], ["c"]])
        reg = regularize(pb.to_explicit())
        assert regularize(reg).keys == reg.keys

    def test_identity_preserves_bounded_sets(self):
        pb = partition_backend(U3, [["a", "b"], ["c"]])
        c = pb.to_explicit()
        reg = regularize(c)
        assert c.bounded_mask() == reg.bounded_mask()

    def test_rejects_irregular_input(self):
        c = ExplicitLSR.from_generators(U3, [fam(U3, "a", "ab"), fam(U3, "ac", "abc")])
        with pytest.raises(ValueError):
            regularize(c)


class TestRestrict:
    def test_explicit_restriction_answers_match(self):
        c = ExplicitLSR.from_generators(U3, [fam(U3, "a", "ab"), fam(U3, "ac", "abc")])
        sub = restrict(ExplicitBackend(c), U3.subset("ab"))
        u2 = sub.universe
        assert sub.member(u2.family([u2.subset("a"), u2.subset("ab")])).is_yes

    def test_metric_line_restricted_to_evens(self):
        sub = restrict(MetricLineBackend(), ls.evens())
        v = sub.member([ls.evens(), ls.arithmetic(0, 4)])
        assert v.is_yes and v.witness["scale"] == 2

    def test_restricted_rejects_escapees(self):
        sub = restrict(MetricLineBackend(), ls.evens())
        with pytest.raises(ValueError):
            sub.member([ls.odds()])

    def test_full_carrier_identity(self):
        sub = restrict(MetricLineBackend(), ls.naturals())
        assert sub.member([ls.evens(), ls.odds()]).is_yes
