import itertools
import random

import numpy as np
import pytest

from coarselab import _bitops as bo
from coarselab.mining import random_lsr, universe_of_size
from coarselab.setcore import CapExceeded, Family, Universe
from coarselab.structures import (
    ExplicitASR,
    ExplicitCoarse,
    ExplicitLSR,
    ExplicitNearness,
    ExplicitProximity,
    check_asr_axioms,
    check_coarse,
    check_lsr_axioms,
    check_nearness_axioms,
    check_proximity_axioms,
    discrete_closure,
    enumerate_bunches,
    enumerate_clusters,
    is_a_lsr,
    is_bunch,
    is_h_nearness,
    is_ls_regular,
    proximal_nearness,
    topological_nearness,
    validate_closure_table,
)

from oracles import (
    full_subset,
    is_ls_regular_reference,
    nearness_from_predicate,
    one_block_asr,
    partition_from_relation,
)

U2 = Universe.of("a", "b")
U3 = Universe.of("a", "b", "c")


def fam(u, *subsets):
    return u.family([u.subset(s) for s in subsets])


def abc_instance() -> ExplicitLSR:
    return ExplicitLSR.from_generators(
        U3, [fam(U3, "a", "ab"), fam(U3, "ac", "abc")]
    )


class TestLsrAxioms:
    def test_three_point_instance_passes(self):
        report = check_lsr_axioms(abc_instance())
        assert report.passed

    def test_added_pair_breaks_product(self):
        c = ExplicitLSR.from_generators(
            U3, [fam(U3, "a", "ab"), fam(U3, "ac", "abc"), fam(U3, "a", "b")]
        )
        report = check_lsr_axioms(c)
        bad = report.result("union-product")
        assert not bad.passed
        assert bad.witness["missing_product"] == str(fam(U3, "a", "b", "ab"))

    def test_singletons_only_passes(self):
        report = check_lsr_axioms(ExplicitLSR.from_generators(U3, []))
        assert report.passed

    def test_missing_singleton_detected(self):
        c = ExplicitLSR(U3, [])
        broken = ExplicitLSR.__new__(ExplicitLSR)
        broken.universe = U3
        broken.slots = c.slots
        broken.keys = frozenset(k for k in c.keys if k != 1 << 3)
        broken._table = None
        report = check_lsr_axioms(broken)
        assert not report.result("singletons").passed

    def test_maximal_pair_scan_matches_direct_scan(self):
        # the reduction to maximal members agrees with the raw pair scan
        rng = random.Random(4)
        for _ in range(40):
            keys = {0} | {1 << s for s in range(4)}
            for _ in range(rng.randint(0, 3)):
                key = rng.randrange(1 << 4)
                probe = key
                while True:
                    keys.add(probe)
                    if probe == 0:
                        break
                    probe = (probe - 1) & key
            c = ExplicitLSR(U2, keys)
            report = check_lsr_axioms(c)
            direct_iii = all(
                (f | g) in c.keys
                for f in c.keys
                for g in c.keys
                if f & g
            )
            assert report.result("intersecting-union").passed == direct_iii


def regularity_inputs():
    """Seeded closures on 1 to 4 points, then down-closures of seeded
    random keys, which are mostly not closed."""
    for n in range(1, 5):
        u, m = universe_of_size(n), 1 << n
        rng = random.Random(70 + n)
        for _ in range(12):
            lsr = random_lsr(u, rng, extra=rng.randint(1, 3))
            if lsr is not None:
                yield lsr
        for _ in range(12):
            keys = [rng.getrandbits(m) & rng.getrandbits(m) for _ in range(rng.randint(1, 4))]
            yield ExplicitLSR(u, np.flatnonzero(bo.down_closure(keys, m)).tolist())


class TestLsRegular:
    def test_three_point_instance_not_regular(self):
        regular, witness = is_ls_regular(abc_instance())
        assert not regular
        assert witness["family"] == str(fam(U3, "a", "ab"))

    def test_singletons_only_regular(self):
        regular, _ = is_ls_regular(ExplicitLSR.from_generators(U3, []))
        assert regular

    def test_witness_is_genuine(self):
        # replay the reported split against the raw definition
        c = abc_instance()
        regular, witness = is_ls_regular(c)
        assert not regular
        fam_key = next(
            k for k in c.keys
            if str(Family.from_mask_key(U3, k)) == witness["family"]
        )
        a1 = U3.subset([x for x in "abc" if x in witness["part1"]]).mask
        a2 = U3.subset([x for x in "abc" if x in witness["part2"]]).mask
        members = list(Family.from_mask_key(U3, fam_key).masks())
        assert (a1 | a2) in members
        for k1 in c.keys:
            for k2 in c.keys:
                if not (k1 >> a1 & 1 and k2 >> a2 & 1):
                    continue
                covered = all(
                    any(
                        u1 | u2 == cm
                        for u1 in Family.from_mask_key(U3, k1).masks()
                        for u2 in Family.from_mask_key(U3, k2).masks()
                    )
                    for cm in members
                )
                assert not covered

    def test_matches_reference_scan(self):
        verdicts = []
        for c in regularity_inputs():
            got = is_ls_regular(c)
            assert got == is_ls_regular_reference(c)
            verdicts.append(got[0])
        assert 0 < sum(verdicts) < len(verdicts)

    def test_matches_reference_scan_in_small_blocks(self, monkeypatch):
        """With PAIR_BLOCK = 2 the families run in several batches, and
        each batch builds the pairwise-union table in several row blocks.
        Every batch starts its row blocks at the first maximal family, so
        the vee_block calls that start there count the batches."""
        monkeypatch.setattr(bo, "PAIR_BLOCK", 2)
        calls = []
        vee_block = bo.vee_block

        def counted(fs, img):
            calls.append(int(fs[0]))
            assert len(fs) * img.shape[1] <= max(2, img.shape[1])
            return vee_block(fs, img)

        monkeypatch.setattr(bo, "vee_block", counted)
        most = 0
        for c in regularity_inputs():
            calls.clear()
            assert is_ls_regular(c) == is_ls_regular_reference(c)
            if calls:
                batches = calls.count(calls[0])
                most = max(most, min(batches, len(calls) // batches))
        assert most >= 3


class TestALsr:
    def test_three_point_instance_not_a(self):
        ok, witness = is_a_lsr(abc_instance())
        assert not ok and witness["reason"] == "not-ls-regular"

    def test_two_determined_collection_is_a(self):
        blocks = [[0], [1, 2, 3], [4], [5], [6], [7]]
        asr = ExplicitASR.from_blocks(U3, blocks)
        keys = set()
        for block in asr.blocks():
            probe = block
            while True:
                keys.add(probe)
                if probe == 0:
                    break
                probe = (probe - 1) & block
        c = ExplicitLSR(U3, keys)
        if check_lsr_axioms(c).passed:
            ok, _ = is_a_lsr(c)
            assert ok


class TestNearness:
    def test_topological_three_point(self):
        assert check_nearness_axioms(topological_nearness(U3)).passed

    def test_avoid_empty_collection_is_near_structure(self):
        n = nearness_from_predicate(U3, lambda key: key & 1 == 0)
        assert check_nearness_axioms(n).passed

    def test_empty_collection_fails_common_point(self):
        report = check_nearness_axioms(ExplicitNearness(U3, []))
        assert not report.result("common-point").passed

    def test_growth_failure_witnessed(self):
        # near families: only those with a common point, minus one grown family
    # {{a}} is near; growing {a} to {a,b} must stay near
        keys = [
            key
            for key in range(1 << 8)
            if Family.from_mask_key(U3, key).intersection_mask() != 0
        ]
        grown = fam(U3, "ab").mask_key()
        n = ExplicitNearness(U3, [k for k in keys if k != grown])
        report = check_nearness_axioms(n)
        assert not report.result("growth").passed

    def test_product_scan_matches_direct_scan_small(self):
        rng = random.Random(9)
        m = 1 << U2.size
        for _ in range(60):
            near = {0}
            for key in range(1, 1 << m):
                if rng.random() < 0.4:
                    near.add(key)
            # close under growth so the minimal-pair reduction applies
            n0 = ExplicitNearness(U2, near)
            report = check_nearness_axioms(n0)
            if not report.result("growth").passed:
                continue
            direct = None
            for f, g in itertools.combinations_with_replacement(
                [k for k in range(1 << m) if k not in near], 2
            ):
                vee_key = 0
                for s in range(m):
                    for t in range(m):
                        if f >> s & 1 and g >> t & 1:
                            vee_key |= 1 << (s | t)
                if vee_key in near:
                    direct = (f, g)
                    break
            assert report.result("product").passed == (direct is None)

    def test_h_nearness_discrete_closure(self):
        assert is_h_nearness(topological_nearness(U3))[0]

    def test_h_nearness_nontrivial_closure(self):
        # closure glues b onto a; a near collection that omits the glued
        # family while keeping its closure family violates the property
        cl = [0, 0b011, 0b010, 0b011, 0b100, 0b111, 0b110, 0b111]
        validate_closure_table(U3, tuple(cl))
        n = topological_nearness(U3, tuple(cl))
        ok, witness = is_h_nearness(n)
        assert ok  # closure-intersection nearness always de-closes


class TestClosureValidation:
    def test_discrete_is_valid(self):
        validate_closure_table(U3, discrete_closure(U3))

    def test_shrinking_table_rejected(self):
        with pytest.raises(ValueError):
            validate_closure_table(U2, (0, 0, 0b10, 0b11))

    def test_union_breaking_table_rejected(self):
        table = list(discrete_closure(U3))
        table[0b001] = 0b011  # closure glues b onto a
        table[0b011] = 0b011
        # but the table leaves cl({a,c}) at {a,c}, breaking the union rule
        with pytest.raises(ValueError):
            validate_closure_table(U3, tuple(table))


    @pytest.mark.parametrize("table", [(0, -1, -1, -1), (0, 1, 7, 3)], ids=["negative", "too-big"])
    def test_entry_outside_the_subsets_rejected(self, table):
        with pytest.raises(ValueError, match="map to subsets"):
            validate_closure_table(U2, table)


class TestAsr:
    def test_identity(self):
        assert check_asr_axioms(ExplicitASR.identity(U3)).passed

    def test_one_block(self):
        assert check_asr_axioms(one_block_asr(U3)).passed

    def test_empty_vs_nonempty_blocks_valid(self):
        m = 1 << U2.size
        asr = ExplicitASR(U2, tuple(0 if mask == 0 else 1 for mask in range(m)))
        assert check_asr_axioms(asr).passed

    def test_support_partition_blocks_valid(self):
        sat = lambda mask: (0b011 if mask & 0b011 else 0) | (0b100 if mask & 0b100 else 0)
        ids = {}
        table = []
        for mask in range(8):
            ids.setdefault(sat(mask), len(ids))
            table.append(ids[sat(mask)])
        assert check_asr_axioms(ExplicitASR(U3, tuple(table))).passed

    def test_invalid_blocks_rejected_with_witness(self):
        asr = ExplicitASR.from_blocks(U3, [[0], [1, 2, 3], [4, 5, 6, 7]])
        report = check_asr_axioms(asr)
        assert not report.result("decomposition").passed


class TestCoarse:
    def test_no_generators_is_diagonal(self):
        m, report = check_coarse(ExplicitCoarse.from_pairs(U3, []))
        assert m == (1, 2, 4) and report.passed

    def test_single_pair_generates_block(self):
        m, report = check_coarse(ExplicitCoarse.from_pairs(U3, [[("a", "b")]]))
        assert m == (3, 3, 4) and report.passed
        assert partition_from_relation(U3, m) == [3, 4]

    def test_full_relation(self):
        pairs = [(x, y) for x in "abc" for y in "abc"]
        m, report = check_coarse(ExplicitCoarse.from_pairs(U3, [pairs]))
        assert m == (7, 7, 7) and report.passed

    def test_chain_composes(self):
        m, _ = check_coarse(ExplicitCoarse.from_pairs(U3, [[("a", "b")], [("b", "c")]]))
        assert m == (7, 7, 7)


class TestProximity:
    def test_discrete_axioms_and_clusters(self):
        p = ExplicitProximity.discrete(U2)
        assert check_proximity_axioms(p).passed
        clusters = enumerate_clusters(p)
        point_a = sum(1 << mask for mask in range(4) if mask & 1)
        point_b = sum(1 << mask for mask in range(4) if mask & 2)
        assert sorted(clusters) == sorted([point_a, point_b])

    def test_all_nonempty_near_is_a_proximity(self):
        p = ExplicitProximity.from_predicate(U2, lambda a, b: a != 0 and b != 0)
        assert check_proximity_axioms(p).passed

    def test_empty_relation_passes_the_literal_axioms(self):
        p = ExplicitProximity.from_predicate(U2, lambda a, b: False)
        assert check_proximity_axioms(p).passed

    def test_asymmetric_rejected(self):
        p = ExplicitProximity(U2, (0, 0b100, 0, 0))
        report = check_proximity_axioms(p)
        assert not report.result("symmetric").passed


class TestBunches:
    def test_point_bunches_in_discrete_topological(self):
        n = topological_nearness(U3)
        bunches = enumerate_bunches(n)
        expected = [
            sum(1 << mask for mask in range(8) if mask >> x & 1) for x in range(3)
        ]
        assert sorted(bunches) == sorted(expected)

    def test_candidate_with_empty_set_rejected(self):
        n = topological_nearness(U2)
        key_with_empty = 0b1011  # holds the empty subset
        assert not is_bunch(key_with_empty, n)

    def test_union_primeness_enforced(self):
        # {X} alone: X = {a} | {b} but neither part is present
        n = topological_nearness(U2)
        assert not is_bunch(1 << 0b11, n)

    def test_bunches_match_clusters_for_discrete_proximity(self):
        for u in (U2, U3):
            p = ExplicitProximity.discrete(u)
            n = proximal_nearness(p)
            assert sorted(enumerate_bunches(n)) == sorted(enumerate_clusters(p))


class TestRestrict:
    def test_three_point_restriction_keeps_member(self):
        c = abc_instance()
        sub = c.restrict(U3.subset("ab"))
        u2 = Universe.of("a", "b")
        target = u2.family([u2.subset("a"), u2.subset("ab")])
        assert sub.member(target)

    def test_restriction_to_full_universe_is_identity(self):
        c = abc_instance()
        sub = c.restrict(full_subset(U3))
        assert sub.keys == c.keys

    def test_cap(self):
        with pytest.raises(CapExceeded):
            ExplicitLSR.from_generators(
                Universe.of(*"abcde"), []
            ).restrict(Universe.of(*"abcde").subset("abcde"))


class TestBoundedness:
    def test_bounded_union_lemma_connected(self):
        # in a connected valid collection, bounded sets are closed under union
        from coarselab.mining import close_lsr

        rng = random.Random(11)
        pair_keys = [
            fam(U3, x, y).mask_key() for x in "abc" for y in "abc" if x != y
        ]
        checked = 0
        for _ in range(30):
            gens = pair_keys + [rng.randrange(1 << 8) for _ in range(2)]
            c = close_lsr(U3, gens)
            if c is None:
                continue
            bounded = c.bounded_mask()
            for s in range(8):
                for t in range(8):
                    if bounded >> s & 1 and bounded >> t & 1:
                        assert bounded >> (s | t) & 1, (sorted(c.keys), s, t)
            checked += 1
        assert checked >= 10

    def test_unbounded_propagation_lemma(self):
        # if an unbounded set shares a member family with another set,
        # that other set is unbounded too: exhaustive on the abc instance
        c = abc_instance()
        bounded = c.bounded_mask()
        for key in c.keys:
            masks = list(Family.from_mask_key(U3, key).masks())
            unbounded = [s for s in masks if not bounded >> s & 1]
            if unbounded:
                assert all(not bounded >> s & 1 for s in masks if s != 0)
