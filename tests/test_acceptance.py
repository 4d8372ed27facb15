"""Acceptance suite: one test (and one printed verdict line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 4's partition sweep checks the induced-nearness theorem under
its hypothesis: every connected partition of up to four points induces a
collection passing all four near-collection axioms.  Disconnected
partitions are outside the theorem; the sweep checks that exactly those
with two blocks of at least two points each break it, through the
product axiom only, and re-checks a hand-built product witness for each
through the independent query path.
"""

import hashlib
import random
import time

from coarselab import lineset as ls
from coarselab.backends import (
    ExplicitBackend,
    FromASRBackend,
    MetricLineBackend,
    NearnessQuery,
    PartitionCoarseBackend,
    induced_nearness,
    lambda_of,
    nearness_of,
    regularize,
)
from coarselab.dimension import (
    Cover,
    asdim_explicit,
    asdim_topo_line_report,
    asr_uniformly_bounded,
    is_uniformly_bounded,
)
from coarselab.maps import LineMap, is_ls_equivalence
from coarselab.mining import all_partitions, close_lsr, random_lsr, universe_of_size
from coarselab.nearness_lab import bunch_obstruction, cluster_extension_contrast
from coarselab.setcore import Family, Universe, vee
from coarselab.structures import (
    ExplicitASR,
    ExplicitLSR,
    ExplicitProximity,
    check_asr_axioms,
    check_lsr_axioms,
    check_nearness_axioms,
    is_a_lsr,
    is_ls_regular,
)

from digests import GOLDEN_DIR, golden_digest
from oracles import (
    brute_hausdorff,
    bunch_families,
    enumerated_equivalences,
    line_product_pairs,
    random_equivalences,
    random_periodic,
)

U3 = Universe.of("a", "b", "c")
U4 = Universe.of("a", "b", "c", "d")


def fam(u, *subsets):
    return u.family([u.subset(s) for s in subsets])


def verdict_line(num, ok, text):
    print(f"CRITERION {num} {'PASS' if ok else 'FAIL'}: {text}")


def support_asr(universe, blocks):
    def sat(mask):
        return sum(b for b in blocks if b & mask)

    ids, table = {}, []
    for mask in range(1 << universe.size):
        key = sat(mask)
        ids.setdefault(key, len(ids))
        table.append(ids[key])
    return ExplicitASR(universe, tuple(table))


# ---------------------------------------------------------------------------
# 1. three-point worked instance
# ---------------------------------------------------------------------------


def test_criterion_1_three_point_instance():
    start = time.perf_counter()
    c = ExplicitLSR.from_generators(U3, [fam(U3, "a", "ab"), fam(U3, "ac", "abc")])
    report = check_lsr_axioms(c)
    regular, witness = is_ls_regular(c)
    elapsed = time.perf_counter() - start
    ok = report.passed and not regular and witness is not None and elapsed < 1.0
    verdict_line(1, ok, f"axioms pass, not regular (witness {witness}), {elapsed:.3f}s")
    assert report.passed
    assert not regular and witness
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. dimension-one certification on the line
# ---------------------------------------------------------------------------


def test_criterion_2_line_dimension_certified():
    start = time.perf_counter()
    windows = [16, 32, 64, 128, 256, 512]
    report = asdim_topo_line_report(windows)
    for row in report.rows:
        assert row.multiplicity == 2, row
        assert row.uniformly_bounded, row
        assert row.mult1_forced_member_size == row.window, row
    elapsed = time.perf_counter() - start
    ok = report.certified and elapsed < 10.0
    verdict_line(2, ok, f"{report.conclusion()}, {elapsed:.2f}s")
    assert report.certified
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 3. exact Hausdorff engine against the brute-force oracle
# ---------------------------------------------------------------------------


def test_criterion_3_hausdorff_engine():
    rng = random.Random(20260809)
    mismatches = 0
    checked = 0
    while checked < 500:
        a, b = random_periodic(rng), random_periodic(rng)
        if a.is_empty() or b.is_empty():
            continue
        if ls.hausdorff_distance(a, b).value != brute_hausdorff(a, b):
            mismatches += 1
        checked += 1
    triple_rng = random.Random(77)
    triples = 0
    while triples < 200:
        xs = [random_periodic(triple_rng) for _ in range(3)]
        if any(x.is_empty() for x in xs):
            continue
        dab = ls.hausdorff_distance(xs[0], xs[1]).value
        dbc = ls.hausdorff_distance(xs[1], xs[2]).value
        dac = ls.hausdorff_distance(xs[0], xs[2]).value
        assert dab == ls.hausdorff_distance(xs[1], xs[0]).value
        assert ls.hausdorff_distance(xs[0], xs[0]).value == 0
        assert dac <= dab + dbc
        triples += 1
    verdict_line(3, mismatches == 0, f"500 oracle pairs, {mismatches} mismatches; 200 triples metric")
    assert mismatches == 0


# ---------------------------------------------------------------------------
# 4. near-collection axioms for induced structures
# ---------------------------------------------------------------------------


def _two_by_two_witness(universe, blocks):
    """The product-axiom counterexample of two blocks of two or more
    points: singletons from each block are non-near, their pairwise
    unions all meet both blocks and so form an unbounded alike family."""
    big = [b for b in blocks if b.bit_count() >= 2]
    if len(big) < 2:
        return None
    xi, eta = (
        Family.from_masks(universe, [1 << i for i in range(universe.size) if b >> i & 1][:2])
        for b in big[:2]
    )
    return xi, eta, vee(xi, eta)


def test_criterion_4_partition_sweep_all_partitions():
    total = connected = counterexamples = 0
    for n in range(1, 5):
        universe = universe_of_size(n)
        for blocks in all_partitions(universe):
            total += 1
            backend = PartitionCoarseBackend(universe, blocks)
            report = check_nearness_axioms(induced_nearness(backend))
            label = (n, sorted(blocks))
            # the theorem: a connected structure induces a nearness
            if backend.is_connected().is_yes:
                connected += 1
                assert report.passed, (label, str(report))
            # outside its hypothesis, the failures are exactly the
            # partitions with two blocks of two or more points
            witness = _two_by_two_witness(universe, blocks)
            assert report.passed == (witness is None), (label, str(report))
            if witness is None:
                continue
            assert [r.axiom for r in report.failures()] == ["product"], (label, str(report))
            xi, eta, product = witness
            assert nearness_of(NearnessQuery(backend, xi)).is_no, (label, str(xi))
            assert nearness_of(NearnessQuery(backend, eta)).is_no, (label, str(eta))
            assert nearness_of(NearnessQuery(backend, product)).is_yes, (label, str(product))
            counterexamples += 1
    # 1 + 2 + 5 + 15 partitions; the one-block partition is the only connected one
    ok = total == 23 and connected == 4
    verdict_line(
        "4a",
        ok,
        f"{total} partitions swept, {connected} connected induce a nearness, "
        f"{counterexamples} two-blocks-of-two counterexamples re-checked",
    )
    assert ok, (total, connected)


def test_criterion_4_companion_failures_are_exactly_two_by_two():
    # the disconnected failures by block sizes: every failing instance is a
    # 2+2 partition and every 2+2 partition fails
    bad = []
    for n in range(1, 5):
        universe = universe_of_size(n)
        for blocks in all_partitions(universe):
            backend = PartitionCoarseBackend(universe, blocks)
            if not check_nearness_axioms(induced_nearness(backend)).passed:
                bad.append(sorted(b.bit_count() for b in blocks))
    assert bad == [[2, 2], [2, 2], [2, 2]]


def test_criterion_4_connected_partitions_pass():
    for n in range(1, 5):
        universe = universe_of_size(n)
        backend = PartitionCoarseBackend(universe, [(1 << n) - 1])
        assert check_nearness_axioms(induced_nearness(backend)).passed


def test_criterion_4_metric_line_product_on_500_pairs():
    mb = MetricLineBackend()
    rng = random.Random(424242)

    def near(sets):
        return nearness_of(NearnessQuery(mb, sets)).is_yes

    pairs = list(line_product_pairs(rng, 500))
    for a, b in pairs:
        product = [ls.union(x, y) for x in a for y in b]
        assert not near(product), (a, b)
    digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
    assert digest == golden_digest(GOLDEN_DIR / "line.sha256", "criterion 4b pairs")
    verdict_line("4b", True, "product axiom holds on 500 seeded line query pairs")


# ---------------------------------------------------------------------------
# 5. bunch non-containment on the line; extension contrast on small spaces
# ---------------------------------------------------------------------------


def test_criterion_5_bunch_obstructions():
    cert = bunch_obstruction([ls.evens(), ls.odds()], scale_budget=32, window=10**5)
    assert cert.complete

    for members in bunch_families(random.Random(20260805), 200):
        cert = bunch_obstruction(members, scale_budget=32, window=10**5)
        assert cert.complete, members

    contrast_ok = True
    for universe in (Universe.of("a", "b"), U3):
        contrast = cluster_extension_contrast(ExplicitProximity.discrete(universe))
        contrast_ok = contrast_ok and contrast.all_extended
    verdict_line(
        5,
        contrast_ok,
        "200 seeded families certified at scales 0..32 on window 1e5; "
        "near pairs extend to clusters in small proximity spaces",
    )
    assert contrast_ok


# ---------------------------------------------------------------------------
# 6. structural propositions
# ---------------------------------------------------------------------------


def _small_universes():
    return [universe_of_size(n) for n in (1, 2, 3)]


def test_criterion_6a_lambda_roundtrip():
    for universe in _small_universes():
        for blocks in all_partitions(universe):
            asr = support_asr(universe, blocks)
            assert check_asr_axioms(asr).passed
            assert lambda_of(FromASRBackend(asr)) == asr
    rng = random.Random(61)
    parts = list(all_partitions(U4))
    for _ in range(200):
        asr = support_asr(U4, parts[rng.randrange(len(parts))])
        assert lambda_of(FromASRBackend(asr)) == asr
    verdict_line("6a", True, "induced equivalence roundtrips (exhaustive <=3, 200 random at 4)")


def test_criterion_6b_collection_within_induced():
    checked = 0
    for universe in _small_universes():
        for blocks in all_partitions(universe):
            pb = PartitionCoarseBackend(universe, blocks)
            lsr = pb.to_explicit()
            regular, _ = is_ls_regular(lsr)
            assert regular
            induced = FromASRBackend(lambda_of(pb)).to_explicit()
            assert lsr.keys <= induced.keys
            checked += 1
    rng = random.Random(62)
    done = 0
    while done < 200:
        lsr = random_lsr(U4, rng)
        if lsr is None:
            continue
        regular, _ = is_ls_regular(lsr)
        if not regular:
            done += 1
            continue
        induced = FromASRBackend(lambda_of(ExplicitBackend(lsr))).to_explicit()
        assert lsr.keys <= induced.keys
        done += 1
    verdict_line("6b", True, f"regular collections sit inside their induced form ({checked} exhaustive)")


def test_criterion_6c_regularize_a_and_idempotent():
    count = 0
    for universe in _small_universes():
        for blocks in all_partitions(universe):
            c = PartitionCoarseBackend(universe, blocks).to_explicit()
            reg = regularize(c)
            ok, witness = is_a_lsr(reg)
            assert ok, witness
            assert regularize(reg).keys == reg.keys
            assert c.keys <= reg.keys
            count += 1
    rng = random.Random(63)
    done = 0
    while done < 200:
        lsr = random_lsr(U4, rng)
        if lsr is None:
            continue
        regular, _ = is_ls_regular(lsr)
        if not regular:
            done += 1
            continue
        reg = regularize(lsr)
        ok, witness = is_a_lsr(reg)
        assert ok, witness
        assert regularize(reg).keys == reg.keys
        done += 1
    verdict_line("6c", True, f"regularization lands in the determined class and is idempotent")


def test_criterion_6d_bounded_union_lemma():
    rng = random.Random(64)
    pair_keys_by_universe = {}
    checked = 0
    for universe in _small_universes() + [U4]:
        n = universe.size
        pair_keys = [
            (1 << (1 << i)) | (1 << (1 << j)) for i in range(n) for j in range(n)
        ]
        samples = 200 if n == 4 else 40
        done = 0
        attempts = 0
        while done < samples and attempts < samples * 4:
            attempts += 1
            gens = pair_keys + [rng.randrange(1 << (1 << n)) for _ in range(1)]
            c = close_lsr(universe, gens, cap=16384)
            if c is None:
                continue
            bounded = c.bounded_mask()
            for s in range(1 << n):
                for t in range(1 << n):
                    if bounded >> s & 1 and bounded >> t & 1:
                        assert bounded >> (s | t) & 1
            done += 1
            checked += 1
    verdict_line("6d", True, f"bounded sets close under union in {checked} connected instances")


def test_criterion_6e_unbounded_propagation():
    rng = random.Random(65)
    checked = 0
    for universe in _small_universes():
        for blocks in all_partitions(universe):
            c = PartitionCoarseBackend(universe, blocks).to_explicit()
            bounded = c.bounded_mask()
            for key in c.keys:
                masks = [s for s in range(1 << universe.size) if key >> s & 1]
                flags = [bool(bounded >> s & 1) for s in masks if s != 0]
                assert len(set(flags)) <= 1 or 0 in masks
            checked += 1
    done = 0
    while done < 200:
        lsr = random_lsr(U4, rng)
        if lsr is None:
            continue
        bounded = lsr.bounded_mask()
        for key in lsr.keys:
            masks = [s for s in range(16) if key >> s & 1]
            nonempty_flags = [bool(bounded >> s & 1) for s in masks if s != 0]
            # a family holding an unbounded set holds no bounded nonempty set
            if nonempty_flags and not all(nonempty_flags):
                assert not any(nonempty_flags), (sorted(lsr.keys), key)
        done += 1
    verdict_line("6e", True, "unboundedness propagates through shared member families")


def test_criterion_6f_subspace_monotonicity():
    for universe in _small_universes():
        for blocks in all_partitions(universe):
            pb = PartitionCoarseBackend(universe, blocks)
            whole = asdim_explicit(pb).value
            for y_mask in range(1, 1 << universe.size):
                sub = ExplicitBackend(pb.to_explicit().restrict(universe.subset_from_mask(y_mask)))
                assert asdim_explicit(sub).value <= whole
    rng = random.Random(66)
    done = 0
    while done < 200:
        lsr = random_lsr(U4, rng)
        if lsr is None:
            continue
        whole = asdim_explicit(ExplicitBackend(lsr)).value
        y_mask = rng.randint(1, 14)
        sub = ExplicitBackend(lsr.restrict(U4.subset_from_mask(y_mask)))
        assert asdim_explicit(sub).value <= whole
        done += 1
    verdict_line("6f", True, "subspace dimension never exceeds the ambient dimension")


def test_criterion_6g_uniformly_bounded_members_bounded():
    rng = random.Random(67)
    done = 0
    while done < 200:
        lsr = random_lsr(U4, rng)
        if lsr is None:
            continue
        backend = ExplicitBackend(lsr)
        bounded = lsr.bounded_mask()
        singles = [Family.from_mask_key(U4, 1 << s).members[0] for s in range(1, 16)]
        members = rng.sample(singles, rng.randint(1, 4))
        if is_uniformly_bounded(Cover.explicit(members), backend).is_yes:
            assert all(bounded >> s.mask & 1 for s in members)
        done += 1
    verdict_line("6g", True, "uniformly bounded families consist of bounded sets")


def test_criterion_6h_intersecting_union_lemma():
    rng = random.Random(68)
    done = 0
    while done < 200:
        blocks = list(all_partitions(U4))[rng.randrange(15)]
        pb = PartitionCoarseBackend(U4, blocks)
        singles = [Family.from_mask_key(U4, 1 << s).members[0] for s in range(1, 16)]
        u_members = rng.sample(singles, 2)
        v_members = rng.sample(singles, 3)
        if not (
            is_uniformly_bounded(Cover.explicit(u_members), pb).is_yes
            and is_uniformly_bounded(Cover.explicit(v_members), pb).is_yes
        ):
            done += 1
            continue
        merged = [
            a.union(b)
            for a in u_members
            for b in v_members
            if not a.intersection(b).is_empty
        ]
        if merged:
            assert is_uniformly_bounded(Cover.explicit(merged), pb).is_yes
        done += 1
    verdict_line("6h", True, "intersecting unions of uniformly bounded families stay uniformly bounded")


def test_criterion_6i_lsr_ub_implies_asr_ub():
    rng = random.Random(69)
    done = 0
    parts = list(all_partitions(U4))
    singles = [Family.from_mask_key(U4, 1 << s).members[0] for s in range(1, 16)]
    while done < 200:
        pb = PartitionCoarseBackend(U4, parts[rng.randrange(len(parts))])
        asr = lambda_of(pb)
        members = rng.sample(singles, rng.randint(1, 4))
        if is_uniformly_bounded(Cover.explicit(members), pb).is_yes:
            ok, witness = asr_uniformly_bounded(asr, members)
            assert ok, witness
        done += 1
    verdict_line("6i", True, "uniform boundedness transfers to the induced equivalence")


# ---------------------------------------------------------------------------
# 7. equivalence invariance
# ---------------------------------------------------------------------------


def test_criterion_7_equivalence_invariance():
    verified = 0
    for d, c in enumerated_equivalences(3):
        assert asdim_explicit(d).value == asdim_explicit(c).value
        verified += 1
    assert verified > 50

    random_verified = 0
    for d, c in random_equivalences(random.Random(2026), U4, 50):
        assert asdim_explicit(d).value == asdim_explicit(c).value
        random_verified += 1
    assert random_verified == 50

    stretch = is_ls_equivalence(LineMap.affine(2, 0), LineMap.floor_div(2))
    assert stretch.is_yes
    verdict_line(
        7,
        True,
        f"{verified} enumerated and 50 random verified pairs share their dimension; "
        "the stretch/halve pair verifies at the scale budget",
    )


# ---------------------------------------------------------------------------
# 8. negative-example fidelity
# ---------------------------------------------------------------------------


def test_criterion_8_negative_examples():
    mb = MetricLineBackend()
    sets = [ls.GeometricSet(1, 2**n, 1) for n in range(1, 9)]
    verdict = nearness_of(NearnessQuery(mb, sets, scale_budget=64, window=10**6))
    assert verdict.is_unknown
    refutations = verdict.witness["scale_refutations"]
    assert [r["scale"] for r in refutations] == list(range(65))
    for r in refutations:
        i, j = r["members"]
        far_from = sets[j] if r["side"] == 0 else sets[i]
        assert ls.point_distance(far_from, r["point"]) > r["scale"]

    # trace rule against escalating-window brute force on 200 seeded families
    from coarselab.backends import TopoTraceBackend

    tb = TopoTraceBackend()
    rng = random.Random(20260808)
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
        counts = [[len(s.window(w)) for w in (256, 1024, 4096)] for s in members]
        flags = [c[-1] == c[-2] == c[-3] for c in counts]
        brute = all(flags) or not any(flags)
        assert verdict.is_yes == brute
        checked += 1
    verdict_line(
        8,
        True,
        "geometric family refuted at every scale up to 64 with point witnesses; "
        "trace rule matches windowed brute force on 200 families",
    )
