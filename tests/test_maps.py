import itertools
import random

from coarselab import _bitops as bo
from coarselab import lineset as ls
from coarselab import maps
from coarselab.backends import PartitionCoarseBackend
from coarselab.maps import (
    ExplicitMap,
    LineMap,
    displacement_bound,
    is_ls_equivalence,
    is_lsr_map,
)
from coarselab.mining import all_partitions, universe_of_size
from coarselab.setcore import Universe

from oracles import (
    partition_backend,
    preimage_mask_reference,
    random_periodic,
    sampled_is_ls_equivalence,
    sampled_is_lsr_map,
)

U1 = Universe.of("p")
U2 = Universe.of("a", "b")
U3 = Universe.of("a", "b", "c")


def random_pipeline(rng: random.Random, least_slope: int = 0) -> LineMap:
    """1 to 3 seeded stages: affine with a in ``least_slope``..4 and b in
    0..5, or a floor division by d in 1..4."""
    return LineMap(tuple(
        ("affine", rng.randint(least_slope, 4), rng.randint(0, 5)) if rng.random() < 0.5
        else ("floor-div", rng.randint(1, 4))
        for _ in range(rng.randint(1, 3))
    ))


def near_inverse(rng: random.Random, f: LineMap) -> LineMap:
    """The stages of ``f`` undone in reverse order, up to offsets: a floor
    division by a for an affine stage of slope a >= 1, and an affine
    stretch by d for a division by d; a zero slope stays as it is."""
    return LineMap(tuple(
        ("affine", stage[1], rng.randint(0, 5)) if stage[0] == "floor-div"
        else ("floor-div", stage[1]) if stage[1] else stage
        for stage in reversed(f.stages)
    ))


class TestLineMapImages:
    def test_affine_periodic(self):
        s = ls.PeriodicSet((9,), ((0, 2), (1, 7)), (4,))
        for mp in (LineMap.affine(3, 1), LineMap.affine(1, 6)):
            img = mp.image_of(s)
            expected = sorted(mp.apply(n) for n in s.window(300))
            assert img.window(max(expected)) == expected

    def test_floor_div_periodic(self):
        s = ls.PeriodicSet((9,), ((0, 2), (1, 7)), (4,))
        for d in (2, 3, 5):
            img = LineMap.floor_div(d).image_of(s)
            expected = sorted(set(n // d for n in s.window(600)))
            top = expected[-1] - 1  # guard against window truncation at the edge
            assert [x for x in img.window(top)] == [x for x in expected if x <= top]

    def test_floor_div_respects_removal_shadowing(self):
        # 4 is removed but 5 maps to the same image point
        s = ls.PeriodicSet((), ((0, 1),), (4,))
        img = LineMap.floor_div(2).image_of(s)
        assert img.contains(2)

    def test_floor_div_removal_without_shadow(self):
        # both preimages of 2 are removed
        s = ls.PeriodicSet((), ((0, 1),), (4, 5))
        img = LineMap.floor_div(2).image_of(s)
        assert not img.contains(2)

    def test_composition(self):
        mp = LineMap.floor_div(3).compose(LineMap.affine(2, 5))
        assert mp.apply(10) == (2 * 10 + 5) // 3

    def test_nonzero_slope_keeps_empty_finite_and_infinite(self):
        # the premise of the stage rule in the module docstring: seeded
        # pipelines of nonzero slope on seeded periodic sets (finite parts
        # and removals included) and finite sets, empty ones among them
        rng = random.Random(25)
        top = 2000
        for _ in range(150):
            f = random_pipeline(rng, least_slope=1)
            s = (
                random_periodic(rng, allow_finite=True) if rng.random() < 0.7
                else ls.FiniteSet(tuple(rng.sample(range(60), rng.randint(0, 4))))
            )
            img = f.image_of(s)
            assert (img.is_empty(), img.is_finite()) == (s.is_empty(), s.is_finite()), (f, s)
            # f is nondecreasing, so every n with f(n) < f(top) lies below top
            cut = f.apply(top) - 1
            expected = sorted(y for y in {f.apply(n) for n in s.window(top)} if y <= cut)
            assert img.window(cut) == expected, (f, s)


class TestIsLsrMap:
    def test_identity_everywhere(self):
        pb = partition_backend(U3, [["a", "b"], ["c"]])
        ident = ExplicitMap.from_labels(pb, pb, {x: x for x in "abc"})
        assert is_lsr_map(ident).is_yes
        assert is_lsr_map(LineMap.identity()).is_yes

    def test_double_map(self):
        assert is_lsr_map(LineMap.affine(2, 0)).is_yes

    def test_constant_map_rejected(self):
        pb = partition_backend(U3, [["a", "b"], ["c"]])
        point = partition_backend(U1, [["p"]])
        const = ExplicitMap.from_labels(pb, point, {x: "p" for x in "abc"})
        v = is_lsr_map(const)
        assert v.is_no and v.witness["reason"] == "unbounded-preimage"

    def test_constant_line_map_rejected(self):
        assert is_lsr_map(LineMap.affine(0, 5)).is_no

    def test_composition_of_maps_is_map(self):
        universes = [universe_of_size(n) for n in (2, 3)]
        count = 0
        for u in universes:
            backends = [PartitionCoarseBackend(u, b) for b in all_partitions(u)]
            for b1, b2, b3 in itertools.product(backends[:2], backends[:2], backends[:2]):
                for t1 in itertools.product(range(u.size), repeat=u.size):
                    f = ExplicitMap(b1, b2, t1)
                    g = ExplicitMap(b2, b3, t1)
                    if is_lsr_map(f).is_yes and is_lsr_map(g).is_yes:
                        assert is_lsr_map(g.compose(f)).is_yes
                        count += 1
        assert count > 0


class TestImageTable:
    def test_matches_image_key_on_every_key(self):
        # the one-sweep image table against the per-key image, for seeded
        # 4-point maps into 2, 3 and 4 points
        rng = random.Random(44)
        u = universe_of_size(4)
        d = PartitionCoarseBackend(u, rng.choice(list(all_partitions(u))))
        for n in (2, 3, 4):
            c = PartitionCoarseBackend(universe_of_size(n), [(1 << n) - 1])
            f = ExplicitMap(d, c, tuple(rng.randrange(n) for _ in range(4)))
            assert f.image_table().tolist() == [f.image_key(k) for k in range(1 << 16)]

    def test_image_keys_of_a_map_that_is_not_injective(self):
        # a, b -> a and c -> b: {{a}, {b}} goes to {{a}}, and {{a}, {c}} to {{a}, {b}}
        f = ExplicitMap(partition_backend(U3, [["a", "b", "c"]]), partition_backend(U2, [["a", "b"]]), (0, 0, 1))
        table = bo.image_keys([1 << t for t in f.table])
        assert table.tolist() == [f.image_key(k) for k in range(1 << 8)]
        assert table[0b110] == 0b10 and table[0b10010] == 0b110


class TestPreimageMasks:
    def test_match_the_per_subset_definition(self):
        # seeded maps from 1 to 4 points into codomains of 1 to 4 points
        rng = random.Random(45)
        for n1, n2 in itertools.product(range(1, 5), repeat=2):
            d = PartitionCoarseBackend(universe_of_size(n1), [(1 << n1) - 1])
            c = PartitionCoarseBackend(universe_of_size(n2), [(1 << n2) - 1])
            for _ in range(5):
                f = ExplicitMap(d, c, tuple(rng.randrange(n2) for _ in range(n1)))
                assert f.preimage_masks().tolist() == [preimage_mask_reference(f, b) for b in range(1 << n2)]


class TestDisplacement:
    def test_identity(self):
        assert displacement_bound(LineMap.identity()).witness["bound"] == 0

    def test_double_then_half(self):
        gf = LineMap.floor_div(2).compose(LineMap.affine(2, 0))
        assert displacement_bound(gf).witness["bound"] == 0
        fg = LineMap.affine(2, 0).compose(LineMap.floor_div(2))
        assert displacement_bound(fg).witness["bound"] == 1

    def test_slope_mismatch(self):
        v = displacement_bound(LineMap.affine(2, 0))
        assert v.is_no and v.witness["reason"] == "slope"


def _decided(v):
    """Outcome and witness, without the sample count of the reference."""
    return v.outcome, {k: x for k, x in v.witness.items() if k != "sampled_families"}


class TestSampledReference:
    def test_stage_rule_agrees_with_the_sampled_checks(self):
        # seeded pipeline pairs, zero slopes and diverging round trips
        # among them; every other pair is an inverse up to offsets, so
        # that bounded round trips are sampled too
        rng = random.Random(16)
        outcomes = set()
        for i in range(40):
            f = random_pipeline(rng)
            g = near_inverse(rng, f) if i % 2 else random_pipeline(rng)
            for h in (f, g):
                assert _decided(is_lsr_map(h)) == _decided(sampled_is_lsr_map(h)), h
            v = is_ls_equivalence(f, g)
            assert _decided(v) == _decided(sampled_is_ls_equivalence(f, g)), (f, g)
            outcomes.add((v.outcome, v.witness.get("reason")))
        assert outcomes == {
            ("yes", None),
            ("no", "forward-not-structure-map"),
            ("no", "backward-not-structure-map"),
            ("no", "roundtrip-displacement-diverges"),
        }


class TestEquivalence:
    def test_identity_pair(self):
        pb = partition_backend(U3, [["a", "b"], ["c"]])
        ident = ExplicitMap.from_labels(pb, pb, {x: x for x in "abc"})
        assert is_ls_equivalence(ident, ident).is_yes

    def test_double_and_half(self):
        v = is_ls_equivalence(LineMap.affine(2, 0), LineMap.floor_div(2))
        assert v.is_yes
        assert v.witness["displacement_domain"] == 0
        assert v.witness["displacement_codomain"] == 1

    def test_scale_budget_64(self):
        f, g = LineMap.affine(2, 0), LineMap.floor_div(2)
        assert is_ls_equivalence(f, g).is_yes
        assert is_ls_equivalence(g, f).is_yes

    def test_diverging_line_roundtrip_is_no_with_its_displacement_witness(self):
        # slope 3/2 after either order of the two maps
        for f, g in ((LineMap.affine(3, 0), LineMap.floor_div(2)), (LineMap.floor_div(2), LineMap.affine(3, 0))):
            v = is_ls_equivalence(f, g)
            assert v.is_no
            assert v.witness["reason"] == "roundtrip-displacement-diverges"
            assert v.witness["direction"] == "domain"
            inner = v.witness["inner"]
            assert inner["reason"] == "slope" and inner["slope"] == "3/2"
            assert inner["displacement"] == abs(g.compose(f).apply(inner["witness_point"]) - inner["witness_point"])

    def test_swap_map_on_symmetric_partition(self):
        pb = partition_backend(U2, [["a"], ["b"]])
        swap = ExplicitMap.from_labels(pb, pb, {"a": "b", "b": "a"})
        assert is_ls_equivalence(swap, swap).is_yes

    def test_collapse_fails_precondition(self):
        pb = partition_backend(U3, [["a", "b"], ["c"]])
        point = partition_backend(U1, [["p"]])
        const = ExplicitMap.from_labels(pb, point, {x: "p" for x in "abc"})
        section = ExplicitMap.from_labels(point, pb, {"p": "a"})
        v = is_ls_equivalence(const, section)
        assert v.is_no and v.witness["reason"] == "forward-not-structure-map"

    def test_backward_map_checked_only_after_forward_passes(self, monkeypatch):
        checked = []
        monkeypatch.setattr(maps, "is_lsr_map", lambda f: checked.append(f) or is_lsr_map(f))
        pb = partition_backend(U3, [["a", "b"], ["c"]])
        point = partition_backend(U1, [["p"]])
        const = ExplicitMap.from_labels(pb, point, {x: "p" for x in "abc"})
        section = ExplicitMap.from_labels(point, pb, {"p": "a"})
        assert is_ls_equivalence(const, section).witness["reason"] == "forward-not-structure-map"
        assert checked == [const]

    def test_codomain_roundtrip_composed_only_after_domain_one_absorbs(self, monkeypatch):
        composed = []
        compose = ExplicitMap.compose
        monkeypatch.setattr(ExplicitMap, "compose", lambda f, g: composed.append((f, g)) or compose(f, g))
        pb = partition_backend(U3, [["a", "b"], ["c"]])
        split = partition_backend(U2, [["a"], ["b"]])
        f = ExplicitMap.from_labels(pb, split, {"a": "a", "b": "a", "c": "b"})
        g = ExplicitMap.from_labels(split, pb, {"a": "c", "b": "a"})
        v = is_ls_equivalence(f, g)
        assert v.witness["reason"] == "roundtrip-not-absorbed"
        assert v.witness["direction"] == "domain"
        assert composed == [(g, f)]

    def test_preimage_reflection_consequence(self):
        # once an equivalence verifies, members reflect along the roundtrip
        pb = partition_backend(U2, [["a"], ["b"]])
        swap = ExplicitMap.from_labels(pb, pb, {"a": "b", "b": "a"})
        assert is_ls_equivalence(swap, swap).is_yes
        table = pb.member_table()
        comp = swap.compose(swap)
        for key in range(len(table)):
            if table[comp.image_key(key)]:
                assert table[key]

