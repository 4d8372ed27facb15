import hashlib
import json
import random

import numpy as np
import pytest

from coarselab import lineset as ls
from coarselab.nearness_lab import (
    WINDOW_CAP,
    BunchObstruction,
    ObstructionBudgetExhausted,
    ObstructionRejected,
    bunch_exists_explicit,
    bunch_obstruction,
    cluster_extension_contrast,
)
from coarselab.setcore import CapExceeded, Universe
from coarselab.structures import (
    ExplicitProximity,
    proximal_nearness,
    topological_nearness,
)

from oracles import bunch_families, reference_sides, scale_checks_reference

U2 = Universe.of("a", "b")
U3 = Universe.of("a", "b", "c")


class TestObstruction:
    def test_evens_odds_full_pipeline(self):
        cert = bunch_obstruction([ls.evens(), ls.odds()], scale_budget=32, window=10**5)
        assert cert.complete
        assert cert.refiner_scale == 1
        assert cert.coverage.is_yes
        assert len(cert.scale_checks) == 66
        assert BunchObstruction.from_json(json.loads(json.dumps(cert.to_json()))).revalidate()

    def test_identical_members_rejected(self):
        with pytest.raises(ObstructionRejected, match="share the point"):
            bunch_obstruction([ls.evens(), ls.evens()])

    def test_mixed_family_rejected(self):
        with pytest.raises(ObstructionRejected, match="not near"):
            bunch_obstruction([ls.FiniteSet((1,)), ls.evens()])

    def test_enumerator_member_rejected(self):
        with pytest.raises(ObstructionRejected, match="exact-tier"):
            bunch_obstruction([ls.GeometricSet(1, 2, 1), ls.evens()])

    def test_short_pivot_window_rejected(self):
        # {0, 40, 80} is all of the pivot in [0, 5 * 5 + 64]: the second
        # sparsify half has no point in the window
        members = [ls.arithmetic(0, 40), ls.arithmetic(1, 40)]
        with pytest.raises(ObstructionRejected, match="window too small for the pivot member"):
            bunch_obstruction(members, scale_budget=32, window=5)

    def test_window_over_the_cap_raises_before_any_build(self):
        with pytest.raises(CapExceeded, match="exceeds the cap"):
            bunch_obstruction([ls.evens(), ls.odds()], scale_budget=32, window=WINDOW_CAP + 1)

    def test_halves_inside_pivot(self):
        cert = bunch_obstruction([ls.evens(), ls.odds()], 8, 10**4)
        for half in (cert.half1, cert.half2):
            for x in half.window(2000):
                assert cert.pivot.contains(x)

    def test_scale_checks_are_replayable(self):
        # At scale 64 the {evens, odds} witnesses sit past the first
        # 64 pivot points, so the chunked witness scan has to grow.
        cases = [
            ([ls.evens(), ls.odds()], 16),
            ([ls.evens(), ls.odds()], 64),
            ([ls.arithmetic(1, 4), ls.arithmetic(3, 4)], 64),
        ]
        for members, budget in cases:
            cert = bunch_obstruction(members, budget, 10**4)
            replay_scale_checks(cert)

    def test_serialization_roundtrip_and_revalidation(self):
        cert = bunch_obstruction([ls.evens(), ls.odds()], 16, 10**4)
        doc = json.loads(json.dumps(cert.to_json()))
        back = BunchObstruction.from_json(doc)
        assert back.revalidate()

    def test_tampered_certificate_fails_revalidation(self):
        cert = bunch_obstruction([ls.evens(), ls.odds()], 8, 10**4)
        doc = cert.to_json()
        doc["scale_checks"][3]["member_point"] += 1  # off the pivot set
        assert not BunchObstruction.from_json(doc).revalidate()

    def test_seeded_disjoint_progression_families(self):
        rng = random.Random(99)
        built = 0
        while built < 20:
            modulus = 2 * rng.randint(2, 5)
            residues = rng.sample(range(modulus), rng.randint(2, 3))
            members = [ls.arithmetic(r, modulus) for r in residues]
            cert = bunch_obstruction(members, scale_budget=16, window=10**4)
            assert cert.complete
            built += 1


def replay_scale_checks(cert):
    """Rebuild each check's candidate, the side's window points within the
    scale of the pivot, and check the stored witness: its distance to the
    candidate, and that it is the first guarded pivot point that far."""
    pivot = np.asarray(cert.pivot.window(cert.window + cert.scale_budget))
    sides = (cert.side1.window_array(cert.window), cert.side2.window_array(cert.window))
    for check in cert.scale_checks:
        k, l = check.scale, check.member_point
        sw = sides[check.side]
        pivot_near = np.searchsorted(pivot, sw + k, "right") > np.searchsorted(pivot, sw - k)
        candidate = sw[pivot_near]
        assert cert.pivot.contains(l) and l <= cert.window - k
        below = pivot[pivot < l]
        if check.distance_to_candidate is None:
            assert candidate.size == 0 and below.size == 0
            continue
        assert int(np.abs(candidate - l).min()) == check.distance_to_candidate > k
        gaps = np.abs(below[:, None] - candidate[None, :]).min(axis=1)
        assert (gaps <= k).all()


def scale_checks_built(family, budget, window):
    """``scale_checks_reference``'s shape from ``bunch_obstruction``."""
    try:
        return bunch_obstruction(family, budget, window).scale_checks, None
    except ObstructionBudgetExhausted as e:
        return e.checks, str(e)


def checks_from_past_the_prefix(family, window, checks):
    """The checks whose stored distance comes only from a candidate point
    past the last point of the member point's witness chunk plus the
    scale: the point the witness scan finds past the masked prefix."""
    lw, sides = reference_sides(family[0], window)
    out = []
    for check in checks:
        k, p, d = check.scale, check.member_point, check.distance_to_candidate
        if d is None:
            continue
        sw, d_side = sides[check.side]
        candidate = set(sw[d_side <= k].tolist())
        witnesses = lw[lw <= window - k]
        i = int(np.searchsorted(witnesses, p))
        start, size = 0, 64
        while start + size <= i:
            start, size = start + size, 2 * size
        last = int(witnesses[min(start + size, witnesses.size) - 1])
        if p + d > last + k and p + d in candidate and p - d not in candidate:
            out.append(check)
    return out


class TestScaleChecksReference:
    """``bunch_obstruction``'s scale checks, from one distance field and
    prefix masks, against the whole-window reference, on the first
    families of criterion 5's draw."""

    FAMILIES = [[ls.evens(), ls.odds()], *bunch_families(random.Random(20260805), 12)]

    @pytest.mark.parametrize("window", [500, 2000, 10**4])
    def test_complete_certificates(self, window):
        for family in self.FAMILIES:
            checks, failure = scale_checks_reference(family, 32, window)
            assert failure is None
            assert scale_checks_built(family, 32, window) == (checks, None)

    def test_windows_that_run_out(self):
        # Below about 40 the window runs out at some scale; the checks
        # made before it, and the failure, must agree.  Here the only
        # witness of a chunk can be far from every candidate point of
        # the masked prefix, so its distance comes from the point past it.
        past = []
        for family in self.FAMILIES:
            for window in range(4, 41):
                expected = scale_checks_reference(family, 12, window)
                assert scale_checks_built(family, 12, window) == expected
                past += checks_from_past_the_prefix(family, window, expected[0])
        assert past


def _edit_pivot(doc):
    doc["pivot"] = doc["family"][1]


def _edit_side1(doc):
    doc["side1"] = ls.naturals().to_json()


def _edit_member_point(index):
    def edit(doc):
        doc["scale_checks"][index]["member_point"] += 1

    return edit


def _edit_distance(doc):
    check = next(c for c in doc["scale_checks"] if c["distance_to_candidate"] is not None)
    check["distance_to_candidate"] += 1


def _edit_coverage(doc):
    doc["coverage"]["outcome"] = "no"


def _edit_drop_check(doc):
    del doc["scale_checks"][5]


def _edit_family(doc):
    doc["family"][1] = doc["family"][0]


def _edit_refiner_scale(doc):
    doc["refiner_scale"] += 999


def _edit_half1(doc):
    doc["half1"] = doc["half2"]


REJECTED_EDITS = {
    "pivot": _edit_pivot,
    "side1": _edit_side1,
    **{f"member_point[{i}]": _edit_member_point(i) for i in (0, 3, 8, 11, -1)},
    "distance_to_candidate": _edit_distance,
    "coverage": _edit_coverage,
    "drop_scale_check": _edit_drop_check,
}
TRUSTED_EDITS = {
    "family": _edit_family,
    "refiner_scale": _edit_refiner_scale,
    "half1": _edit_half1,
}


class TestRevalidate:
    """``revalidate`` on a genuine certificate and on single-field edits of it."""

    @pytest.fixture(scope="class")
    def genuine(self):
        members = [ls.arithmetic(r, 4) for r in (0, 1, 3)]
        return bunch_obstruction(members, scale_budget=8, window=2000).to_json()

    @staticmethod
    def revalidate_edited(doc, edit):
        doc = json.loads(json.dumps(doc))
        edit(doc)
        return BunchObstruction.from_json(doc).revalidate()

    def test_genuine_accepted(self, genuine):
        assert self.revalidate_edited(genuine, lambda doc: None)

    @pytest.mark.parametrize("kind", sorted(REJECTED_EDITS))
    def test_single_field_edit_rejected(self, genuine, kind):
        assert not self.revalidate_edited(genuine, REJECTED_EDITS[kind])

    @pytest.mark.xfail(
        strict=True,
        reason="revalidate trusts family, refiner_scale and the halves (ROADMAP item 5)",
    )
    @pytest.mark.parametrize("kind", sorted(TRUSTED_EDITS))
    def test_trusted_field_edit_rejected(self, genuine, kind):
        assert not self.revalidate_edited(genuine, TRUSTED_EDITS[kind])


def _seeded_families():
    yield [ls.evens(), ls.odds()]
    rng = random.Random(1)
    for _ in range(2):
        modulus = 2 * rng.randint(2, 5)
        residues = rng.sample(range(modulus), rng.randint(2, 3))
        yield [ls.arithmetic(r, modulus) for r in residues]


# sha256 of the canonical JSON (sorted keys, no spaces) of the certificates
# for {evens, odds}, {2, 0} mod 6 and {7, 6, 3} mod 10 at scale 16, window
# 1e4, as built with the np.unique window merge, and for {evens, odds} at
# scale 64, window 1e4 (witnesses past the first 64 pivot points), as built
# with full witness scans: a faster build path must reproduce them byte for
# byte.
GOLDEN_CERTIFICATES = (
    "d00fd1c3541b21fb25e7a27a747790598cb0d77582594399af56c0666ad87c3b",
    "ce6b21cfa10de9b4f8730d7440ce49b05db9b08b124ba94c6d763c37cef0d8f7",
    "5b052e21f74db2c608d129371e451e58d90864b395c70da7ce7cf7d5fe861e57",
    "694b62ef67e19509bd14827ba982fda4e7aee8b706a96076b38c7a28248fd827",
)


def test_golden_certificates():
    digests = []
    inputs = [(members, 16) for members in _seeded_families()]
    inputs.append(([ls.evens(), ls.odds()], 64))
    for members, budget in inputs:
        cert = bunch_obstruction(members, scale_budget=budget, window=10**4)
        text = json.dumps(cert.to_json(), sort_keys=True, separators=(",", ":"))
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        assert cert.revalidate()
    assert tuple(digests) == GOLDEN_CERTIFICATES


class TestExplicitContrast:
    def test_point_family_extends(self):
        n = topological_nearness(U3)
        fam = U3.family([U3.subset("a")])
        v = bunch_exists_explicit(fam, n)
        assert v.is_yes

    def test_disjoint_singletons_rejected(self):
        n = topological_nearness(U3)
        fam = U3.family([U3.subset("a"), U3.subset("b")])
        with pytest.raises(ValueError, match="not near"):
            bunch_exists_explicit(fam, n)

    def test_near_pairs_extend_in_proximal_nearness(self):
        for universe in (U2, U3):
            p = ExplicitProximity.discrete(universe)
            n = proximal_nearness(p)
            for a in range(1, 1 << universe.size):
                for b in range(1, 1 << universe.size):
                    if not p.near(a, b):
                        continue
                    fam = universe.family(
                        [universe.subset_from_mask(a), universe.subset_from_mask(b)]
                    )
                    assert bunch_exists_explicit(fam, n).is_yes

    def test_cluster_extension_contrast(self):
        for universe in (U2, U3):
            contrast = cluster_extension_contrast(ExplicitProximity.discrete(universe))
            assert contrast.all_extended
            assert contrast.pairs_checked > 0
