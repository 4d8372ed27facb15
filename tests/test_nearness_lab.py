import json
import random
import tracemalloc

import numpy as np
import pytest

from coarselab import lineset as ls
from coarselab.nearness_lab import (
    WINDOW_CAP,
    BunchObstruction,
    ObstructionBudgetExhausted,
    ObstructionRejected,
    ScaleCheck,
    _evidence_top,
    _scale_checks,
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

from digests import GOLDEN_DIR, canonical, digest_line, golden_digest
from oracles import (
    bunch_families,
    bunch_obstruction_reference,
    revalidate_reference,
    scale_checks_reference,
)

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
        # 64 pivot points.
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


class TestScaleChecksReference:
    """``bunch_obstruction``'s scale checks, from one running maximum per
    side, against the whole-window reference, on the first families of
    criterion 5's draw."""

    FAMILIES = [[ls.evens(), ls.odds()], *bunch_families(random.Random(20260805), 12)]

    @pytest.mark.parametrize("window", [500, 2000, 5000, 10**4])
    def test_complete_certificates(self, window):
        for family in self.FAMILIES:
            checks, failure = scale_checks_reference(family, 32, window)
            assert failure is None
            assert scale_checks_built(family, 32, window) == (checks, None)

    def test_windows_that_run_out(self):
        # Below about 40 the window runs out at some scale; the checks
        # made before it, and the failure, must agree.
        for family in self.FAMILIES:
            for window in range(4, 41):
                expected = scale_checks_reference(family, 12, window)
                assert scale_checks_built(family, 12, window) == expected


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


def _edit_half2(doc):
    doc["half2"] = doc["half1"]


def _edit_swap_sides(doc):
    doc["side1"], doc["side2"] = doc["side2"], doc["side1"]


def _edit_check(key, value, pick=lambda check: True):
    """Set ``key`` of the first scale check that ``pick`` accepts to
    ``value(check)``."""

    def edit(doc):
        check = next(c for c in doc["scale_checks"] if pick(c))
        check[key] = value(check)

    return edit


def _claims_a_distance(check):
    return check["distance_to_candidate"] is not None


def _edit_last_witness_distance(value):
    """Set the distance of the check with the largest member point to
    ``value(doc)``: that check's ``member_point + distance`` is the
    likeliest to size ``revalidate``'s reach."""

    def edit(doc):
        check = max(doc["scale_checks"], key=lambda c: c["member_point"])
        check["distance_to_candidate"] = value(doc)

    return edit


REJECTED_EDITS = {
    "pivot": _edit_pivot,
    "half1": _edit_half1,
    "half2": _edit_half2,
    "side1": _edit_side1,
    "sides_swapped": _edit_swap_sides,
    **{f"member_point[{i}]": _edit_member_point(i) for i in (0, 3, 8, 11, -1)},
    # the genuine certificate's window is 2000: at scale 1 the first
    # point past the guard, 2000, is a pivot point
    "member_point_past_guard": _edit_check(
        "member_point", lambda c: 2000 - c["scale"] + 1, lambda c: c["scale"] == 1
    ),
    "distance_to_candidate": _edit_distance,
    "distance_to_candidate_none": _edit_check(
        "distance_to_candidate", lambda c: None, _claims_a_distance
    ),
    "distance_to_candidate_scale": _edit_check(
        "distance_to_candidate", lambda c: c["scale"], _claims_a_distance
    ),
    "distance_to_candidate_negative": _edit_last_witness_distance(lambda doc: -doc["window"]),
    "distance_to_candidate_window": _edit_last_witness_distance(lambda doc: doc["window"]),
    # read as an int64, it would be the genuine point
    "member_point_fraction": _edit_check("member_point", lambda c: c["member_point"] + 0.5),
    # a list among the fields cannot be read as one integer table
    "distance_to_candidate_list": _edit_check(
        "distance_to_candidate", lambda c: [c["distance_to_candidate"]], _claims_a_distance
    ),
    "scale_list": _edit_check("scale", lambda c: [c["scale"]]),
    "every_field_a_list": lambda doc: doc.update(
        scale_checks=[{key: [value] for key, value in c.items()} for c in doc["scale_checks"]]
    ),
    "side_flipped": _edit_check("side", lambda c: 1 - c["side"]),
    "scale_shifted": _edit_check("scale", lambda c: c["scale"] + 1),
    "coverage": _edit_coverage,
    "coverage_witness_forged": lambda doc: doc["coverage"].update(witness={"forged": 1}),
    "coverage_witness_emptied": lambda doc: doc["coverage"].update(
        witness={"window": 5, "scales": []}
    ),
    "coverage_last_near_a": lambda doc: doc["coverage"]["witness"]["scales"][-1].update(
        last_near_a=doc["coverage"]["witness"]["scales"][-1]["last_near_a"] + 1
    ),
    "drop_scale_check": _edit_drop_check,
    # rejected before a set of 2 * 10**12 (scale, side) pairs is built
    "scale_budget": lambda doc: doc.update(scale_budget=10**12),
}
TRUSTED_EDITS = {
    "family": _edit_family,
    "refiner_scale": _edit_refiner_scale,
}


def count_window_builds(monkeypatch) -> list[tuple[ls.LineSet, int]]:
    """Record the set and bound of every ``PeriodicSet.window_array`` and
    ``BlocksSet.window_array`` call from here on."""
    builds = []
    for cls in (ls.PeriodicSet, ls.BlocksSet):

        def counted(self, hi, build=cls.window_array):
            builds.append((self, hi))
            return build(self, hi)

        monkeypatch.setattr(cls, "window_array", counted)
    return builds


def record_field_reaches(monkeypatch) -> list[int]:
    """Record the reach of every ``lineset._sparsify_fields`` call from
    here on."""
    reaches = []
    fields = ls._sparsify_fields

    def recorded(pivot, hi):
        reaches.append(hi)
        return fields(pivot, hi)

    monkeypatch.setattr(ls, "_sparsify_fields", recorded)
    return reaches


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
        reason="revalidate trusts family and refiner_scale (ROADMAP item 5)",
    )
    @pytest.mark.parametrize("kind", sorted(TRUSTED_EDITS))
    def test_trusted_field_edit_rejected(self, genuine, kind):
        assert not self.revalidate_edited(genuine, TRUSTED_EDITS[kind])

    def test_distance_to_an_empty_candidate_rejected(self):
        # Side 0 becomes the odds, all at distance 1 from the evens: its
        # scale-0 candidate is empty, yet the stored check claims a
        # distance to it.  The reference checker raised on this.
        doc = bunch_obstruction([ls.evens(), ls.odds()], 8, 2000).to_json()
        doc["side1"], doc["side2"] = ls.odds().to_json(), ls.naturals().to_json()
        cert = BunchObstruction.from_json(doc)
        with pytest.raises(ls.LineSetError, match="empty set"):
            revalidate_reference(cert)
        assert not cert.revalidate()

    def test_window_over_the_cap_raises_before_any_build(self, monkeypatch):
        doc = bunch_obstruction([ls.evens(), ls.odds()], 8, 2000).to_json()
        doc["window"] = 10**12
        cert = BunchObstruction.from_json(doc)
        builds = count_window_builds(monkeypatch)
        with pytest.raises(CapExceeded, match="exceeds the cap"):
            cert.revalidate()
        assert builds == []

    def test_genuine_at_the_cap_builds_within_its_reach(self, monkeypatch):
        # The checks of {evens, odds} at scale 32 read points below 200,
        # and the coverage evidence ends at 318: at the cap, revalidate
        # builds its fields on that reach and nothing past its padding.
        cert = bunch_obstruction([ls.evens(), ls.odds()], 32, WINDOW_CAP)
        reach = max(
            _evidence_top(cert.pivot, cert.window),
            *(c.member_point + c.distance_to_candidate for c in cert.scale_checks),
        )
        reaches = record_field_reaches(monkeypatch)
        builds = count_window_builds(monkeypatch)
        assert cert.revalidate()
        assert reaches == [reach] and reach < 1000
        assert not [s for s, _ in builds if isinstance(s, ls.BlocksSet)]
        # the largest is the pivot's window padded for the halves' fields
        assert builds and max(hi for _, hi in builds) <= 5 * reach + 64

    @pytest.mark.parametrize(
        "kind, reach",
        [
            ("distance_to_candidate_negative", None),
            ("distance_to_candidate_window", 2000),
            ("distance_to_candidate_none", 2000),
        ],
    )
    def test_forged_distance_reach(self, genuine, monkeypatch, kind, reach):
        # A negative distance is rejected before any field is built; one
        # that reaches the window, or an empty candidate, sizes the
        # fields to the window, and is rejected there.
        reaches = record_field_reaches(monkeypatch)
        assert self.revalidate_edited(genuine, REJECTED_EDITS[kind]) is False
        assert reaches == ([] if reach is None else [reach])

    def test_negative_distances_past_the_evidence_rejected(self):
        # Witnesses at budget 1500 lie past 7000, and the evidence prefix
        # ends at 318: negative distances must not size the fields below
        # the member points they are read at.
        doc = bunch_obstruction([ls.evens(), ls.odds()], 1500, 10**4).to_json()
        for c in doc["scale_checks"]:
            c["distance_to_candidate"] = -c["distance_to_candidate"]
        assert BunchObstruction.from_json(doc).revalidate() is False


def _residue_family(rng: random.Random, q: int) -> list[ls.LineSet]:
    modulus = 2 * q
    residues = rng.sample(range(modulus), rng.randint(2, min(4, modulus)))
    return [ls.arithmetic(r, modulus) for r in residues]


def _mixed_family(rng: random.Random) -> list[ls.LineSet]:
    """A pivot of one to three progressions with a finite part and
    removals, and one or two residue classes mod ``m`` disjoint from
    it: the pivot's steps are multiples of ``m``, and its progressions
    and finite points lie in the other classes."""
    m = rng.randint(2, 8)
    free = rng.sample(range(m), rng.randint(1, min(2, m - 1)))
    taken = [r for r in range(m) if r not in free]
    progs = [
        (rng.choice(taken) + m * rng.randint(0, 3), m * rng.randint(1, 3))
        for _ in range(rng.randint(1, 3))
    ]
    fin = [n for n in rng.sample(range(41), 3) if n % m in taken]
    body = sorted(set(fin).union(*(range(s, 41, p) for s, p in progs)))
    removals = rng.sample(body, rng.randint(0, 2))
    pivot = ls.PeriodicSet(tuple(fin), tuple(progs), tuple(removals))
    return [pivot] + [ls.arithmetic(r + m * rng.randint(0, 2), m) for r in free]


def _check_edits(rng: random.Random, checks: list[dict], period: int):
    """Up to four seeded edits of the scale checks, each a list of ``(check
    index, key, new value)``: a member point moved, a distance changed,
    or the scales (sides) of two checks of one side (scale) swapped, the
    edit of one field that keeps every (scale, side) pair."""
    for _ in range(4):
        i = rng.randrange(len(checks))
        c = checks[i]
        kind = rng.choice(["member_point", "distance", "scale", "side"])
        if kind == "member_point":
            yield [(i, kind, c[kind] + rng.choice([-2, -1, 1, 2, period, -period]))]
        elif kind == "distance":
            d, k = c["distance_to_candidate"], c["scale"]
            new = [None, k, k + 1] + ([d - 1, d + 1] if d else [])
            yield [(i, "distance_to_candidate", rng.choice([v for v in new if v != d]))]
        else:
            other = "side" if kind == "scale" else "scale"
            partners = [j for j, o in enumerate(checks) if o[other] == c[other] and j != i]
            if partners:  # at budget 0 no two checks share a side
                j = rng.choice(partners)
                yield [(i, kind, checks[j][kind]), (j, kind, c[kind])]


def _reference_verdict(cert) -> bool:
    """``revalidate_reference``, reading its ``LineSetError`` on a distance
    claimed to an empty candidate as the rejection it stands for."""
    try:
        return revalidate_reference(cert)
    except ls.LineSetError:
        return False


def _compare_with_the_reference(rng: random.Random, cert, edit_verdicts: dict) -> int:
    """Assert that ``revalidate`` accepts ``cert`` as the reference does,
    and agrees with it on seeded edits of its checks; the number of
    certificates and edits compared."""
    assert cert.revalidate() and _reference_verdict(cert)
    doc = cert.to_json()
    compared = 1
    for edit in _check_edits(rng, doc["scale_checks"], cert.pivot.period()):
        forged = json.loads(json.dumps(doc))
        for i, key, value in edit:
            forged["scale_checks"][i][key] = value
        edited = BunchObstruction.from_json(forged)
        verdict = edited.revalidate()
        assert verdict == _reference_verdict(edited), forged
        edit_verdicts[verdict] += 1
        compared += 1
    return compared


def test_revalidate_agrees_with_the_reference_checker():
    """The derived-field checker against the stored-set reference, on
    seeded certificates for residue families mod 2q (q = 1..8) and for
    pivots with several progressions, finite parts and removals, at
    windows from 4 to 1e4, and on single-field edits of their checks;
    then on three certificates at windows 1e5 to 1e6, whose checks and
    evidence reach a small part of the window."""
    rng = random.Random(20261019)
    edit_verdicts = {True: 0, False: 0}
    windows = []
    compared = 0
    while compared < 600:
        q = rng.randint(1, 12)
        family = _residue_family(rng, q) if q <= 8 else _mixed_family(rng)
        window = rng.randint(4, 24) if rng.random() < 0.3 else round(10 ** rng.uniform(1.4, 4))
        try:
            cert = bunch_obstruction(family, rng.randint(0, min(16, window // 8)), window)
        except ObstructionRejected:  # the window ran out: no certificate
            continue
        windows.append(window)
        compared += _compare_with_the_reference(rng, cert, edit_verdicts)
    assert min(edit_verdicts.values()) > 10  # both verdicts occur
    assert min(windows) <= 12 and max(windows) > 5000
    wide = [
        ([ls.arithmetic(r, 6) for r in (0, 1, 3)], 32, 10**5),
        (_mixed_family(random.Random(3)), 16, 3 * 10**5),
        (_sparse_pivot_family(random.Random(1)), 32, 10**6),
    ]
    for family, budget, window in wide:
        cert = bunch_obstruction(family, budget, window)
        assert max(c.member_point for c in cert.scale_checks) < window // 100
        _compare_with_the_reference(rng, cert, edit_verdicts)


def _sparse_pivot_family(rng: random.Random) -> list[ls.LineSet]:
    """A pivot of two classes mod 100 with a finite part and a removal,
    and a third class mod 100 disjoint from it: the pivot's 128th point
    lies past 4096, so the build's reach starts past it."""
    r1, r2, other = rng.sample(range(100), 3)
    fin = [n for n in rng.sample(range(300), 3) if n % 100 != other]
    pivot = ls.PeriodicSet(tuple(fin), ((r1, 100), (r2 + 100, 100)), (r1 + 100,))
    return [pivot, ls.arithmetic(other, 100)]


def _built_or_exhausted(build, family, budget, window):
    try:
        return build(family, budget, window).to_json()
    except ObstructionBudgetExhausted as e:
        return str(e), e.checks


class TestReach:
    """The build on ``[0, reach]``, grown from 4096, against the reference
    build over the whole window."""

    FAMILIES = [
        *TestScaleChecksReference.FAMILIES[:6],
        [ls.arithmetic(0, 40), ls.arithmetic(1, 40)],
        [ls.arithmetic(0, 200), ls.arithmetic(1, 200)],
        [ls.arithmetic(7, 200), ls.arithmetic(3, 200), ls.arithmetic(100, 200)],
        *(_sparse_pivot_family(random.Random(seed)) for seed in range(4)),
        *(_mixed_family(random.Random(seed)) for seed in range(4)),
    ]
    WINDOWS = [4097, 5000, 10**4, 10**5]

    def test_certificates_equal_the_whole_window_build(self, monkeypatch):
        # A budget of 1500 puts the {evens, odds} witnesses past 4096: the
        # reach doubles, and the narrower windows run out.
        cases = [(f, b, w) for f in self.FAMILIES for b in (8, 32) for w in self.WINDOWS]
        cases += [([ls.evens(), ls.odds()], 1500, w) for w in self.WINDOWS]
        with monkeypatch.context() as m:
            reaches = record_field_reaches(m)
            built = [_built_or_exhausted(bunch_obstruction, *case) for case in cases]
        for case, got in zip(cases, built):
            assert got == _built_or_exhausted(bunch_obstruction_reference, *case), case
        certs = [got for got in built if isinstance(got, dict)]
        assert len(certs) < len(built)  # some windows ran out
        assert 8192 in reaches and 4096 in reaches and max(reaches) > 25000
        # a stored distance past 64 takes the search past its first radius
        assert max(
            c["distance_to_candidate"] or 0 for cert in certs for c in cert["scale_checks"]
        ) > 64

    def test_a_distance_past_the_reach_is_not_settled(self):
        # The witness 60 lies within the reach 100, yet its only candidate
        # point below the reach, 0, is 60 away: a nearer one may lie past
        # 100.  At the window (final) the same check is settled.
        lw, sw, field = np.array([60]), np.array([0]), np.zeros(101, dtype=np.int64)
        assert _scale_checks(lw, field, (sw, sw), 0, 100, False) is None
        assert _scale_checks(lw, field, (sw, sw), 0, 100, True) == [
            ScaleCheck(0, s, 60, 60) for s in (0, 1)
        ]
        # nor is a candidate empty below the reach
        field[0] = 1
        assert _scale_checks(lw, field, (sw, sw), 0, 100, False) is None
        assert _scale_checks(lw, field, (sw, sw), 0, 100, True) == [
            ScaleCheck(0, s, 60, None) for s in (0, 1)
        ]

    def test_distant_candidates_in_bounded_memory(self):
        # The stored distances of {0, 1} mod 10**4 reach 20000; a search
        # of every side point that near, for all witnesses at once,
        # would hold over 20 MB.
        tracemalloc.start()
        try:
            cert = bunch_obstruction([ls.arithmetic(0, 10**4), ls.arithmetic(1, 10**4)], 32, 10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.complete and peak < 10 * 2**20

    def test_a_huge_budget_runs_out_at_the_window(self):
        # scales past the window are never reached, so none is built
        case = ([ls.evens(), ls.odds()], 10**12, 100)
        got = _built_or_exhausted(bunch_obstruction, *case)
        assert got == _built_or_exhausted(bunch_obstruction_reference, *case)
        assert len(got[1]) < 100

    def test_sparse_pivots_revalidate(self):
        # sparse pivots: each half holds fewer than 8 points up to 4096
        for m in range(65, 400, 7):
            cert = bunch_obstruction([ls.arithmetic(0, m), ls.arithmetic(1, m)], 32, 10**5)
            assert BunchObstruction.from_json(json.loads(json.dumps(cert.to_json()))).revalidate()

    def test_window_cap_builds_within_reach(self, monkeypatch):
        builds = count_window_builds(monkeypatch)
        cert = bunch_obstruction([ls.evens(), ls.odds()], 32, WINDOW_CAP)
        assert cert.complete and cert.window == cert.coverage.witness["window"] == WINDOW_CAP
        assert builds and max(hi for _, hi in builds) <= 10**5


def test_golden_certificates():
    """The certificates for {evens, odds}, {2, 0} mod 6 and {7, 6, 3} mod 10
    at scale 16, and for {evens, odds} at scale 64 (witnesses past the
    first 64 pivot points), all at window 1e4, reproduce their records of
    the line golden group byte for byte and revalidate."""
    cases = (
        ("evens-odds", [ls.evens(), ls.odds()], 16),
        ("mod6", [ls.arithmetic(2, 6), ls.arithmetic(0, 6)], 16),
        ("mod10", [ls.arithmetic(7, 10), ls.arithmetic(6, 10), ls.arithmetic(3, 10)], 16),
        ("evens-odds", [ls.evens(), ls.odds()], 64),
    )
    for label, members, budget in cases:
        cert = bunch_obstruction(members, scale_budget=budget, window=10**4)
        assert cert.revalidate()
        record = f"bunch {label} {budget} {10**4}"
        got = digest_line(record, canonical([cert.to_json(), True]))
        assert got == f"{golden_digest(GOLDEN_DIR / 'line.sha256', record)}  {record}"


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
