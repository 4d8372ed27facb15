"""The benchmark's workloads: seeded inputs, one operation per input,
and an oracle that checks each operation's output.

Every workload is a closed loop with one caller.  Its inputs come in
rounds; round ``r`` is a pure function of the seed and ``r``.  A line
workload's round holds a fixed number of families per modulus, so that
a run's cost does not depend on which moduli a seed drew.  The program is called
through module attributes (``nearness_lab.bunch_obstruction``), so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from coarselab import backends, cli, dimension, lineset, maps, mining, nearness_lab, structures
from coarselab.setcore import Universe


@dataclass(frozen=True)
class Op:
    op_id: str
    program: Callable[[], Any]
    # raw program output -> (passed, verdict-and-witness record)
    oracle: Callable[[Any], tuple[bool, dict]]


def _rng(seed: int, *labels) -> random.Random:
    return random.Random("/".join(str(x) for x in (seed, *labels)))


def draw_family(rng: random.Random, q: int, k_max: int) -> tuple[int, list[int]]:
    """2 to ``k_max`` distinct residue classes mod 2q (criterion 5's
    generator, which also admits q = 1: the evens and the odds)."""
    modulus = 2 * q
    k = rng.randint(2, min(k_max, modulus))
    return modulus, rng.sample(range(modulus), k)


def residue_hausdorff(residues: list[int]) -> int:
    """Largest pairwise Hausdorff distance of the classes ``r mod m`` on
    the naturals: the class starting at the larger residue has no left
    neighbor below the smaller one, so each pair sits at |r1 - r2|."""
    return max(residues) - min(residues)


# ---------------------------------------------------------------------------
# line-certify: the CLI bunch subcommand end to end
# ---------------------------------------------------------------------------


class LineCertify:
    name = "line-certify"
    tail_percentile = 75.0
    # Families per round for q = 1..6.  Sorted by cost, a round runs from
    # q = 6 (cheapest) to q = 1, so the median falls inside the q = 3
    # class and p75 inside the q = 2 class, not on an edge between two
    # classes, where it would jump with the draw.
    defaults = {"scale": 32, "window": 10**5, "per_q": [2, 2, 2, 2, 1, 1], "k_max": 4}

    def __init__(self, seed: int, workdir: str, **params) -> None:
        self.seed = seed
        self.workdir = workdir
        self.params = {**self.defaults, **params}
        self._rounds: dict[int, list[Op]] = {}
        self.round(0)

    def round(self, r: int) -> list[Op]:
        if r not in self._rounds:
            self._rounds[r] = self._make_round(r)
        return self._rounds[r]

    def _make_round(self, r: int) -> list[Op]:
        p = self.params
        rng = _rng(self.seed, self.name, r)
        ops = []
        for q, count in enumerate(p["per_q"], start=1):
            for _ in range(count):
                modulus, residues = draw_family(rng, q, p["k_max"])
                op_id = f"r{r}.{len(ops)}"
                path = os.path.join(self.workdir, f"{op_id}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(self.document(modulus, residues), fh)
                ops.append(
                    Op(
                        op_id,
                        lambda path=path: run_cli(["bunch", path, "--json"]),
                        lambda raw, m=modulus, res=residues: self.check(raw, m, res),
                    )
                )
        rng.shuffle(ops)
        return ops

    def document(self, modulus: int, residues: list[int]) -> dict:
        sets = [{"kind": "periodic", "progressions": [[r, modulus]]} for r in residues]
        return {
            "version": 1,
            "space": {"kind": "nat-line"},
            "queries": {"bunch": [{"sets": sets}]},
            "budgets": {"scale": self.params["scale"], "window": self.params["window"]},
        }

    def check(self, raw: tuple[int, str], modulus: int, residues: list[int]) -> tuple[bool, dict]:
        code, out = raw
        try:
            cert = json.loads(out)["details"][0]["certificate"]
        except (ValueError, KeyError, IndexError, TypeError):
            return False, {"exit": code, "output": out[:200]}
        return code == 0 and not certificate_problems(
            cert, modulus, residues, self.params["scale"], self.params["window"]
        ), {"exit": code, "certificate": cert}


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def certificate_problems(
    cert: dict, modulus: int, residues: list[int], scale: int, window: int
) -> list[str]:
    """What a bunch certificate for the classes ``residues mod modulus``
    gets wrong, judged without the package: complete coverage, one check
    per (scale, side), witnesses on the pivot inside the window guard,
    and a refiner scale equal to the residue spread."""
    problems = []
    family = [s.get("progressions") for s in cert.get("family", [])]
    if family != [[[r, modulus]] for r in residues]:
        problems.append("family differs from the query")
    if cert.get("scale_budget") != scale or cert.get("window") != window:
        problems.append("budget differs from the query")
    if cert.get("coverage", {}).get("outcome") != "yes":
        problems.append("coverage not confirmed")
    if cert.get("refiner_scale") != residue_hausdorff(residues):
        problems.append("refiner scale is not the family's Hausdorff distance")
    checks = cert.get("scale_checks", [])
    grid = {(k, s) for k in range(scale + 1) for s in (0, 1)}
    if len(checks) != len(grid) or {(c["scale"], c["side"]) for c in checks} != grid:
        problems.append("scale checks do not cover every (scale, side) once")
    for c in checks:
        k, point, dist = c["scale"], c["member_point"], c["distance_to_candidate"]
        if point % modulus != residues[0] or point > window - k:
            problems.append(f"scale {k}: witness {point} is not a guarded pivot point")
        if dist is not None and dist <= k:
            problems.append(f"scale {k}: candidate distance {dist} does not exceed the scale")
    return problems


# ---------------------------------------------------------------------------
# line-verify: re-checking stored certificates, some of them forged
# ---------------------------------------------------------------------------

# Forgeries that today's revalidate rejects, and the ones it still
# accepts because it trusts the family, refiner_scale and half fields.
REJECTED_KINDS = ("pivot", "side1", "member_point", "distance_to_candidate")
DEFECT_KINDS = ("family", "refiner_scale", "half1")
ALL_KINDS = DEFECT_KINDS + REJECTED_KINDS


def forge(doc: dict, kind: str) -> dict:
    """A copy of a certificate's JSON with one field made false."""
    out = copy.deepcopy(doc)
    if kind == "family":
        out["family"][1] = copy.deepcopy(out["family"][0])
    elif kind == "refiner_scale":
        out["refiner_scale"] += 999
    elif kind == "half1":
        out["half1"] = copy.deepcopy(out["half2"])
    elif kind == "pivot":
        out["pivot"] = copy.deepcopy(out["family"][1])
    elif kind == "side1":
        out["side1"] = lineset.naturals().to_json()
    elif kind == "member_point":
        out["scale_checks"][0]["member_point"] += 1
    elif kind == "distance_to_candidate":
        check = next(c for c in out["scale_checks"] if c["distance_to_candidate"] is not None)
        check["distance_to_candidate"] += 1
    else:
        raise ValueError(f"unknown forgery kind {kind!r}")
    return out


class LineVerify:
    name = "line-verify"
    tail_percentile = 75.0
    # Certificates for q = 1..6, one of each q forged: a quarter of 24.
    # Rejected forgeries are the cheapest operations, so the median falls
    # inside the q = 4 class and p75 inside the q = 2 class.
    defaults = {
        "scale": 32,
        "window": 10**4,
        "per_q": [5, 5, 4, 4, 3, 3],
        "k_max": 4,
        "forgery_kinds": list(REJECTED_KINDS),
    }

    def __init__(self, seed: int, workdir: str, **params) -> None:
        self.seed = seed
        self.params = {**self.defaults, **params}
        p = self.params
        rng = _rng(seed, self.name, "pool")
        self.pool = []
        for q, count in enumerate(p["per_q"], start=1):
            forged_slot = rng.randrange(count)
            for j in range(count):
                modulus, residues = draw_family(rng, q, p["k_max"])
                members = [lineset.arithmetic(r, modulus) for r in residues]
                doc = nearness_lab.bunch_obstruction(members, p["scale"], p["window"]).to_json()
                forgeries = {k: forge(doc, k) for k in p["forgery_kinds"]} if j == forged_slot else {}
                self.pool.append({"id": len(self.pool), "q": q, "doc": doc, "forgeries": forgeries})
        self.forged = [c["id"] for c in self.pool if c["forgeries"]]

    def forgeries_in_round(self, r: int) -> dict[int, str]:
        """Forged certificate id -> forgery kind, round-robin over the run."""
        kinds = self.params["forgery_kinds"]
        return {cid: kinds[(r * len(self.forged) + f) % len(kinds)] for f, cid in enumerate(self.forged)}

    def round(self, r: int) -> list[Op]:
        kind_of = self.forgeries_in_round(r)
        order = list(range(len(self.pool)))
        _rng(self.seed, self.name, r).shuffle(order)
        ops = []
        for cid in order:
            kind = kind_of.get(cid)
            doc = self.pool[cid]["forgeries"][kind] if kind else self.pool[cid]["doc"]
            ops.append(
                Op(
                    f"r{r}.c{cid}",
                    lambda doc=doc: nearness_lab.BunchObstruction.from_json(doc).revalidate(),
                    lambda raw, cid=cid, kind=kind: (
                        raw == (kind is None),
                        {"cert": cid, "forgery": kind, "revalidate": raw},
                    ),
                )
            )
        return ops

    def known_defect(self) -> dict[str, bool]:
        """Whether revalidate accepts each defect kind of forgery, on the
        cheapest certificate of the pool (untimed)."""
        doc = self.pool[-1]["doc"]
        return {
            k: nearness_lab.BunchObstruction.from_json(forge(doc, k)).revalidate()
            for k in DEFECT_KINDS
        }


# ---------------------------------------------------------------------------
# finite-sweep: closures and partitions on the 4-point universe
# ---------------------------------------------------------------------------


def set_partitions(n: int) -> list[list[int]]:
    """Every partition of {0..n-1}, as lists of block masks."""
    out = []

    def extend(i: int, blocks: list[int]) -> None:
        if i == n:
            out.append(sorted(blocks))
            return
        for j in range(len(blocks)):
            blocks[j] |= 1 << i
            extend(i + 1, blocks)
            blocks[j] &= ~(1 << i)
        blocks.append(1 << i)
        extend(i + 1, blocks)
        blocks.pop()

    extend(0, [])
    return out


def relabel_keys(keys, perm: list[int]) -> list[int]:
    """Family keys after moving point i to point perm[i]."""
    n = len(perm)
    image = [sum(1 << perm[i] for i in range(n) if s >> i & 1) for s in range(1 << n)]
    arr = np.fromiter(keys, dtype=np.int64)
    out = np.zeros_like(arr)
    for s in range(1 << n):
        out |= ((arr >> s) & 1) << image[s]
    return [int(k) for k in out]


# random_lsr draws the generator keys [32769, 5] from this seed, and their
# closure grows to all 65536 keys before close_lsr's cap check fires.
# About one random closure in 200 does that.  Round 0 always holds this
# one, so that peak RSS, a maximum over the run, does not depend on
# whether a seed happened to draw such a closure.
FULL_CLOSURE_SEED = 95


class FiniteSweep:
    name = "finite-sweep"
    tail_percentile = 95.0
    defaults = {"points": 4, "closures_per_round": 45, "cap": 8192}

    def __init__(self, seed: int, workdir: str, **params) -> None:
        self.seed = seed
        self.params = {**self.defaults, **params}
        self.universe = Universe(tuple("abcdefgh"[: self.params["points"]]))
        self.partitions = set_partitions(self.params["points"])

    def round(self, r: int) -> list[Op]:
        rng = _rng(self.seed, self.name, r)
        seeds = [rng.getrandbits(64) for _ in range(self.params["closures_per_round"])]
        if r == 0:
            seeds.append(FULL_CLOSURE_SEED)
        ops = [
            Op(f"r{r}.l{i}", lambda s=s: self.closure(s), self.check_closure)
            for i, s in enumerate(seeds)
        ]
        ops += [
            Op(
                f"r{r}.p{i}",
                lambda blocks=blocks: self.partition(blocks),
                lambda raw, blocks=blocks: self.check_partition(raw, blocks),
            )
            for i, blocks in enumerate(self.partitions)
        ]
        rng.shuffle(ops)
        return ops

    def closure(self, op_seed: int) -> dict:
        u, rng = self.universe, random.Random(op_seed)
        lsr = mining.random_lsr(u, rng, cap=self.params["cap"])
        if lsr is None:
            return {"over_cap": True}
        out = {
            "over_cap": False,
            "families": len(lsr.keys),
            "axioms": structures.check_lsr_axioms(lsr).passed,
        }
        regular, witness = structures.is_ls_regular(lsr)
        out.update(regular=regular, regular_witness=witness)
        if regular:
            reg = backends.regularize(lsr)
            out["two_determined"] = structures.is_a_lsr(reg)[0]
            out["idempotent"] = backends.regularize(reg).keys == reg.keys
        dom = backends.ExplicitBackend(lsr)
        dim = dimension.asdim_explicit(dom)
        perm = list(range(u.size))
        rng.shuffle(perm)
        inv = [perm.index(i) for i in range(u.size)]
        cod = backends.ExplicitBackend(structures.ExplicitLSR(u, relabel_keys(lsr.keys, perm)))
        eq = maps.is_ls_equivalence(
            maps.ExplicitMap(dom, cod, tuple(perm)), maps.ExplicitMap(cod, dom, tuple(inv))
        )
        out.update(
            asdim=dim.to_json(),
            permutation=perm,
            equivalence=eq.to_json(),
            relabelled_asdim=dimension.asdim_explicit(cod).value,
        )
        return out

    @staticmethod
    def check_closure(raw: dict) -> tuple[bool, dict]:
        if raw["over_cap"]:
            return True, raw
        ok = raw["axioms"] and raw["equivalence"]["outcome"] == "yes"
        ok = ok and raw["asdim"]["asdim"] == raw["relabelled_asdim"]
        if raw["regular"]:
            ok = ok and raw["two_determined"] and raw["idempotent"]
        return ok, raw

    def partition(self, blocks: list[int]):
        backend = backends.PartitionCoarseBackend(self.universe, blocks)
        return structures.check_nearness_axioms(backends.induced_nearness(backend))

    @staticmethod
    def check_partition(report, blocks: list[int]) -> tuple[bool, dict]:
        # the induced near collection fails exactly for two blocks of two
        expected = sorted(b.bit_count() for b in blocks) != [2, 2]
        record = {
            "blocks": blocks,
            "passed": report.passed,
            "failures": [{"axiom": f.axiom, "witness": f.witness} for f in report.failures()],
        }
        return report.passed == expected, record


WORKLOADS = {w.name: w for w in (LineCertify, LineVerify, FiniteSweep)}
