"""coarselab benchmark: one seeded workload per run, every output checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload line-certify --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
traced run that gives the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it, starting with
``record``, holds every figure with its provenance.  ``--workload all``
runs each workload in a process of its own and prints one table.
See README.md in this directory for the workloads, the metrics and the
layer predictions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("line-certify", "line-verify", "finite-sweep")
# Set-up samples per run, half taken before the timed loop and half after.
SETUP_REPEATS = 10
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "failed_frac": "frac",
    "peak_rss_mb": "MB",
}
# failed_frac is 0 on a healthy run, so the gated result line leaves it
# out; it is printed with the others and kept in the record.
GATED = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")


def import_program() -> None:
    """Import coarselab from this checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import coarselab
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import coarselab from {src}: {e}")
    if Path(coarselab.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: coarselab was imported from {coarselab.__file__}")


@dataclass
class LoopResult:
    rounds: int = 0
    wall_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    digest: str = ""
    first_round_digest: str = ""

    @property
    def ops(self) -> int:
        return len(self.latencies_s)

    @property
    def rate(self) -> float:
        return self.ops / self.wall_s


def timed_loop(workload, seconds: float | None = None, rounds: int | None = None, tracer=None) -> LoopResult:
    """Run whole rounds until ``seconds`` have passed, or exactly
    ``rounds`` rounds; time each operation and check it."""
    res = LoopResult()
    digest = hashlib.sha256()
    start = round_start = perf_counter()
    while True:
        for op in workload.round(res.rounds):
            if tracer is not None:
                tracer.begin_op(res.ops)
            t0 = perf_counter()
            try:
                raw = op.program()
                error = None
            except Exception as e:  # the operation failed; count it and go on
                error = f"{type(e).__name__}: {e}"
            res.latencies_s.append(perf_counter() - t0)
            if error is None:
                ok, record = op.oracle(raw)
            else:
                ok, record = False, {"raised": error}
            if not ok:
                res.failures.append({"op": op.op_id, **record})
            digest.update(json.dumps([op.op_id, record], sort_keys=True, default=str).encode())
        res.rounds += 1
        now = perf_counter()
        res.round_s.append(now - round_start)
        round_start = now
        if res.rounds == 1:
            res.first_round_digest = digest.hexdigest()
        if rounds is not None:
            if res.rounds >= rounds:
                break
        elif now - start >= seconds:
            break
    res.wall_s = perf_counter() - start
    res.digest = digest.hexdigest()
    return res


def make_workload(name: str, seed: int, workdir: str):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, workdir)


def setup_samples(args, count: int) -> list[float]:
    """Wall time from starting a fresh process to its first operation
    being ready, measured ``count`` times."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(count):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed (exit {code})")
        samples.append(elapsed)
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, workload) -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def loop_summary(res: LoopResult) -> dict:
    return {
        "ops": res.ops,
        "rounds": res.rounds,
        "wall_s": res.wall_s,
        "round_s": res.round_s,
        "failed": len(res.failures),
        "failures": res.failures[:20],
        "verdicts_sha256": res.digest,
        "first_round_verdicts_sha256": res.first_round_digest,
    }


def end_to_end(args, workload) -> tuple[dict, dict, list[LoopResult]]:
    import numpy as np
    from benchstats import tail

    # Set-ups before and after the loop, so that a short burst of load
    # on the machine moves the median less.
    setups = setup_samples(args, SETUP_REPEATS // 2)
    res = timed_loop(workload, seconds=args.seconds)
    setups += setup_samples(args, SETUP_REPEATS - SETUP_REPEATS // 2)
    lat_ms = [t * 1000.0 for t in res.latencies_s]
    tl = tail(lat_ms, workload.tail_percentile)
    metrics = {
        "setup_s": float(np.median(setups)),
        "ops_per_s": res.rate,
        "op_p50_ms": float(np.median(lat_ms)),
        "op_tail_ms": tl["value"],
        "failed_frac": len(res.failures) / res.ops,
        "peak_rss_mb": peak_rss_mb(),
    }
    record = {
        "setup_samples_s": setups,
        "op_tail": {k: tl[k] for k in ("percentile", "beyond", "samples", "short")},
        **loop_summary(res),
    }
    if hasattr(workload, "known_defect"):
        record["known_defect_accepts"] = workload.known_defect()
    return metrics, record, [res]


def bypass_violations(name: str, layer: dict) -> list[str]:
    """Layers a workload must never call: the lineset on finite-sweep,
    the bit-sweep kernels on the line workloads."""
    prefix = "lineset." if name == "finite-sweep" else "_bitops."
    return [k for k, v in layer.items() if k.startswith(prefix) and k.endswith(".calls") and v]


def traced(args, workload) -> tuple[dict, dict, list[LoopResult]]:
    from probes import run_probes
    from tracer import Tracer

    base = timed_loop(workload, seconds=args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        res = timed_loop(workload, rounds=base.rounds, tracer=tracer)
    finally:
        tracer.restore()
    layer = tracer.layer_metrics(res.latencies_s)
    layer["trace.overhead_frac"] = 1.0 - res.rate / base.rate
    layer.update(run_probes())
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    record = {
        "untraced": loop_summary(base),
        "traced": loop_summary(res),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "bypass_violations": bypass_violations(args.workload, layer),
    }
    return layer, record, [base, res]


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def run_one(args) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        if args.trace:
            values, record, loops = traced(args, workload)
            units = {k: layer_unit(k) for k in values}
        else:
            values, record, loops = end_to_end(args, workload)
            units = END_TO_END_UNITS
        record["provenance"] = provenance(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.ops for r in loops)
    failed = sum(len(r.failures) for r in loops)
    print_table(args, values, units, record)
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print("record " + json.dumps(record, sort_keys=True, default=str))
    shown = values if args.trace else {k: values[k] for k in GATED}
    result = {
        "correct": failed == 0 and not record.get("bypass_violations"),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }
    print(json.dumps(result))
    return 0


def print_table(args, values: dict, units: dict, record: dict) -> None:
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in values.items():
        note = ""
        if name == "setup_s":
            note = f"median of {len(record['setup_samples_s'])} set-ups"
        elif name == "op_p50_ms":
            note = f"{record['ops']} samples"
        elif name == "op_tail_ms":
            t = record["op_tail"]
            note = f"p{t['percentile']:g}, {t['beyond']} of {t['samples']} beyond"
            if t["short"]:
                note += " (SHORT: fewer than 10 beyond)"
        elif name == "failed_frac":
            note = f"{record['failed']} of {record['ops']}"
        print(f"  {name:<58} {value:>14.6g} {units[name]:<6} {note}")
    if "known_defect_accepts" in record:
        accepted = [k for k, v in record["known_defect_accepts"].items() if v]
        print(f"  known defect: revalidate accepts forged {', '.join(accepted) or 'nothing'}")
    if record.get("bypass_violations"):
        print(f"  BYPASS CHECK FAILED: {record['bypass_violations']}")


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    rows: dict[str, dict] = {}
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(out.stderr, file=sys.stderr)
            return out.returncode or 1
        print("\n".join(line for line in lines if not line.startswith(("record ", "{"))))
        record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
        ok = ok and json.loads(lines[-1])["correct"]
        rows[name] = record["metrics"]
    names = list(rows[WORKLOAD_NAMES[0]])
    print(f"\n{'metric':<58} {'unit':<6}" + "".join(f" {w:>14}" for w in WORKLOAD_NAMES))
    for metric in names:
        unit = rows[WORKLOAD_NAMES[0]][metric]["unit"]
        cells = "".join(f" {rows[w][metric]['value']:>14.6g}" for w in WORKLOAD_NAMES)
        print(f"{metric:<58} {unit:<6}{cells}")
    print(f"all oracles passed: {str(ok).lower()}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
