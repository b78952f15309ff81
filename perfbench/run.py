"""The binomsums benchmark: one workload, timed or traced.

    python3 perfbench/run.py --workload suite-default --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload rings --seed 0 --seconds 15 --trace 1

Run from the root of a source checkout.  Every pass is a fresh
single-threaded interpreter (``worker.py``), started one at a time.

``--trace 0`` starts ``SETUP_REPEATS`` set-up-only interpreters and then
one untraced pass, and reports the end-to-end metrics; ``setup_s`` is the
median over all of them.  ``--seconds`` is accepted for the benchmark's
command line, but a run always makes that one pass: a pass takes 10-20
reference seconds, as long as the 15 s the benchmark's command passes.  ``--trace 1`` makes
three passes, one untraced, one with spans and one with call counters, and
reports the per-layer metrics with the tracing overhead.  Times are
reference seconds (see ``refclock.py``).  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it repeat the metrics for a reader, with the raw wall time
and ``fail_frac``.  Each run also writes a record, with the machine's
metadata and every output digest, under ``perfbench/out/``; a new digest
for ``golden.json`` is copied from such a record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("suite-default", "wz-deep", "rings")
SETUP_REPEATS = 12         # set-up-only interpreters per timed run
RUN_BUDGET_S = 175.0       # a run must end within 180 s

ENTRY_IDS = tuple(f"ID{i:02d}" for i in range(1, 27)) + ("ID20E",)
LAYERS = ("catalog", "suite", "exact", "wz", "expr", "hyperterm", "poly",
          "jets", "legendre", "cli", "rings", "bench")

END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "fraction"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        "catalog.check_identity.calls": "count",
        "catalog.check_identity.s": "s",
        "catalog.lhs.s": "s",
        "catalog.rhs.s": "s",
    }
    units.update({f"catalog.entry.{eid}.s": "s" for eid in ENTRY_IDS})
    units.update({
        "catalog.draw.accept_ratio": "fraction",
        "exact.binom_poly.calls": "count",
        "exact.binom_upper_shift.calls": "count",
        "exact.harmonic.calls": "count",
        "exact.digamma_diff.calls": "count",
        "exact.s": "s",
        "scalar.fraction_new.calls": "count",
        "scalar.int_gcd.calls": "count",
        "scalar.max_bits": "bits",
        "wz.certificate_residual.calls": "count",
        "wz.certificate_residual.s": "s",
        "wz.verify_wz_pair.s": "s",
        "wz.telescoping_sum_check.s": "s",
        "wz.pair.thm1.s": "s",
        "wz.pair.thm2.s": "s",
        "wz.pair.thm3.s": "s",
        "hyperterm.evaluate.calls": "count",
        "hyperterm.evaluate.s": "s",
        "hyperterm.shift_ratio.s": "s",
        "poly.poly_gcd.calls": "count",
        "poly.poly_gcd.s": "s",
        "poly.gcd.monomial.calls": "count",
        "poly.gcd.heuristic.calls": "count",
        "poly.gcd.prs_fallback.calls": "count",
        "poly.gcd.heuristic_ratio": "fraction",
        "poly.ratfunc_new.calls": "count",
        "rings.check.max_s": "s",
        "rings.deadline_overruns": "count",
        "expr.parse_pair_file.s": "s",
        "jets.oracle.calls": "count",
        "jets.oracle.s": "s",
        "legendre.s": "s",
        "cli.report_json.s": "s",
        "cli.report_bytes": "bytes",
        "fail_frac": "fraction",
    })
    units.update({f"layer.{layer}.self_s": "s" for layer in LAYERS})
    units.update({"trace.wall_ref_s": "s", "trace.untraced_wall_ref_s": "s",
                  "trace.overhead_ref_s": "s", "trace.spans": "count",
                  "wall_s": "s", "speed.load_factor": "ratio"})
    return units


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, mode: str, ends_at: float,
               extra: tuple[str, ...] = ()) -> dict:
    """One pass in a fresh interpreter; its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, *extra]
    timeout = max(1.0, ends_at - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} pass did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} pass exited {proc.returncode}: {proc.stderr[-3000:]}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# Metadata
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "loadavg_at_start": os.getloadavg(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ---------------------------------------------------------------------------
# Timed and traced runs
# ---------------------------------------------------------------------------

def timed_run(workload: str, seed: int, ends_at: float) -> dict:
    run_worker(workload, seed, "setup", ends_at)      # warms the bytecode cache
    setups = [run_worker(workload, seed, "setup", ends_at) for _ in range(SETUP_REPEATS)]
    plain = run_worker(workload, seed, "plain", ends_at)
    attempted, failed = plain["attempted"], plain["failed"]
    metrics = {
        "wall_ref_s": plain["wall_ref_s"],
        "setup_s": statistics.median([r["setup_s"] for r in setups + [plain]]),
        "peak_rss_mb": plain["peak_rss_mb"],
        "ok_frac": 1 - failed / attempted,
    }
    # raw wall time and fail_frac are printed for a reader, not gated: raw
    # times on a loaded host spread too far (see refclock.py)
    extra = {"wall_s": (plain["wall_s"], "s"), "fail_frac": (failed / attempted, "fraction")}
    return {"passes": [plain], "setups": [r["setup_s"] for r in setups],
            "problems": plain["problems"], "attempted": attempted, "failed": failed,
            "metrics": metrics, "units": END_TO_END_UNITS, "extra": extra}


def layer_metrics(plain: dict, spans: dict, counted: dict) -> dict:
    trace, counts = spans["trace"], counted["counts"]
    calls, inclusive = trace["calls"], trace["inclusive_s"]
    name_tag, layer_tag = trace["name_tag_s"], trace["layer_tag_s"]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    m = {
        "catalog.check_identity.calls": calls.get("catalog.check_identity", 0),
        "catalog.check_identity.s": inclusive.get("catalog.check_identity", 0.0),
        "catalog.lhs.s": inclusive.get("catalog.lhs", 0.0),
        "catalog.rhs.s": inclusive.get("catalog.rhs", 0.0),
    }
    for eid in ENTRY_IDS:
        m[f"catalog.entry.{eid}.s"] = (name_tag.get(f"catalog.lhs#{eid}", 0.0)
                                       + name_tag.get(f"catalog.rhs#{eid}", 0.0))
    m["catalog.draw.accept_ratio"] = ratio(trace["draw_accepted"], trace["draw_tries"])
    for fn in ("binom_poly", "binom_upper_shift", "harmonic", "digamma_diff"):
        m[f"exact.{fn}.calls"] = calls.get(f"exact.{fn}", 0)
    m["exact.s"] = trace["layer_inclusive_s"].get("exact", 0.0)
    m["scalar.fraction_new.calls"] = counts.get("fraction_new", 0)
    m["scalar.int_gcd.calls"] = counts.get("int_gcd", 0)
    m["scalar.max_bits"] = plain["max_bits"]
    m["wz.certificate_residual.calls"] = calls.get("wz.certificate_residual", 0)
    for fn in ("certificate_residual", "verify_wz_pair", "telescoping_sum_check"):
        m[f"wz.{fn}.s"] = inclusive.get(f"wz.{fn}", 0.0)
    for pair in ("thm1", "thm2", "thm3"):
        m[f"wz.pair.{pair}.s"] = layer_tag.get(f"wz#{pair}", 0.0)
    m["hyperterm.evaluate.calls"] = calls.get("hyperterm.evaluate", 0)
    m["hyperterm.evaluate.s"] = inclusive.get("hyperterm.evaluate", 0.0)
    m["hyperterm.shift_ratio.s"] = inclusive.get("hyperterm.shift_ratio", 0.0)
    m["poly.poly_gcd.calls"] = calls.get("poly.poly_gcd", 0)
    m["poly.poly_gcd.s"] = inclusive.get("poly.poly_gcd", 0.0)
    m["poly.gcd.monomial.calls"] = calls.get("poly.poly_gcd#monomial", 0)
    heuristic, fallback = counts.get("heuristic", 0), counts.get("prs_fallback", 0)
    m["poly.gcd.heuristic.calls"] = heuristic
    m["poly.gcd.prs_fallback.calls"] = fallback
    m["poly.gcd.heuristic_ratio"] = ratio(heuristic - fallback, heuristic)
    m["poly.ratfunc_new.calls"] = counts.get("ratfunc_new", 0)
    m["rings.check.max_s"] = plain.get("max_check_s", 0.0)
    m["rings.deadline_overruns"] = len(plain["overruns"])
    m["expr.parse_pair_file.s"] = trace["setup_inclusive_s"].get("expr.parse_pair_file", 0.0)
    m["jets.oracle.calls"] = calls.get("jets.oracle", 0)
    m["jets.oracle.s"] = inclusive.get("jets.oracle", 0.0)
    m["legendre.s"] = trace["layer_inclusive_s"].get("legendre", 0.0)
    m["cli.report_json.s"] = inclusive.get("cli.report_json", 0.0)
    m["cli.report_bytes"] = plain["report_bytes"]
    m["fail_frac"] = plain["failed"] / plain["attempted"]
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = trace["layer_self_s"].get(layer, 0.0)
    # the traced passes skip the checks that overran untraced, so compare
    # against the untraced time without them
    untraced = plain["wall_ref_s"] - plain.get("overrun_s", 0.0)
    m["trace.wall_ref_s"] = spans["wall_ref_s"]
    m["trace.untraced_wall_ref_s"] = untraced
    m["trace.overhead_ref_s"] = spans["wall_ref_s"] - untraced
    m["trace.spans"] = trace["spans"]
    m["wall_s"] = plain["wall_s"]
    m["speed.load_factor"] = plain["wall_s"] / plain["wall_ref_s"]
    return m


def traced_run(workload: str, seed: int, ends_at: float) -> dict:
    OUT.mkdir(exist_ok=True)
    run_worker(workload, seed, "setup", ends_at)      # warms the bytecode cache
    plain = run_worker(workload, seed, "plain", ends_at)
    skip = ("--skip", ",".join(plain["overruns"]))
    spans_file = OUT / f"spans-{workload}-seed{seed}.tsv"
    spans = run_worker(workload, seed, "spans", ends_at,
                       skip + ("--spans-out", str(spans_file)))
    counted = run_worker(workload, seed, "count", ends_at, skip)
    passes = [plain, spans, counted]
    problems = [p for r in passes for p in r["problems"]]
    if len({r["digest"] for r in passes}) > 1:
        problems.append("output digests differ between passes with the same seed")
    attempted = sum(r["attempted"] for r in passes)
    failed = attempted if problems else sum(r["failed"] for r in passes)
    metrics = layer_metrics(plain, spans, counted)
    spans.pop("trace")      # in the spans file; too large for the run record
    return {"passes": passes, "problems": problems, "attempted": attempted,
            "failed": failed, "metrics": metrics, "units": per_layer_units(), "extra": {}}


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    ends_at = started + RUN_BUDGET_S
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="accepted for the benchmark's command line; a run makes one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "binomsums" / "__init__.py").is_file():
        print(f"error: no binomsums sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        meta = metadata(args.seed)
        if args.trace:
            run = traced_run(args.workload, args.seed, ends_at)
        else:
            run = timed_run(args.workload, args.seed, ends_at)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "metadata": meta,
              "elapsed_s": time.monotonic() - started, **run}
    record_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=1) + "\n")

    correct = not run["problems"]
    print(f"{args.workload} seed {args.seed}: {len(run['passes'])} passes, "
          f"{run['attempted']} operations, {run['failed']} failed, "
          f"fail_frac {run['failed'] / run['attempted']:.6g}, "
          f"nproc {meta['nproc']}, load {meta['loadavg_at_start'][0]:.2f}")
    for problem in run["problems"][:20]:
        print(f"  problem: {problem}")
    for r in run["passes"]:
        print(f"  {r['mode']:<8} digest {r['digest'][:16]} golden {r['golden']}"
              + (f" overruns {r['overruns']}" if r["overruns"] else ""))
    for name, value in run["metrics"].items():
        print(f"  {name:<34} {value:.6g} {run['units'][name]}")
    for name, (value, unit) in run["extra"].items():
        print(f"  {name:<34} {value:.6g} {unit}   (not gated)")
    print(f"  record: {record_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": run["units"][name]}
                    for name, value in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
