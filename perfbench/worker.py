"""One benchmark pass over one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload suite-default --seed 0 --mode plain

``run.py`` starts one worker per pass, one at a time, and reads the JSON
object on the worker's last stdout line.  Modes:

* ``setup``   import ``binomsums`` and load the three ``.wz`` fixtures only;
* ``plain``   set up, then run the workload untraced;
* ``spans``   the same with the span wrappers of ``tracer.py`` installed;
* ``count``   the same with the call counters of ``tracer.py``, for exact
  counts of hot private and stdlib calls.

The worker drives the package only through its public entry points and
checks every output before it reports: the exit code and the summary
counts against the rows, the row count, lhs == rhs on pass rows, and the
output digest against ``golden.json`` where that file knows the command.
A row whose verdict is not pass, or a rings check that overran its
deadline, is a failed operation.  A run whose output fails a consistency
check or the digest, or a rings check that did not come out zero or equal,
counts every one of its operations as failed: every rings check is an
identity, so a wrong value there is wrong output.  Times are in
reference seconds (see ``refclock.py``) except in the count pass.  The
options after ``--mode`` exist for ``run.py`` and the benchmark's tests.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import re
import resource
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path

from refclock import Overrun, RefClock

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("suite-default", "wz-deep", "rings")
MODES = ("setup", "plain", "spans", "count")

SAMPLES = 20                 # the CLI default draws per entry and per pair
WZ_DEEP_N_MAX = 20

# rings: catalog evaluators over RatFunc and Jet2 instead of Fraction
RATFUNC_N = (4, 8, 12)
ID15_EXTRA_N = (16, 18, 20, 22, 24)     # n = 20 sits on the poly_gcd cliff
ORACLE_IDS = ("ID11", "ID16", "ID17", "ID18", "ID22", "ID24", "ID25", "ID26")
ORACLE_N_MAX = 50
ID15_DRAWS = 5
ID15_ORACLE_N_MAX = 30
# The slowest check off the cliff, ID02 at n = 12, takes 1.6-1.8 reference
# seconds (1.9-3.5 s of wall time on a loaded 2-core host); the deadline
# sits well above it, so only the cliff trips.
DEADLINE_S = 8.0


def setup(mode: str):
    """Import the package and load its fixtures; returns (start, end, tracer)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import binomsums
    import binomsums.cli  # noqa: F401  (the CLI workloads call it)
    tracer = None
    if mode == "spans":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    binomsums.builtin_pairs()
    end = time.perf_counter()
    if not Path(binomsums.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"binomsums imported from {binomsums.__file__}, not {SRC}")
    return start, end, tracer


def apply_mutation(spec: str) -> None:
    """A documented negative control, applied through the public registries."""
    from binomsums.catalog import entries
    from binomsums.exact import parse_rational
    from binomsums import wz

    if spec in entries.MUTATIONS:
        entries.REGISTRY.update(entries.apply_mutations((spec,)))
        return
    if not spec.startswith("scale-cert:"):
        raise SystemExit(f"unknown mutation {spec!r}")
    factor = parse_rational(spec.split(":", 1)[1])
    original = wz.builtin_pairs
    scaled = {name: pair.scaled(factor) for name, pair in original().items()}
    for module in list(sys.modules.values()):
        if getattr(module, "builtin_pairs", None) is original:
            module.builtin_pairs = lambda: dict(scaled)


# ---------------------------------------------------------------------------
# suite-default and wz-deep: the CLI, output captured
# ---------------------------------------------------------------------------

def cli_argv(workload: str, seed: int, n_max: int | None) -> list[str]:
    if workload == "suite-default":
        argv = ["suite", "--format", "json", "--seed", str(seed)]
        return argv if n_max is None else argv + ["--n-max", str(n_max)]
    depth = WZ_DEEP_N_MAX if n_max is None else n_max
    return ["wz", "--n-max", str(depth), "--format", "json", "--seed", str(seed)]


def run_cli(argv: list[str]) -> dict:
    from binomsums import cli

    out = io.StringIO()
    code = cli.main(argv, out=out)
    return {"code": code, "text": out.getvalue()}


def expected_catalog_rows(n_max: int | None) -> int:
    from binomsums import REGISTRY

    return sum(((e.n_max if n_max is None else n_max) + 1) * (SAMPLES if e.params.names else 1)
               for e in REGISTRY.values())


def check_cli(workload: str, n_max: int | None, outcome: dict) -> dict:
    """Rows that are not pass are failed operations; an inconsistent report
    is a correctness problem."""
    text, code = outcome["text"], outcome["code"]
    try:
        report = json.loads(text)
        rows, summary = report["results"], report["summary"]
    except (ValueError, KeyError, TypeError) as exc:
        return {"attempted": 1, "failed": 1, "failures": [], "overruns": [],
                "problems": [f"unreadable report: {exc}"], "text": text}
    status = Counter(row["status"] for row in rows)
    failures = [f"{row['id']} n={row['n']} {row['params']}: {row['status']} ({row['reason']})"
                for row in rows if row["status"] != "pass"]
    problems = []
    if summary != {"pass": status["pass"], "fail": status["fail"],
                   "skipped": status["skipped"]}:
        problems.append("summary counts do not match the rows")
    if code != (1 if status["fail"] else 0):
        problems.append(f"exit code {code} with {status['fail']} fail rows")
    per_id = Counter(row["id"] for row in rows)
    if workload == "suite-default":
        catalog = sum(v for k, v in per_id.items() if not k.startswith("WZ-"))
        if catalog != expected_catalog_rows(n_max):
            problems.append(f"{catalog} catalog rows, expected {expected_catalog_rows(n_max)}")
    for pair in ("WZ-thm1", "WZ-thm2", "WZ-thm3"):
        # the symbolic row plus at least one row per parameter draw
        if per_id[pair] < 1 + SAMPLES:
            problems.append(f"{per_id[pair]} rows for {pair}, expected at least {1 + SAMPLES}")
    unequal = sum(1 for row in rows if row["status"] == "pass" and row["lhs"] != row["rhs"])
    if unequal:
        problems.append(f"{unequal} pass rows with lhs != rhs")
    return {"attempted": max(len(rows), 1), "failed": len(failures),
            "failures": failures[:50], "overruns": [], "problems": problems, "text": text}


# ---------------------------------------------------------------------------
# rings: RatFunc differences, certificate residuals, the jet oracle
# ---------------------------------------------------------------------------

def _symbolic_params(entry) -> dict:
    """Each parameter as a RatFunc variable; names outside the fixed
    variable list (x, y, lam) take the next unused parameter variable."""
    from binomsums.poly import RatFunc, VARS

    spare = [v for v in VARS[3:] if v not in entry.params.names]
    return {name: RatFunc.var(name if name in VARS else spare.pop(0))
            for name in entry.params.names}


def _ratfunc_check(entry_id: str, n: int):
    from binomsums.catalog import entries

    entry = entries.REGISTRY[entry_id]
    values = _symbolic_params(entry)
    for j in (range(n + 1) if entry.inner_index else (None,)):
        point = dict(values)
        if j is not None:
            point[entry.inner_index] = j
        difference = entry.lhs(n, point) - entry.rhs(n, point)
        if not difference.is_zero:
            return False, difference.render()
    return True, "0"


def _residual_check(name: str):
    from binomsums import wz

    residual = wz.certificate_residual(wz.builtin_pairs()[name])
    return residual.is_zero, residual.render()


def _oracle_check(entry_id: str, n: int, params: dict):
    from binomsums.catalog import jets_oracle
    from binomsums.exact import render_rational

    left, right = jets_oracle.oracle(entry_id, n, **params)
    return left == right, f"{render_rational(left)} {render_rational(right)}"


def rings_plan(seed: int, n_max: int | None) -> list:
    """(name, check) pairs; a check returns (ok, rendered value)."""
    from binomsums.catalog import entries
    from binomsums.wz import PAIR_NAMES

    def upto(ns):
        return [n for n in ns if n_max is None or n <= n_max]

    plan = []
    for entry in entries.REGISTRY.values():
        if entry.params.names:
            for n in upto(RATFUNC_N):
                plan.append((f"ratfunc:{entry.id}:{n}", partial(_ratfunc_check, entry.id, n)))
    for name in PAIR_NAMES:
        plan.append((f"residual:{name}", partial(_residual_check, name)))
    for entry_id in ORACLE_IDS:
        for n in upto(range(ORACLE_N_MAX + 1)):
            plan.append((f"oracle:{entry_id}:{n}", partial(_oracle_check, entry_id, n, {})))
    draws = entries.draw_for_entry(entries.REGISTRY["ID15"], seed, ID15_DRAWS,
                                   ID15_ORACLE_N_MAX)
    for draw in draws:
        for n in upto(range(ID15_ORACLE_N_MAX + 1)):
            plan.append((f"oracle:ID15:{n}:s={draw['s']}",
                         partial(_oracle_check, "ID15", n, {"s": draw["s"]})))
    # last, so that the memory measured before the cliff covers the rest
    for n in upto(ID15_EXTRA_N):
        plan.append((f"ratfunc:ID15:{n}", partial(_ratfunc_check, "ID15", n)))
    return plan


def _within_deadline(check, clock, deadline: float | None):
    """The check's result, or None when the deadline passed first."""
    if deadline is None:
        return check()
    try:
        clock.arm(deadline)
        try:
            return check()
        finally:
            clock.disarm()
    except Overrun:
        return None


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rings(seed: int, n_max: int | None, clock, deadline: float | None,
              skip: frozenset, tracer) -> dict:
    """Every check of the plan.  The peak memory is taken before the first
    check that overran: how much a cut check had allocated depends on where
    the cut fell, and the cliff's memory grows in 5 MB steps."""
    lines, overruns, failures, wrong, times = [], [], [], [], {}
    peak = None
    plan = rings_plan(seed, n_max)
    for name, check in plan:
        if name in skip:
            overruns.append(name)
            continue
        before = _peak_rss_mb()
        if tracer is not None:
            check = tracer.wrap("rings.check", check, tag=name)
        start = time.perf_counter()
        try:
            result = _within_deadline(check, clock, deadline)
        except Exception as exc:      # one broken check must not end the run
            result = False, f"error {type(exc).__name__}: {exc}"
        times[name] = elapsed(clock, start, time.perf_counter())
        if result is None:
            overruns.append(name)
            failures.append(f"{name}: deadline overrun after {times[name]:.2f} s")
            peak = before if peak is None else peak
            continue
        ok, value = result
        if not ok:
            wrong.append(f"{name}: not zero or sides differ ({value[:200]})")
        lines.append(f"{name} {value}")
    return {"plan": len(plan), "lines": lines, "overruns": overruns,
            "failures": failures, "wrong": wrong, "times": times,
            "peak_rss_mb": _peak_rss_mb() if peak is None else peak}


def check_rings(outcome: dict) -> dict:
    """Overruns are failed operations and checks that did not come out zero
    are correctness problems; the rendered values go into the output digest."""
    times, overruns = outcome["times"], outcome["overruns"]
    completed = {name: t for name, t in times.items() if name not in overruns}
    slowest = sorted(completed.items(), key=lambda item: -item[1])[:5]
    skipped = [name for name in overruns if name not in times]
    return {"attempted": outcome["plan"],
            "failed": len(outcome["failures"]) + len(skipped),
            "failures": outcome["failures"] + [f"{name}: not run (overran untraced)"
                                               for name in skipped],
            "overruns": overruns, "problems": outcome["wrong"],
            "text": "\n".join(outcome["lines"]) + "\n",
            "peak_rss_mb": outcome["peak_rss_mb"],
            "max_check_s": max(completed.values(), default=0.0),
            "overrun_s": sum(times.get(name, 0.0) for name in overruns),
            "slowest_checks": [[name, round(t, 4)] for name, t in slowest]}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def golden_key(workload: str, seed: int, n_max: int | None) -> str:
    if workload == "rings":
        key = f"rings --seed {seed}"
        return key if n_max is None else f"{key} --n-max {n_max}"
    return " ".join(cli_argv(workload, seed, n_max))


def compare_golden(path: Path, key: str, digest: str, overruns: list) -> str:
    """'match', 'mismatch', or 'unknown' when the file has no such entry (or
    recorded it with other deadline overruns, which change the checks run)."""
    try:
        table = json.loads(path.read_text())
    except FileNotFoundError:
        return "unknown"
    entry = table.get(key)
    if entry is None or sorted(entry["overruns"]) != sorted(overruns):
        return "unknown"
    return "match" if entry["sha256"] == digest else "mismatch"


def elapsed(clock, start: float, end: float) -> float:
    """Reference seconds when a clock runs, raw seconds otherwise."""
    return end - start if clock is None else clock.ref_seconds(start, end)


def max_bits(text: str) -> int:
    """Largest bit-length of any integer written in the output."""
    return max((int(digits).bit_length() for digits in re.findall(r"\d+", text)),
               default=0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, default="plain")
    parser.add_argument("--n-max", type=int, default=None, dest="n_max",
                        help="shrink the workload (tests only)")
    parser.add_argument("--mutate", default=None, help="negative control to apply")
    parser.add_argument("--deadline", type=float, default=DEADLINE_S,
                        help="per-check deadline of the rings workload, in reference seconds")
    parser.add_argument("--skip", default="",
                        help="comma-separated rings checks to count as overruns unrun")
    parser.add_argument("--golden", default=str(GOLDEN))
    parser.add_argument("--spans-out", default=None,
                        help="file for the raw spans (spans mode)")
    args = parser.parse_args(argv)

    # the count pass runs without the clock: its calibration loop would add
    # to the exact call counts
    clock = None if args.mode == "count" else RefClock()
    if clock is not None:
        clock.start()
    setup_start, setup_end, tracer = setup(args.mode)
    result = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "setup_s": elapsed(clock, setup_start, setup_end),
              "setup_raw_s": setup_end - setup_start}
    if args.mode == "setup":
        clock.stop()
        print(json.dumps(result))
        return 0
    if args.mutate:
        apply_mutation(args.mutate)

    if args.workload == "rings":
        # traced passes run without a deadline: they skip what overran untraced
        deadline = args.deadline if args.mode == "plain" else None
        skip = frozenset(filter(None, args.skip.split(",")))
        work = partial(run_rings, args.seed, args.n_max, clock, deadline, skip, tracer)
    else:
        work = partial(run_cli, cli_argv(args.workload, args.seed, args.n_max))
    if tracer is not None:
        first_span = len(tracer.spans)          # the spans before are set-up
        work = tracer.wrap("bench.workload", work)

    counter = None
    if args.mode == "count":
        from tracer import CallCounter
        counter = CallCounter()
        counter.install()
    start = time.perf_counter()
    outcome = work()
    end = time.perf_counter()
    if clock is not None:
        clock.stop()
    peak_rss_mb = _peak_rss_mb()            # before the checks below allocate

    if args.workload == "rings":
        checked = check_rings(outcome)
    else:
        checked = check_cli(args.workload, args.n_max, outcome)
    text = checked.pop("text")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    key = golden_key(args.workload, args.seed, args.n_max)
    golden = compare_golden(Path(args.golden), key, digest, checked["overruns"])
    if golden == "mismatch":
        checked["problems"].append(f"output digest {digest} differs from golden.json[{key!r}]")
    correct = not checked["problems"]
    if not correct:
        checked["failed"] = checked["attempted"]
    result.update(checked)
    result.update({
        "wall_s": end - start, "wall_ref_s": elapsed(clock, start, end),
        "peak_rss_mb": checked.get("peak_rss_mb", peak_rss_mb), "correct": correct,
        "digest": digest, "golden_key": key, "golden": golden,
        "report_bytes": len(text.encode("utf-8")) if args.workload != "rings" else 0,
        "max_bits": max_bits(text),
    })
    if tracer is not None:
        result["trace"] = tracer.summary(first_span, clock.ref_time)
        if args.spans_out:
            tracer.write(args.spans_out)
    if counter is not None:
        result["counts"] = dict(counter.counts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
