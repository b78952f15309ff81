"""Deterministic suite runner over the catalog and the certificate pairs.

A run is fully determined by (seed, n_max override, samples, filter,
mutations): parameter draws are seeded per entry id, rows are emitted in
(id, n, draw) order, and rationals are rendered in the canonical string
format, so repeated runs are byte-identical.

``SuiteReport.to_json`` writes the JSON report row by row from a fixed
template: its bytes are those of ``json.dumps(to_json_dict(), indent=2)``
(two-space indent, ASCII escapes through the same C escaper), without the
pure-Python encoder that ``indent`` selects and its list of chunks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _str

from ..exact import render_rational
from ..params import MAX_TRIES, draw
from ..wz import PAIR_NAMES, builtin_pairs, telescoping_sum_check, verify_wz_pair
from .entries import apply_mutations, check_identity, draw_for_entry

__all__ = ["SuiteConfig", "ResultRow", "SuiteReport", "run_catalog", "run_suite", "run_wz"]

WZ_N_MAX = 10


@dataclass(frozen=True)
class SuiteConfig:
    n_max: int | None = None          # None: per-entry defaults
    samples: int = 20
    seed: int = 0
    only: tuple[str, ...] = ()        # entry ids and/or pair names
    mutations: tuple[str, ...] = ()
    wz_scale: Fraction | None = None  # certificate scaling (negative control)


@dataclass(frozen=True)
class ResultRow:
    id: str
    params: dict[str, str]
    n: int | None
    lhs: str | None
    rhs: str | None
    status: str                        # pass | fail | skipped
    reason: str = ""


@dataclass
class SuiteReport:
    suite: str
    seed: int
    results: list[ResultRow] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for row in self.results:
            out[row.status] += 1
        return out

    @property
    def failed(self) -> bool:
        return any(row.status == "fail" for row in self.results)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "results": [
                {"id": r.id, "params": r.params, "n": r.n, "lhs": r.lhs,
                 "rhs": r.rhs, "status": r.status, "reason": r.reason}
                for r in self.results
            ],
            "summary": self.counts(),
        }

    def to_json(self) -> str:
        """The bytes of ``json.dumps(self.to_json_dict(), indent=2)``."""
        rows = []
        for r in self.results:
            params = ("{" + ",".join(f"\n        {_str(k)}: {_str(v)}"
                                     for k, v in r.params.items()) + "\n      }"
                      if r.params else "{}")
            rows.append(
                f'    {{\n      "id": {_str(r.id)},\n      "params": {params},\n'
                f'      "n": {"null" if r.n is None else int.__repr__(r.n)},\n'
                f'      "lhs": {"null" if r.lhs is None else _str(r.lhs)},\n'
                f'      "rhs": {"null" if r.rhs is None else _str(r.rhs)},\n'
                f'      "status": {_str(r.status)},\n'
                f'      "reason": {_str(r.reason)}\n    }}')
        results = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
        c = self.counts()
        return (f'{{\n  "suite": {_str(self.suite)},\n  "seed": {int.__repr__(self.seed)},\n'
                f'  "results": {results},\n  "summary": {{\n    "pass": {c["pass"]},\n'
                f'    "fail": {c["fail"]},\n    "skipped": {c["skipped"]}\n  }}\n}}')

    def render_text(self) -> str:
        lines = [f"suite: {self.suite}   seed: {self.seed}"]
        for r in self.results:
            params = ",".join(f"{k}={v}" for k, v in sorted(r.params.items())) or "-"
            n = "-" if r.n is None else str(r.n)
            lhs = "-" if r.lhs is None else r.lhs
            rhs = "-" if r.rhs is None else r.rhs
            line = f"{r.id:<9} n={n:<4} {params:<28} lhs={lhs} rhs={rhs} {r.status}"
            if r.reason:
                line += f"  ({r.reason})"
            lines.append(line)
        c = self.counts()
        lines.append(f"pass={c['pass']} fail={c['fail']} skipped={c['skipped']}")
        return "\n".join(lines)


def _selected(only: tuple[str, ...], name: str) -> bool:
    return not only or name in only


def run_catalog(config: SuiteConfig) -> SuiteReport:
    """Every selected entry at every n up to its depth, for every draw."""
    report = SuiteReport("catalog", config.seed)
    entries = apply_mutations(config.mutations)
    for entry_id, entry in entries.items():
        if not _selected(config.only, entry_id):
            continue
        n_max = config.n_max if config.n_max is not None else entry.n_max
        draws = draw_for_entry(entry, config.seed, config.samples, n_max)
        for n in range(n_max + 1):
            for assign in draws:
                if assign is None:
                    report.results.append(ResultRow(
                        entry_id, {}, n, None, None, "skipped",
                        f"no admissible draw after {MAX_TRIES} tries"))
                    continue
                result = check_identity(entry_id, n, assign, entries)
                lhs = None if result.lhs is None else render_rational(result.lhs)
                rhs = (lhs if result.status == "pass" else   # equal sides: one string
                       None if result.rhs is None else render_rational(result.rhs))
                report.results.append(ResultRow(
                    entry_id, result.params, n, lhs, rhs, result.status, result.reason))
    return report


def run_wz(config: SuiteConfig) -> SuiteReport:
    """Symbolic + boundary + telescoping rows for the selected pairs."""
    report = SuiteReport("wz", config.seed)
    n_max = config.n_max if config.n_max is not None else WZ_N_MAX
    for name in PAIR_NAMES:
        if not (_selected(config.only, name) or _selected(config.only, f"WZ-{name}")):
            continue
        pair = builtin_pairs()[name]
        if config.wz_scale is not None:
            pair = pair.scaled(config.wz_scale)
        row_id = f"WZ-{name}"

        verification = verify_wz_pair(pair, n_max=n_max,
                                      samples=config.samples, seed=config.seed)
        for row in verification.rows:
            if row.check == "symbolic-residual":
                reason = ("symbolic residual = 0" if row.ok
                          else "symbolic residual != 0")
            else:
                reason = f"{row.check}: {row.detail}" if row.detail else row.check
            report.results.append(ResultRow(
                row_id, row.params, row.n, None, None,
                "pass" if row.ok else "fail", reason))

        rng = random.Random(f"{config.seed}:telescope:{name}")
        draws = [draw(rng, pair.params, n_max) for _ in range(config.samples)]
        admissible = [assign for assign in draws if assign is not None]
        for outcome in telescoping_sum_check(pair, n_max, admissible):
            status = ("pass" if outcome.ok else
                      "skipped" if outcome.ok is None else "fail")
            report.results.append(ResultRow(
                row_id, outcome.params, None, None, None, status,
                outcome.reason or "telescoped sum = 1"))
    return report


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Full catalog plus all three certificate pairs."""
    report = SuiteReport("suite", config.seed)
    report.results.extend(run_catalog(config).results)
    report.results.extend(run_wz(config).results)
    return report
