"""Deterministic suite runner over the catalog and the certificate pairs.

A run is fully determined by (seed, n_max override, samples, filter,
mutations): parameter draws are seeded per entry id and pair, rows are emitted
in (id, n, draw) order, and the writers render sides in the canonical rational
format and drawn values by ``str``, so repeated runs are byte-identical.

``catalog_rows`` checks each draw of an entry as one block of n and yields
the entry's rows n-major, ``wz_rows`` yields rows as they are checked, and
the writers write each row at once, so a run holds at most one entry's rows.
The JSON bytes are those of ``json.dumps(..., indent=2)``, with no
pure-Python encoder in between.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _str

from ..exact import render_rational
from ..params import MAX_TRIES, ResultRow, draws
from ..wz import builtin_pairs, telescoping_sum_check, verify_wz_pair
from .entries import apply_mutations, check_identity, draw_for_entry

__all__ = ["SuiteConfig", "ResultRow", "catalog_rows", "run_catalog", "run_wz",
           "suite_rows", "write_json", "write_text", "wz_rows"]

WZ_N_MAX = 10


@dataclass(frozen=True)
class SuiteConfig:
    n_max: int | None = None          # None: per-entry defaults
    samples: int = 20
    seed: int = 0
    only: tuple[str, ...] = ()        # entry ids and/or pair names
    mutations: tuple[str, ...] = ()
    wz_scale: Fraction | None = None  # certificate scaling (negative control)


def _params_block(params: Mapping) -> str:
    return ("{" + ",".join(f"\n        {_str(k)}: {_str(str(v))}" for k, v in params.items())
            + "\n      }" if params else "{}")


def _params_text(params: Mapping) -> str:
    return ",".join(f"{k}={str(v)}" for k, v in sorted(params.items())) or "-"


def _per_draw(rows: Iterable[ResultRow], render) -> Iterator[tuple[ResultRow, str]]:
    """Each row with ``render`` of its params, made once per draw: kept by the id of the
    draw's one dict, the dict held so its id is not reused while kept, 257 draws at most."""
    kept = {}
    for r in rows:
        if (hit := kept.get(id(r.params))) is None:
            if len(kept) > 256:
                kept.clear()
            hit = kept[id(r.params)] = r.params, render(r.params)
        yield r, hit[1]


def _sides(r: ResultRow) -> tuple[str | None, str | None]:
    lhs = None if r.lhs is None else render_rational(r.lhs)
    return lhs, lhs if r.status == "pass" else None if r.rhs is None else render_rational(r.rhs)


def write_json(suite: str, seed: int, rows: Iterable[ResultRow], out) -> dict[str, int]:
    """Write the JSON report to ``out``, each row as it arrives; its counts."""
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    out.write(f'{{\n  "suite": {_str(suite)},\n  "seed": {int.__repr__(seed)},\n  "results": ')
    start = "[\n"
    for r, params in _per_draw(rows, _params_block):
        counts[r.status] += 1
        lhs, rhs = _sides(r)
        out.write(
            f'{start}    {{\n      "id": {_str(r.id)},\n      "params": {params},\n'
            f'      "n": {"null" if r.n is None else int.__repr__(r.n)},\n'
            f'      "lhs": {"null" if lhs is None else _str(lhs)},\n'
            f'      "rhs": {"null" if rhs is None else _str(rhs)},\n'
            f'      "status": {_str(r.status)},\n'
            f'      "reason": {_str(r.reason)}\n    }}')
        start = ",\n"
    end = "[]" if start == "[\n" else "\n  ]"
    out.write(f'{end},\n  "summary": {{\n    "pass": {counts["pass"]},\n'
              f'    "fail": {counts["fail"]},\n    "skipped": {counts["skipped"]}\n  }}\n}}')
    return counts


def write_text(suite: str, seed: int, rows: Iterable[ResultRow], out) -> dict[str, int]:
    """Write the text report to ``out``, each row as it arrives; its counts."""
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    out.write(f"suite: {suite}   seed: {seed}")
    for r, params in _per_draw(rows, _params_text):
        counts[r.status] += 1
        n, lhs, rhs = ("-" if value is None else value for value in (r.n, *_sides(r)))
        out.write(f"\n{r.id:<9} n={n:<4} {params:<28} lhs={lhs} rhs={rhs} "
                  f"{r.status}{f'  ({r.reason})' if r.reason else ''}")
    out.write(f"\npass={counts['pass']} fail={counts['fail']} skipped={counts['skipped']}")
    return counts


def catalog_rows(config: SuiteConfig) -> Iterator[ResultRow]:
    """Every selected entry at every n up to its depth, for every draw: each
    draw checked as one block of n, the rows yielded n-major."""
    entries = apply_mutations(config.mutations)
    for entry_id, entry in entries.items():
        if config.only and entry_id not in config.only:
            continue
        ns = range((config.n_max if config.n_max is not None else entry.n_max) + 1)
        blocks = [[ResultRow(entry_id, {}, n, None, None, "skipped",
                             f"no admissible draw after {MAX_TRIES} tries") for n in ns]
                  if assign is None else check_identity(entry_id, ns, assign, entries)
                  for assign in draw_for_entry(entry, config.seed, config.samples, ns[-1])]
        for rows in zip(*blocks):
            yield from rows


def wz_rows(config: SuiteConfig) -> Iterator[ResultRow]:
    """Symbolic + boundary + telescoping rows for the selected pairs, each check on its draws."""
    n_max = config.n_max if config.n_max is not None else WZ_N_MAX
    for name, pair in builtin_pairs().items():
        if config.only and name not in config.only:
            continue
        if config.wz_scale is not None:
            pair = pair.scaled(config.wz_scale)
        checked = draws(f"{config.seed}:wz:{name}", pair.params, n_max, config.samples)
        yield from verify_wz_pair(pair, n_max, list(checked))
        telescoped = draws(f"{config.seed}:telescope:{name}", pair.params, n_max, config.samples)
        yield from telescoping_sum_check(pair, n_max, [a for a in telescoped if a is not None])


def suite_rows(config: SuiteConfig) -> Iterator[ResultRow]:
    """Full catalog plus all three certificate pairs."""
    return chain(catalog_rows(config), wz_rows(config))


def run_catalog(config: SuiteConfig) -> list[ResultRow]:
    return list(catalog_rows(config))


def run_wz(config: SuiteConfig) -> list[ResultRow]:
    return list(wz_rows(config))
