"""Command-line front end.

Subcommands:

    list                         catalog listing (id, parameters, statement; json: domain)
    check <ID>                   one identity over its seeded grid
    wz [thm1|thm2|thm3|all]      certificate pair verification
    suite                        full catalog plus all three pairs

Shared flags: --format text|json and --config; all but list also take
--n-max (at most 200; 100 for wz and suite, whose pairs run at that depth),
--samples (at most 100) and --seed.
--mutate applies a documented negative control and is accepted by check
(id24-flip-h2n) and wz (scale-cert:<rational>) only; a mutation that leaves
the checked entry or pairs unchanged is a usage error.  A JSON config file
may set n_max, samples, seed and format; explicit flags override the file,
the file overrides the defaults (seed 0, samples 20, text).  No environment
variables are read.

Exit codes: 0 all checks passed, 1 at least one fail row, no pass and no
fail row at all (nothing was checked, e.g. --samples 0 on an entry with
parameters) or a stdout closed before the report ended, which stops the run,
2 usage, parse or I/O error (an n_max or samples below 0 or above its cap,
from a flag or the file, is a usage error before any row is computed).
Output for a fixed seed and flag set is byte-stable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain

from .catalog.entries import REGISTRY, apply_mutations
from .catalog.suite import catalog_rows, write_json, write_text, wz_rows
from .exact import parse_rational
from .wz import PAIR_NAMES, builtin_pairs

__all__ = ["main", "entry"]

_CONFIG_KEYS = {"n_max": int, "samples": int, "seed": int, "format": str}


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binomsums",
        description="Exact verification of the binomial/harmonic identity catalog.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mutate: bool, draws: bool = True):
        if draws:
            p.add_argument("--n-max", type=int, default=None, dest="n_max")
            p.add_argument("--samples", type=int, default=None)
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", choices=("text", "json"), default=None)
        p.add_argument("--config", default=None, metavar="PATH")
        if mutate:
            p.add_argument("--mutate", default=None, metavar="SPEC")

    common(sub.add_parser("list", help="list catalog entries"), mutate=False, draws=False)
    check = sub.add_parser("check", help="check one identity")
    check.add_argument("id", metavar="ID")
    common(check, mutate=True)
    wz = sub.add_parser("wz", help="verify certificate pairs")
    wz.add_argument("pair", nargs="?", default="all",
                    choices=(*PAIR_NAMES, "all"))
    common(wz, mutate=True)
    common(sub.add_parser("suite", help="run everything"), mutate=False)
    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object")
    out = {}
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        if not isinstance(value, _CONFIG_KEYS[key]) or isinstance(value, bool):
            raise UsageError(f"config key {key!r} has the wrong type")
        out[key] = value
    if "format" in out and out["format"] not in ("text", "json"):
        raise UsageError("config format must be 'text' or 'json'")
    return out


def _effective(args, file_config: dict):
    def pick(flag, key, default):
        if flag is not None:
            return flag
        return file_config.get(key, default)

    settings = {
        "n_max": pick(args.n_max, "n_max", None),
        "samples": pick(args.samples, "samples", 20),
        "seed": pick(args.seed, "seed", 0),
        "format": pick(args.format, "format", "text"),
    }
    for key, cap in (("n_max", 100 if args.command in ("wz", "suite") else 200), ("samples", 100)):
        value = settings[key]
        if value is not None and value < 0:
            raise UsageError(f"{key} must be non-negative, got {value}")
        if value is not None and value > cap:
            raise UsageError(f"{key} must be at most {cap} for {args.command}, got {value}")
    return settings


def _emit(suite: str, seed: int, rows, fmt: str, out) -> dict[str, int]:
    counts = (write_json if fmt == "json" else write_text)(suite, seed, rows, out)
    out.write("\n")
    return counts


def _run(args, out) -> int:
    file_config = _load_config(args.config)
    if args.command == "list":
        if (args.format or file_config.get("format", "text")) == "json":
            listing = [{"id": e.id, "params": list(e.params.names), "statement": e.statement,
                        "domain": [{**c._asdict(), "form": c.form.render()}
                                   for c in e.params.reject]}
                       for e in REGISTRY.values()]
            out.write(json.dumps(listing, indent=2) + "\n")
        else:
            for e in REGISTRY.values():
                params = ",".join(e.params.names) or "-"
                out.write(f"{e.id:<6} params={params:<18} {e.statement}\n")
        return 0

    settings = _effective(args, file_config)
    draw = settings["n_max"], settings["samples"], settings["seed"]

    if args.command == "check":
        if args.id not in REGISTRY:
            raise UsageError(f"unknown identity id {args.id!r} (see 'list')")
        entry = REGISTRY[args.id]
        if args.mutate is not None:
            try:
                entry = apply_mutations((args.mutate,))[args.id]
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
            if entry is REGISTRY[args.id]:
                raise UsageError(f"mutation {args.mutate!r} leaves {args.id} unchanged")
        suite, rows = f"check:{args.id}", catalog_rows({args.id: entry}, *draw)
    elif args.command == "wz":
        scale = None
        if args.mutate is not None:
            if not args.mutate.startswith("scale-cert:"):
                raise UsageError(
                    f"unknown wz mutation {args.mutate!r}; use scale-cert:<rational>")
            try:
                scale = parse_rational(args.mutate.split(":", 1)[1])
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
            if scale == 1:
                raise UsageError("scale-cert expects a rational != 1")
        pairs = {name: pair if scale is None else pair.scaled(scale)
                 for name, pair in builtin_pairs().items() if args.pair in ("all", name)}
        suite, rows = f"wz:{args.pair}", wz_rows(pairs, *draw)
    else:
        suite, rows = "suite", chain(catalog_rows(REGISTRY, *draw),
                                     wz_rows(builtin_pairs(), *draw))

    counts = _emit(suite, settings["seed"], rows, settings["format"], out)
    if not counts["pass"] and not counts["fail"]:
        print("error: nothing was checked (no pass or fail rows)", file=sys.stderr)
        return 1
    return 1 if counts["fail"] else 0


def main(argv: list[str] | None = None, out=None) -> int:
    out = sys.stdout if out is None else out
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        status = _run(args, out)
        if out is sys.stdout:
            out.flush()     # a reader that closed early shows here, not at exit
        return status
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:     # the reader is gone: the run stops here
        if out is sys.stdout:   # and the flush at exit stays quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
