"""Span tracing and call counting for the traced benchmark passes.

Spans are recorded from outside the package: :meth:`Tracer.install` swaps
public functions for timing wrappers at the module attributes their callers
look up (``binomsums.catalog.suite.check_identity``,
``binomsums.catalog.lhs.binom_poly``, ...), so the package itself is not
edited.  Each span is ``(name, tag, start, end, parent, outer_name,
outer_layer)``: ``parent`` is the index of the enclosing span (-1 at the
top), and the two flags say whether no span of the same name, or of the
same layer (the part of the name before the first dot), was open when it
started.  Inclusive times sum only outer spans, so recursion is not
counted twice; self time is a span's duration minus its children's.

Counts of private paths and stdlib calls (``_heugcd``, ``_prs_gcd``,
``Fraction.__new__``, ``math.gcd``) come from a separate counting pass,
see :class:`CallCounter`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import replace
from importlib import import_module

EXACT_FUNCTIONS = ("binom_poly", "binom_upper_shift", "harmonic",
                   "digamma_diff", "trigamma_diff")
LEGENDRE_FUNCTIONS = ("legendre", "legendre_new_repr", "legendre_product_form",
                      "legendre_inversion_check")


def _patch_everywhere(original, replacement) -> None:
    """Rebind every package-module attribute that holds ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "binomsums" or name.startswith("binomsums.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _pair_name(args) -> str:
    return args[0].name


def _entry_id(args) -> str:
    return args[0]


def _gcd_path(args) -> str:
    a, b = args
    if a.is_zero or b.is_zero:
        return "zero"
    if len(a.terms) == 1 and len(b.terms) == 1:
        return "monomial"
    return "general"


class Tracer:
    """In-memory span recorder; one per traced interpreter."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.active_names: Counter = Counter()
        self.active_layers: Counter = Counter()
        self.draw_tries = 0
        self.draw_accepted = 0

    def wrap(self, name: str, fn, tag_of=None, tag: str = ""):
        spans, stack = self.spans, self.stack
        names, layers = self.active_names, self.active_layers
        layer = name.split(".", 1)[0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            label = tag_of(args) if tag_of is not None else tag
            outer_name = not names[name]
            outer_layer = not layers[layer]
            spans.append(None)
            stack.append(index)
            names[name] += 1
            layers[layer] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                names[name] -= 1
                layers[layer] -= 1
                stack.pop()
                spans[index] = (name, label, start, end, parent,
                                outer_name, outer_layer)

        return traced

    def install(self) -> None:
        """Wrap the package's public functions; call after importing it."""
        # import_module: the package re-exports functions named like modules
        entries = import_module("binomsums.catalog.entries")
        jets_oracle = import_module("binomsums.catalog.jets_oracle")
        suite = import_module("binomsums.catalog.suite")
        cli = import_module("binomsums.cli")
        exact = import_module("binomsums.exact")
        hyperterm = import_module("binomsums.hyperterm")
        legendre = import_module("binomsums.legendre")
        poly = import_module("binomsums.poly")
        wz = import_module("binomsums.wz")

        for eid, entry in list(entries.REGISTRY.items()):
            entries.REGISTRY[eid] = replace(
                entry,
                lhs=self.wrap("catalog.lhs", entry.lhs, tag=eid),
                rhs=self.wrap("catalog.rhs", entry.rhs, tag=eid))
        _patch_everywhere(entries.check_identity,
                          self.wrap("catalog.check_identity",
                                    entries.check_identity, _entry_id))
        _patch_everywhere(entries.draw_for_entry,
                          self._counting_draws(entries.draw_for_entry))
        for fn in EXACT_FUNCTIONS:
            original = getattr(exact, fn)
            _patch_everywhere(original, self.wrap(f"exact.{fn}", original))
        for fn in LEGENDRE_FUNCTIONS:
            original = getattr(legendre, fn)
            _patch_everywhere(original, self.wrap(f"legendre.{fn}", original))
        for fn in ("certificate_residual", "verify_wz_pair", "telescoping_sum_check"):
            original = getattr(wz, fn)
            _patch_everywhere(original, self.wrap(f"wz.{fn}", original, _pair_name))
        _patch_everywhere(wz.parse_pair_file,
                          self.wrap("expr.parse_pair_file", wz.parse_pair_file))
        hyperterm.HyperTerm.evaluate = self.wrap(
            "hyperterm.evaluate", hyperterm.HyperTerm.evaluate)
        hyperterm.HyperTerm.shift_ratio = self.wrap(
            "hyperterm.shift_ratio", hyperterm.HyperTerm.shift_ratio)
        _patch_everywhere(poly.poly_gcd,
                          self.wrap("poly.poly_gcd", poly.poly_gcd, _gcd_path))
        _patch_everywhere(jets_oracle.oracle,
                          self.wrap("jets.oracle", jets_oracle.oracle, _entry_id))
        for fn in ("run_catalog", "run_wz"):
            original = getattr(suite, fn)
            _patch_everywhere(original, self.wrap(f"suite.{fn}", original))
        cli.main = self.wrap("cli.main", cli.main)
        cli._emit = self.wrap("cli.report_json", cli._emit)

    def _counting_draws(self, draw_for_entry):
        """draw_for_entry with its rejection predicate counted, for the
        catalog's draw acceptance ratio."""
        traced_draw = self.wrap("catalog.draw_for_entry", draw_for_entry)

        def draws(entry, *args, **kwargs):
            reject = entry.params.reject

            def counted(n_max, assign):
                self.draw_tries += 1
                return reject(n_max, assign)

            counted_entry = replace(entry, params=replace(entry.params, reject=counted))
            out = traced_draw(counted_entry, *args, **kwargs)
            if entry.params.names:
                self.draw_accepted += sum(d is not None for d in out)
            return out

        return draws

    def summary(self, first: int = 0, timeline=None) -> dict:
        """Per-name call counts, inclusive and self times, grouped sums, of
        the spans from index ``first`` on; the earlier (set-up) spans only
        give ``setup_inclusive_s``.  ``timeline`` maps span clock readings
        to the time the sums are in (reference seconds, see refclock.py)."""
        spans = self.spans
        if timeline is not None:
            spans = [(name, tag, timeline(start), timeline(end), parent, on, ol)
                     for name, tag, start, end, parent, on, ol in spans]
        setup_inclusive = defaultdict(float)
        for name, tag, start, end, parent, outer_name, _ in spans[:first]:
            if outer_name:
                setup_inclusive[name] += end - start
        spans = spans[first:]
        child_time = defaultdict(float)
        for name, tag, start, end, parent, _, _ in spans:
            if parent >= first:
                child_time[parent - first] += end - start
        calls = Counter()
        inclusive = defaultdict(float)      # name -> outer-name time
        by_tag = defaultdict(float)         # (layer, tag) -> outer-layer time
        by_name_tag = defaultdict(float)    # (name, tag) -> outer-name time
        layer_inclusive = defaultdict(float)
        layer_self = defaultdict(float)
        for index, (name, tag, start, end, parent, outer_name, outer_layer) in enumerate(spans):
            duration = end - start
            layer = name.split(".", 1)[0]
            calls[name] += 1
            if tag:
                calls[f"{name}#{tag}"] += 1
            if outer_name:
                inclusive[name] += duration
                by_name_tag[(name, tag)] += duration
            if outer_layer:
                layer_inclusive[layer] += duration
                if tag:
                    by_tag[(layer, tag)] += duration
            layer_self[layer] += duration - child_time.get(index, 0.0)
        return {
            "spans": len(spans),
            "calls": dict(calls),
            "inclusive_s": dict(inclusive),
            "name_tag_s": {f"{n}#{t}": v for (n, t), v in by_name_tag.items()},
            "layer_tag_s": {f"{layer}#{t}": v for (layer, t), v in by_tag.items()},
            "layer_inclusive_s": dict(layer_inclusive),
            "layer_self_s": dict(layer_self),
            "setup_inclusive_s": dict(setup_inclusive),
            "draw_tries": self.draw_tries,
            "draw_accepted": self.draw_accepted,
        }

    def write(self, path) -> None:
        """All spans as tab-separated lines: index name tag start end parent."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\ttag\tstart\tend\tparent\n")
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, tag, start, end, parent = span[:5]
                out.write(f"{index}\t{name}\t{tag}\t{start:.9f}\t{end:.9f}\t{parent}\n")


class CallCounter:
    """Exact call counts of hot private and stdlib functions.

    ``Fraction.__new__`` and ``math.gcd`` run millions of times per pass,
    so their counting wrappers get a pass of their own and stay out of the
    spans.  ``_heugcd`` and ``_prs_gcd`` are counted where ``poly_gcd``
    calls them, which is what the heuristic ratio needs.  The counts
    repeat exactly for a fixed input.
    """

    def __init__(self):
        self.counts = Counter()

    def install(self) -> None:
        import fractions
        import math

        poly = import_module("binomsums.poly")
        counts = self.counts
        fraction_new = fractions.Fraction.__new__
        int_gcd = math.gcd
        poly_gcd, prs_gcd, ratfunc_init = poly.poly_gcd, poly._prs_gcd, poly.RatFunc.__init__

        def counted_fraction_new(cls, *args, **kwargs):
            counts["fraction_new"] += 1
            return fraction_new(cls, *args, **kwargs)

        def counted_gcd(*args):
            counts["int_gcd"] += 1
            return int_gcd(*args)

        def counted_poly_gcd(a, b):
            counts["poly_gcd"] += 1
            if _gcd_path((a, b)) == "general":
                counts["heuristic"] += 1        # poly_gcd calls _heugcd once
            return poly_gcd(a, b)

        def counted_prs_gcd(a, b):
            counts["prs_fallback"] += 1         # only poly_gcd calls it
            return prs_gcd(a, b)

        def counted_ratfunc_init(self, num, den):
            counts["ratfunc_new"] += 1
            ratfunc_init(self, num, den)

        fractions.Fraction.__new__ = staticmethod(counted_fraction_new)
        math.gcd = counted_gcd                  # fractions looks it up here
        _patch_everywhere(int_gcd, counted_gcd)
        _patch_everywhere(poly_gcd, counted_poly_gcd)
        poly._prs_gcd = counted_prs_gcd
        poly.RatFunc.__init__ = counted_ratfunc_init
