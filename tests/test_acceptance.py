"""Acceptance criteria for the whole artifact.

Every check is exact rational equality (the identities are exact, so the
tolerance is zero everywhere); the stated time budgets are asserted with
wall-clock measurements.  Each criterion prints one PASS/FAIL line; run

    pytest -s tests/test_acceptance.py

to see them.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from fractions import Fraction
from math import comb

from binomsums.catalog.entries import REGISTRY, apply_mutations, check_identity
from binomsums.catalog.jets_oracle import oracle
from binomsums.catalog.suite import run_catalog, run_wz
from binomsums.cli import main as cli_main
from binomsums.exact import binom_poly
from binomsums.legendre import (
    legendre,
    legendre_inversion_check,
    legendre_new_repr,
    legendre_product_form,
)
from binomsums.params import draw
from binomsums.wz import (
    PAIR_NAMES,
    builtin_pairs,
    certificate_residual,
    telescoping_sum_check,
)

F = Fraction

# sha256 of `binomsums suite --seed 0 --format json`: the default report's bytes
GOLDEN_SUITE_SHA256 = "9387769ac34969ffc4f89dc5d92fe46494e960a6db7f54cbe249fed1080713a5"


def report(number: int, ok: bool, label: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {label}")


def seeded_draws(pair, n_max: int, count: int, seed: int = 0):
    rng = random.Random(f"{seed}:acceptance:{pair.name}")
    draws = []
    while len(draws) < count:
        assign = draw(rng, pair.params, n_max)
        assert assign is not None
        draws.append(assign)
    return draws


def test_criterion_1_wz_symbolic():
    start = time.monotonic()
    ok = all(certificate_residual(pair).is_zero
             for pair in builtin_pairs().values())
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    report(1, ok, f"three certificate residuals are zero in {elapsed:.2f}s (< 10s)")
    assert ok


def test_criterion_2_telescoping():
    start = time.monotonic()
    pairs = builtin_pairs()
    ok = True
    outcomes = telescoping_sum_check(pairs["thm1"], 25,
                                     seeded_draws(pairs["thm1"], 25, 20))
    ok &= all(r.status == "pass" for r in outcomes)
    for name in ("thm2", "thm3"):
        outcomes = telescoping_sum_check(pairs[name], 40,
                                         seeded_draws(pairs[name], 40, 20))
        ok &= all(r.status == "pass" for r in outcomes)
    elapsed = time.monotonic() - start
    ok = bool(ok) and elapsed < 60.0
    report(2, ok, f"sums telescope to 1 (j<=n<=25 and n<=40, 20 draws) "
                  f"in {elapsed:.1f}s (< 60s)")
    assert ok


def test_criterion_3_two_parameter_transform():
    spot = check_identity("ID03", 1, {"alpha": F(1, 2), "beta": F(1, 3), "x": F(2)})
    ok = spot.status == "pass" and spot.lhs == spot.rhs == F(19, 6)
    rows = run_catalog({"ID03": REGISTRY["ID03"]}, None, 50, 0)
    ok = ok and len(rows) == 31 * 50 and all(r.status == "pass" for r in rows)
    report(3, ok, "transform identity exact for n<=30 x 50 draws; spot 19/6")
    assert ok


def test_criterion_4_product_ratio_and_alternating_transforms():
    spot6 = check_identity("ID06", 2, {"s": F(1, 2), "t": F(1, 3)})
    ok = spot6.status == "pass" and spot6.rhs == F(187, 112)
    # un-divided spot for the second form at integer p
    s, p = F(1, 2), 1
    raw_lhs = sum((-1) ** ((2 + k) % 2) * comb(2, k) * binom_poly(s + k, k)
                  * binom_poly(F(k), p) for k in range(3))
    raw_rhs = binom_poly(F(2), p) * binom_poly(s + p, 2)
    ok = ok and raw_lhs == raw_rhs == F(3, 4)
    for entry_id in ("ID06", "ID07"):
        rows = run_catalog({entry_id: REGISTRY[entry_id]}, None, 50, 0)
        ok = ok and len(rows) == 31 * 50 and all(r.status == "pass" for r in rows)
    report(4, ok, "both base identities exact for n<=30 x 50 draws; "
                  "spots 187/112 and 3/4")
    assert ok


def test_criterion_5_taylor_route():
    rng = random.Random("acceptance:taylor")
    ok = True
    for _ in range(20):
        alpha = F(rng.randint(-100, 100), rng.randint(1, 100))
        beta = F(rng.randint(-100, 100), rng.randint(1, 100))
        if (alpha.denominator == 1 and alpha < 0) or \
           (beta.denominator == 1 and beta < 0):
            continue
        for n in range(21):     # ID04's left row is the Taylor shift (catalog/lhs.py)
            ok &= check_identity("ID04", n, {"alpha": alpha, "beta": beta}).status == "pass"
    report(5, bool(ok), "polynomial-shift route matches all coefficients "
                        "for n<=20 x 20 draws")
    assert ok


def test_criterion_6_harmonic_corollaries():
    spots = {
        ("ID16", 2): F(3, 2),
        ("ID18", 2): F(9, 4),
        ("ID25", 2): F(4),
        ("ID24", 2): F(11, 2),
    }
    ok = True
    for (entry_id, n), expected in spots.items():
        result = check_identity(entry_id, n, {})
        ok &= result.status == "pass" and result.lhs == expected
    for entry_id in ("ID11", "ID16", "ID17", "ID18", "ID22", "ID24",
                     "ID25", "ID26"):
        depth = REGISTRY[entry_id].n_max      # 100, 50 for the double-H sums
        for n in range(depth + 1):
            ok &= check_identity(entry_id, n, {}).status == "pass"
    report(6, bool(ok), "harmonic corollaries exact to their full depth "
                        "(n<=100; double-H sums n<=50); all four spots")
    assert ok


def test_criterion_7_jet_oracle_agreement():
    ok = True
    rng = random.Random("acceptance:jets")
    s_draws = []
    while len(s_draws) < 5:
        s = F(rng.randint(-100, 100), rng.randint(1, 100))
        if REGISTRY["ID15"].params.reject(51, {"s": s}) is None:
            s_draws.append(s)
    for n in range(51):
        for entry_id in ("ID24", "ID25", "ID26"):
            left, right = oracle(entry_id, n)
            direct = check_identity(entry_id, n, {})
            ok &= direct.status == "pass"
            ok &= left == direct.lhs and right == direct.rhs
        for s in s_draws:
            left, right = oracle("ID15", n, s=s)
            direct = check_identity("ID15", n, {"s": s})
            ok &= direct.status == "pass"
            ok &= left == direct.lhs and right == direct.rhs
    report(7, bool(ok), "jet oracle reproduces ID15/ID24/ID25/ID26 for n<=50")
    assert ok


def test_criterion_8_legendre_suite():
    ok = legendre(2, F(5, 4)) == F(59, 32)
    rng = random.Random("acceptance:legendre")
    draws = []
    while len(draws) < 20:
        t = F(rng.randint(-100, 100), rng.randint(1, 100))
        if t != 0:
            draws.append(t)
    for t in draws:
        x = (t * t + 1) / (2 * t)
        values = []
        prev, cur = F(0), F(1)
        for n in range(51):
            if n == 1:
                prev, cur = cur, x
            elif n >= 2:
                prev, cur = cur, ((2 * n - 1) * x * cur - (n - 1) * prev) / n
            values.append(cur)
        for n in range(51):
            ok &= legendre_new_repr(n, t) == values[n]
            ok &= legendre_product_form(n, t) == t**n * values[n]
            lhs, rhs = legendre_inversion_check(n, t)
            ok &= lhs == rhs
    report(8, bool(ok), "all three representations exact for n<=50 x 20 draws; "
                        "spot P_2(5/4) = 59/32")
    assert ok


def test_criterion_9_half_integer_specialization():
    spot = check_identity("ID05", 1, {"lam": F(1)})
    ok = spot.status == "pass" and spot.lhs == spot.rhs == 4
    rows = run_catalog({"ID05": REGISTRY["ID05"]}, None, 50, 0)
    ok = ok and len(rows) == 31 * 50 and all(r.status == "pass" for r in rows)
    # the substitution s = n - lam - 1/2, t = -lam - 1/2 maps term-by-term
    rng = random.Random("acceptance:id05")
    half = F(1, 2)
    checked = 0
    while checked < 10:
        lam = F(rng.randint(-100, 100), rng.randint(1, 100))
        if (2 * lam).denominator == 1:
            continue
        for n in range(11):
            s, t = n - lam - half, -lam - half
            for k in range(n + 1):
                al_term = comb(n, k) * binom_poly(n - lam - half, k) \
                    / binom_poly(k - lam - half, k)
                id06_term = comb(n, k) * binom_poly(s, k) / binom_poly(t + k, k)
                ok &= al_term == id06_term
            ok &= REGISTRY["ID06"].rhs(n, {"s": s, "t": t}) \
                == 4**n * binom_poly(lam, n) / binom_poly(2 * lam, n)
        checked += 1
    report(9, bool(ok), "half-integer specialization exact for n<=30 x 50 draws "
                        "and maps onto the (s,t) identity term-by-term")
    assert ok


def test_criterion_10_negative_controls():
    ok = True
    for name in PAIR_NAMES:
        code = cli_main(["wz", name, "--n-max", "3", "--samples", "1",
                         "--mutate", "scale-cert:2"], out=_DevNull())
        ok &= code == 1
        scaled = run_wz({name: builtin_pairs()[name].scaled(F(2))}, 3, 1, 0)
        ok &= any(r.status == "fail" for r in scaled)
    code = cli_main(["check", "ID24", "--n-max", "4",
                     "--mutate", "id24-flip-h2n"], out=_DevNull())
    ok &= code == 1
    mutated = run_catalog(apply_mutations(("id24-flip-h2n",)), 4, 20, 0)
    failing = {r.id for r in mutated if r.status == "fail"}
    ok &= failing == {"ID24"}
    report(10, bool(ok), "documented mutations produce fail rows and exit code 1")
    assert ok


class _DevNull:
    def write(self, _):
        pass


def _suite_json_bytes() -> str:
    """What ``binomsums suite --format json --seed 0`` writes."""
    buf = io.StringIO()
    cli_main(["suite", "--format", "json", "--seed", "0"], out=buf)
    return buf.getvalue()


def test_criterion_11_full_default_suite():
    start = time.monotonic()
    payload_a = _suite_json_bytes()
    elapsed = time.monotonic() - start
    counts = json.loads(payload_a)["summary"]
    ok = counts["fail"] == 0 and elapsed < 120.0
    payload_b = _suite_json_bytes()
    digest = hashlib.sha256(payload_a.encode()).hexdigest()
    ok = ok and payload_a == payload_b and digest == GOLDEN_SUITE_SHA256
    report(11, ok, f"default suite: {counts['pass']} pass / {counts['fail']} fail "
                   f"/ {counts['skipped']} skipped in {elapsed:.1f}s (< 120s), "
                   f"byte-stable JSON, sha256 {digest[:8]}")
    assert ok, f"sha256 {digest}"
