"""Suite runner: determinism, ordering, filters, mutations, JSON shape."""

from __future__ import annotations

import io
import json
from fractions import Fraction

from binomsums.catalog import suite
from binomsums.catalog.entries import check_identity
from binomsums.catalog.suite import (ResultRow, SuiteConfig, run_catalog, run_wz, suite_rows,
                                     write_json, write_text)
from binomsums.cli import main
from binomsums.exact import render_rational
from binomsums.params import draws
from binomsums.wz import load_pair, telescoping_sum_check, verify_wz_pair

F = Fraction

SMALL = SuiteConfig(n_max=4, samples=3, seed=0)


def _counts(rows):
    return {status: sum(r.status == status for r in rows)
            for status in ("pass", "fail", "skipped")}


def _rendered(side):
    return None if side is None else render_rational(side)


def _json_dict(suite, seed, rows):
    """The report as a dict: json.dumps(indent=2) of it is the reference for write_json."""
    return {
        "suite": suite,
        "seed": seed,
        "results": [
            {"id": r.id, "params": {k: str(v) for k, v in r.params.items()}, "n": r.n,
             "lhs": _rendered(r.lhs),
             "rhs": _rendered(r.rhs), "status": r.status, "reason": r.reason}
            for r in rows
        ],
        "summary": _counts(rows),
    }


def _written(writer, suite, seed, rows):
    """The report ``writer`` writes for the rows, as one string."""
    writer(suite, seed, rows, out := io.StringIO())
    return out.getvalue()


def _cli_json(*argv):
    out = io.StringIO()
    main([*argv, "--format", "json"], out=out)
    return out.getvalue()


def test_deterministic_repeat():
    a = list(suite_rows(SMALL))
    b = list(suite_rows(SMALL))
    assert a == b
    # the bytes the CLI writes, not a re-encoding of the rows
    argv = ("suite", "--n-max", "4", "--samples", "3", "--seed", "0")
    first = _cli_json(*argv)
    assert first == _cli_json(*argv) == _written(write_json, "suite", 0, a) + "\n"


def test_json_writer_matches_json_dumps():
    tricky = ResultRow("ID\u00e9", {"x": 'a"b\\c\nd', "\u00fc\t": "\u2028\U0001f600\x00"},
                       -3, F(1, 2), None, "fail", 'quote " backslash \\ newline \n caf\u00e9 \x7f')
    pole_row = check_identity("ID15", 3, {"s": F(2)})
    flipped = run_catalog(SuiteConfig(n_max=3, samples=2, only=("ID24",),
                                      mutations=("id24-flip-h2n",)))
    empty = run_catalog(SuiteConfig(samples=0, only=("ID01",)))
    reports = [
        ("suite", 0, list(suite_rows(SMALL))),
        ("check:ID01", 0, empty),
        ("wz", 2, run_wz(SuiteConfig(n_max=8, samples=4, seed=2, only=("thm3",)))),
        ("wz", 0, run_wz(SuiteConfig(n_max=2, samples=2, only=("thm1",), wz_scale=F(2)))),
        ("catalog", 0, flipped),
        ("h\u00e4nd \"built\"", 7, [tricky, pole_row]),
    ]
    assert not empty and pole_row.status == "skipped" and pole_row.params == {"s": F(2)}
    assert (_cli_json("check", "ID01", "--samples", "0")
            == _written(write_json, "check:ID01", 0, empty) + "\n")
    rows = [row for _, _, report in reports for row in report]
    assert {row.status for row in rows} == {"pass", "fail", "skipped"}
    assert any(row.n is None for row in rows) and any(row.params == {} for row in rows)
    for report in reports:
        assert _written(write_json, *report) == json.dumps(_json_dict(*report), indent=2)


def test_seed_changes_draws():
    a = run_catalog(SuiteConfig(n_max=3, samples=3, seed=0, only=("ID06",)))
    b = run_catalog(SuiteConfig(n_max=3, samples=3, seed=1, only=("ID06",)))
    assert [r.params for r in a] != [r.params for r in b]


def test_small_suite_all_pass():
    rows = list(suite_rows(SMALL))
    counts = _counts(rows)
    assert counts["fail"] == 0
    assert counts["pass"] == len(rows) - counts["skipped"]


def test_row_ordering_is_id_n_draw():
    rows = run_catalog(SuiteConfig(n_max=2, samples=2, seed=0, only=("ID03", "ID01")))
    ids = [r.id for r in rows]
    assert ids == sorted(ids)
    id03_rows = [r for r in rows if r.id == "ID03"]
    ns = [r.n for r in id03_rows]
    assert ns == sorted(ns)
    # two draws per n, same order under each n
    first_n = [r.params for r in id03_rows if r.n == 0]
    second_n = [r.params for r in id03_rows if r.n == 1]
    assert first_n == second_n


def test_filter_restricts_ids():
    rows = suite_rows(SuiteConfig(n_max=3, samples=2, seed=0, only=("ID16",)))
    assert {r.id for r in rows} == {"ID16"}
    rows = run_wz(SuiteConfig(n_max=3, samples=2, seed=0, only=("thm2",)))
    assert {r.id for r in rows} == {"WZ-thm2"}


def test_wz_rows_include_symbolic_boundary_telescoping():
    rows = run_wz(SuiteConfig(n_max=4, samples=2, seed=0, only=("thm3",)))
    reasons = " ".join(r.reason for r in rows)
    assert "symbolic residual = 0" in reasons
    assert "boundary" in reasons
    assert "telescoped sum = 1" in reasons
    assert not _counts(rows)["fail"]


def test_mutated_id24_fails_only_id24():
    config = SuiteConfig(n_max=6, samples=2, seed=0,
                         mutations=("id24-flip-h2n",))
    rows = run_catalog(config)
    failing_ids = {r.id for r in rows if r.status == "fail"}
    assert failing_ids == {"ID24"}
    # n = 0 has H_0 = 0 twice, so every positive depth fails
    id24_fail_ns = sorted(r.n for r in rows if r.id == "ID24" and r.status == "fail")
    assert id24_fail_ns == list(range(1, 7))


def test_scaled_certificate_fails_wz():
    rows = run_wz(SuiteConfig(n_max=3, samples=2, seed=0, only=("thm2",), wz_scale=F(2)))
    assert _counts(rows)["fail"]
    symbolic = [r for r in rows if "symbolic" in r.reason]
    assert symbolic and symbolic[0].status == "fail"


def test_json_schema():
    rows = list(suite_rows(SuiteConfig(n_max=2, samples=2, seed=0, only=("ID16", "thm2"))))
    doc = json.loads(_written(write_json, "suite", 0, rows))
    assert doc == _json_dict("suite", 0, rows)
    assert set(doc) == {"suite", "seed", "results", "summary"}
    assert set(doc["summary"]) == {"pass", "fail", "skipped"}
    for row in doc["results"]:
        assert set(row) == {"id", "params", "n", "lhs", "rhs", "status", "reason"}
        assert row["status"] in ("pass", "fail", "skipped")
        if row["lhs"] is not None:
            F(row["lhs"])     # canonical rational strings parse back
    assert doc["summary"]["pass"] == sum(
        1 for r in doc["results"] if r["status"] == "pass")


def test_text_rendering_contains_rows_and_summary():
    rows = run_catalog(SuiteConfig(n_max=2, samples=1, seed=0, only=("ID16",)))
    text = _written(write_text, "catalog", 0, rows)
    assert "ID16" in text
    assert "lhs=3/2 rhs=3/2" in text
    assert text.splitlines()[-1].startswith("pass=")


STREAMED = [ResultRow("ID01", {"x": f"{i}/7"}, i, F(1), F(1), ("pass", "fail", "skipped")[i % 3],
                      f"row-{i}:") for i in range(7)]


def _rows_written_as_they_come(out):
    """STREAMED, its i-th row yielded only once rows 0..i-1 are in ``out``."""
    for i, row in enumerate(STREAMED):
        written = out.getvalue()
        assert all(f"row-{j}:" in written for j in range(i)), i
        yield row


def test_writers_hold_no_row():
    for writer in (write_json, write_text):
        out = io.StringIO()
        counts = writer("streamed", 5, _rows_written_as_they_come(out), out)
        assert counts == _counts(STREAMED) == {"pass": 3, "fail": 2, "skipped": 2}
        assert out.getvalue() == _written(writer, "streamed", 5, STREAMED)
    assert (_written(write_json, "streamed", 5, STREAMED)
            == json.dumps(_json_dict("streamed", 5, STREAMED), indent=2))


def test_a_zero_side_prints_0_in_both_writers():
    # ID05 at an integer lam below n: 4^n C(lam, n) = 0, as in the seed-0 text report
    row = check_identity("ID05", 22, {"lam": F(21)})
    assert row.status == "pass" and row.lhs == row.rhs == 0
    fails = [ResultRow("ID05", {}, 1, F(0), F(1), "fail", ""),
             ResultRow("ID05", {}, 1, F(1), F(0), "fail", "")]
    text = _written(write_text, "check:ID05", 0, [row, *fails]).splitlines()
    assert [line.split()[3:5] for line in text[1:4]] == [
        ["lhs=0", "rhs=0"], ["lhs=0", "rhs=1"], ["lhs=1", "rhs=0"]]
    report = json.loads(_written(write_json, "check:ID05", 0, [row, *fails]))
    assert [(r["lhs"], r["rhs"]) for r in report["results"]] == [("0", "0"), ("0", "1"), ("1", "0")]


def test_rows_carry_the_very_draw_they_were_checked_at(monkeypatch):
    # every check is handed its draws and puts those objects in its rows, so the
    # writer renders each draw once; the report renders each value by str
    made = []
    real = suite.draw_for_entry
    monkeypatch.setattr(suite, "draw_for_entry", lambda *args: made.append(real(*args)) or made[-1])
    rows = run_catalog(SuiteConfig(n_max=3, samples=3, seed=0, only=("ID06", "ID16")))
    (id06, id16), id06_rows = made, rows[:4 * 3]
    assert len(rows) == 4 * 3 + 4 and None not in id06 and id16 == [{}]
    for i, row in enumerate(id06_rows):        # rows run over n, then over draws
        assert row.params is id06[i % 3]
        assert check_identity("ID06", row.n, id06[i % 3]) == row
    assert all(row.params is id16[0] for row in rows[4 * 3:])
    # a block re-read n by n past a pole carries the one assignment too
    lam = {"lam": F(31, 2)}
    reread = check_identity("ID05", range(31), lam)
    assert {r.status for r in reread} == {"pass", "skipped"}
    assert all(r.params is lam for r in reread)
    # the pair checks: each row carries the draw it was handed
    pair = load_pair("thm1")
    handed = [a for a in draws("rows:thm1", pair.params, 4, 3) if a is not None]
    verified = verify_wz_pair(pair, 4, handed)
    assert verified[0].params == {} and len(verified) == 1 + 2 * len(handed)
    assert all(row.params is handed[i // 2] for i, row in enumerate(verified[1:]))
    telescoped = telescoping_sum_check(pair, 4, handed)
    assert [row.params for row in telescoped] == handed
    assert all(row.params is a for row, a in zip(telescoped, handed))
    report = rows + reread + verified + telescoped
    assert (_written(write_json, "rows", 0, report)
            == json.dumps(_json_dict("rows", 0, report), indent=2))


def _text_per_row(suite, seed, rows):
    """write_text's report with each row written by a writer of its own, its params
    rendered afresh: the per-row reference for write_text."""
    lines = [_written(write_text, suite, seed, [r]).splitlines()[1] for r in rows]
    summary = "pass={pass} fail={fail} skipped={skipped}".format(**_counts(rows))
    return "\n".join([f"suite: {suite}   seed: {seed}", *lines, summary])


def test_params_blocks_follow_the_row_objects(monkeypatch):
    # each writer renders a params dict once and keeps the rendering by the dict's
    # identity, holding the dict: rows that share a dict, equal dicts apart, more
    # dicts than it keeps at once, and fresh dicts that die as soon as their row is
    # written (so their ids come free) all render as a row-by-row rendering does
    shared = [{"x": str(i), "y": "1/2"} for i in range(300)]
    rows = [ResultRow("ID02", shared[i], n, F(n), F(n), "pass")
            for n in range(3) for i in range(300)]
    rows += [ResultRow("ID02", {"x": "7", "y": "1/2"}, 3, None, None, "skipped", "r")]
    assert _written(write_json, "blocks", 1, rows) == json.dumps(_json_dict("blocks", 1, rows),
                                                                 indent=2)
    assert _written(write_text, "blocks", 1, rows) == _text_per_row("blocks", 1, rows)

    def fresh():
        for i in range(1000):
            yield ResultRow("ID15", {"s": str(i)} if i % 7 else {}, i, F(i), F(i), "pass")

    written = _written(write_json, "fresh", 2, fresh())
    assert written == json.dumps(_json_dict("fresh", 2, list(fresh())), indent=2)
    assert _written(write_text, "fresh", 2, fresh()) == _text_per_row("fresh", 2, list(fresh()))
    # over a catalog run, whose rows of one draw share its dict, each writer
    # renders every draw object exactly once
    renders = []
    for name in ("_params_block", "_params_text"):
        monkeypatch.setattr(suite, name, lambda params, real=getattr(suite, name): (
            renders.append(params) or real(params)))
    report = run_catalog(SuiteConfig(n_max=3, samples=3, seed=0))
    drawn = {id(r.params) for r in report}
    for writer in (write_json, write_text):
        renders.clear()
        _written(writer, "catalog", 0, report)
        assert sorted(map(id, renders)) == sorted(drawn), writer.__name__
