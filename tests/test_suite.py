"""Suite runner: determinism, ordering, filters, mutations, JSON shape."""

from __future__ import annotations

import io
import json
from fractions import Fraction

from binomsums.catalog.entries import REGISTRY, check_identity, draw_for_entry
from binomsums.catalog.suite import (ResultRow, SuiteConfig, SuiteReport, run_catalog,
                                     run_suite, run_wz, write_json, write_text)
from binomsums.cli import main

F = Fraction

SMALL = SuiteConfig(n_max=4, samples=3, seed=0)


def _cli_json(*argv):
    out = io.StringIO()
    main([*argv, "--format", "json"], out=out)
    return out.getvalue()


def test_deterministic_repeat():
    a = run_suite(SMALL)
    b = run_suite(SMALL)
    assert a.results == b.results
    # the bytes the CLI writes, not a re-encoding of the rows
    argv = ("suite", "--n-max", "4", "--samples", "3", "--seed", "0")
    first = _cli_json(*argv)
    assert first == _cli_json(*argv) == a.to_json() + "\n"


def test_json_writer_matches_json_dumps():
    tricky = ResultRow("ID\u00e9", {"x": 'a"b\\c\nd', "\u00fc\t": "\u2028\U0001f600\x00"},
                       -3, "1/2", None, "fail", 'quote " backslash \\ newline \n caf\u00e9 \x7f')
    pole = check_identity("ID15", 3, {"s": F(2)})
    pole_row = ResultRow("ID15", {"s": "2"}, 3, None, None, pole.status, pole.reason)
    flipped = run_catalog(SuiteConfig(n_max=3, samples=2, only=("ID24",),
                                      mutations=("id24-flip-h2n",)))
    empty = run_catalog(SuiteConfig(samples=0, only=("ID01",)))
    empty.suite = "check:ID01"
    reports = [
        run_suite(SMALL),
        empty,
        run_wz(SuiteConfig(n_max=8, samples=4, seed=2, only=("thm3",))),
        run_wz(SuiteConfig(n_max=2, samples=2, only=("thm1",), wz_scale=F(2))),
        flipped,
        SuiteReport("h\u00e4nd \"built\"", 7, [tricky, pole_row]),
    ]
    assert not empty.results and pole_row.status == "skipped"
    assert _cli_json("check", "ID01", "--samples", "0") == empty.to_json() + "\n"
    rows = [row for report in reports for row in report.results]
    assert {row.status for row in rows} == {"pass", "fail", "skipped"}
    assert any(row.n is None for row in rows) and any(row.params == {} for row in rows)
    for report in reports:
        assert report.to_json() == json.dumps(report.to_json_dict(), indent=2)


def test_seed_changes_draws():
    a = run_catalog(SuiteConfig(n_max=3, samples=3, seed=0, only=("ID06",)))
    b = run_catalog(SuiteConfig(n_max=3, samples=3, seed=1, only=("ID06",)))
    assert [r.params for r in a.results] != [r.params for r in b.results]


def test_small_suite_all_pass():
    report = run_suite(SMALL)
    counts = report.counts()
    assert counts["fail"] == 0
    assert counts["pass"] == len(report.results) - counts["skipped"]


def test_row_ordering_is_id_n_draw():
    report = run_catalog(SuiteConfig(n_max=2, samples=2, seed=0,
                                     only=("ID03", "ID01")))
    ids = [r.id for r in report.results]
    assert ids == sorted(ids)
    id03_rows = [r for r in report.results if r.id == "ID03"]
    ns = [r.n for r in id03_rows]
    assert ns == sorted(ns)
    # two draws per n, same order under each n
    first_n = [r.params for r in id03_rows if r.n == 0]
    second_n = [r.params for r in id03_rows if r.n == 1]
    assert first_n == second_n


def test_filter_restricts_ids():
    report = run_suite(SuiteConfig(n_max=3, samples=2, seed=0, only=("ID16",)))
    assert {r.id for r in report.results} == {"ID16"}
    report = run_wz(SuiteConfig(n_max=3, samples=2, seed=0, only=("thm2",)))
    assert {r.id for r in report.results} == {"WZ-thm2"}


def test_wz_rows_include_symbolic_boundary_telescoping():
    report = run_wz(SuiteConfig(n_max=4, samples=2, seed=0, only=("thm3",)))
    reasons = " ".join(r.reason for r in report.results)
    assert "symbolic residual = 0" in reasons
    assert "boundary" in reasons
    assert "telescoped sum = 1" in reasons
    assert not report.counts()["fail"]


def test_mutated_id24_fails_only_id24():
    config = SuiteConfig(n_max=6, samples=2, seed=0,
                         mutations=("id24-flip-h2n",))
    report = run_catalog(config)
    failing_ids = {r.id for r in report.results if r.status == "fail"}
    assert failing_ids == {"ID24"}
    # n = 0 has H_0 = 0 twice, so every positive depth fails
    id24_fail_ns = sorted(r.n for r in report.results
                          if r.id == "ID24" and r.status == "fail")
    assert id24_fail_ns == list(range(1, 7))


def test_scaled_certificate_fails_wz():
    report = run_wz(SuiteConfig(n_max=3, samples=2, seed=0, only=("thm2",),
                                wz_scale=F(2)))
    assert report.counts()["fail"]
    symbolic = [r for r in report.results if "symbolic" in r.reason]
    assert symbolic and symbolic[0].status == "fail"


def test_json_schema():
    report = run_suite(SuiteConfig(n_max=2, samples=2, seed=0, only=("ID16", "thm2")))
    doc = report.to_json_dict()
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
    report = run_catalog(SuiteConfig(n_max=2, samples=1, seed=0, only=("ID16",)))
    text = report.render_text()
    assert "ID16" in text
    assert "lhs=3/2 rhs=3/2" in text
    assert text.splitlines()[-1].startswith("pass=")


STREAMED = [ResultRow("ID01", {"x": f"{i}/7"}, i, "1", "1", ("pass", "fail", "skipped")[i % 3],
                      f"row-{i}:") for i in range(7)]


def _rows_written_as_they_come(out):
    """STREAMED, its i-th row yielded only once rows 0..i-1 are in ``out``."""
    for i, row in enumerate(STREAMED):
        written = out.getvalue()
        assert all(f"row-{j}:" in written for j in range(i)), i
        yield row


def test_writers_hold_no_row():
    report = SuiteReport("streamed", 5, STREAMED)
    for writer, whole in ((write_json, report.to_json()), (write_text, report.render_text())):
        out = io.StringIO()
        counts = writer("streamed", 5, _rows_written_as_they_come(out), out)
        assert counts == report.counts() == {"pass": 3, "fail": 2, "skipped": 2}
        assert out.getvalue() == whole
    assert report.to_json() == json.dumps(report.to_json_dict(), indent=2)


def test_rows_of_one_draw_share_its_rendered_params():
    rows = run_catalog(SuiteConfig(n_max=3, samples=3, seed=0, only=("ID06",))).results
    draws = draw_for_entry(REGISTRY["ID06"], 0, 3, 3)
    assert len(rows) == 4 * 3 and None not in draws
    for i, row in enumerate(rows):            # rows run over n, then over draws
        assert row.params is rows[i % 3].params
        assert row.params == {k: str(v) for k, v in draws[i % 3].items()}
    for i, row in enumerate(rows):
        assert check_identity("ID06", row.n, draws[i % 3]).status == row.status
    assert check_identity("ID15", 3, {"s": F(2)}).status == "skipped"
