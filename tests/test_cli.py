"""Command-line interface: exit codes, formats, config precedence, mutations."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from binomsums.cli import main


# sha256 of `binomsums wz --n-max 20 --format json --seed N`, the same bytes
# that perfbench/golden.json pins for the wz-deep workload at seeds 0-9.
# These seeds exit 0: every row passes.
GOLDEN_DEEP_WZ_SHA256 = {
    0: "f3c17ca7acb120fab332c7610a0f349ec26f362744e65a7d9e50bb0fc750046d",
    1: "f223276ee6a12eadcbe40ec8cc581dcca5a15c3548e684650f506752135aba32",
    4: "91b7207fdb5cbad6548762e2715ec59c22cf42a4fa3203373ceffdd0d5e35ba2",
    7: "f33d148aab893e1ecba2e80c6b01dc40eb76c8635eee9d765b8a29a98119b225",
    9: "8523dd677485e6b4844806a4fb33de4666fb6a106ac5b36b49bfd8537abb8acf",
}

# The same run at the other seeds exits 1: their thm3 draws include a
# positive integer p, so these bytes carry fail rows such as "unexpected
# pole: binom(-49,-2) is indeterminate (0/0 ratio of poles)" and pin the pole
# order and messages of the term's rows.  Those rows are the known false
# fails of ROADMAP item 1: these pins move when its fix of thm3's reject
# predicate lands.
GOLDEN_DEEP_WZ_POLE_SHA256 = {
    2: "a084e0873d67c9e4b422ddfa9930b4eaa353b08fedc35d589f5ae4bc2708e783",
    3: "5f69b143c13628573717b7a4eb41b162d5cb78a7b6574d6a3a669967a2e25745",
    5: "c4a1819d0bc442cf70506b5730d03917239a8b1f3f67f7e2e27ef9018a5525c8",
    6: "d1ab4400c053f80ca44bb9b60a0363be2098eb8c36c951c32b6ed1706184250e",
    8: "e43782d01b88c979f3ab6cb28c3f7fd04cc18dfa0fe5bc7740855ad036991966",
}


# sha256 of `binomsums check ID04 --format json --seed 0` through real stdout,
# recorded while each inner j was still checked by its own pair of calls
GOLDEN_CHECK_ID04_SHA256 = "75d2215b0efb43a97394f7eec1b3a95ffbac81cb34fcea6c5792c121a2c8f21b"

CHECK_ID04 = [sys.executable, "-m", "binomsums.cli", "check", "ID04", "--format", "json",
              "--seed", "0"]

# sha256 of the text reports through real stdout, recorded while the text
# report was still built whole before it was written
GOLDEN_TEXT_SHA256 = {
    ("suite", "--seed", "0"): "ae86a1f49e3f5e2b9ef70641bc125274781579adf89e8bf3767ee2c23f33a02e",
    ("check", "ID04", "--seed", "0"):
        "073e05a658d5580d0168efa74a037e0a8433e18478c502098e83a34f0c3013fb",
}


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_list_text_and_json():
    code, text = run_cli("list")
    assert code == 0
    assert "ID01" in text and "ID26" in text
    code, payload = run_cli("list", "--format", "json")
    assert code == 0
    entries = json.loads(payload)
    assert entries[0]["id"] == "ID01"
    assert any(e["id"] == "ID15" and e["params"] == ["s"] for e in entries)
    # each entry's domain as data: its Avoid constraints in order, the form rendered
    domains = {e["id"]: e["domain"] for e in entries}
    assert domains["ID05"] == [{
        "form": "lam-1/2", "lo": 0, "hi": "n_max",
        "reason": "lam - 1/2 is an integer in [0, n_max): denominator binomial vanishes"}]
    assert [c["form"] for c in domains["ID02"]] == ["alpha", "beta"] and domains["ID11"] == []
    assert "denominator binomial vanishes" not in text      # the text list is unchanged


def test_list_takes_no_draw_flags(capsys):
    # list reads no n_max, samples or seed, so it has no flag for them
    for flags in (("--n-max", "3"), ("--samples", "101"), ("--seed", "5")):
        code, text = run_cli("list", *flags)
        assert code == 2 and text == ""
        assert "unrecognized arguments" in capsys.readouterr().err


def test_list_ignores_the_draw_settings_of_a_config_file(tmp_path):
    # a config file's n_max and samples are neither read nor capped for list
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_max": 10**6, "samples": 10**6, "seed": 5,
                                  "format": "json"}))
    code, text = run_cli("list", "--config", str(config))
    assert code == 0 and text == run_cli("list", "--format", "json")[1]


def test_check_id16():
    code, text = run_cli("check", "ID16", "--n-max", "2")
    assert code == 0
    assert "lhs=3/2 rhs=3/2" in text
    assert "n=2" in text


def test_check_unknown_id_is_usage_error():
    code, _ = run_cli("check", "ID99")
    assert code == 2


def test_unknown_flag_is_usage_error():
    code, _ = run_cli("check", "ID16", "--frobnicate")
    assert code == 2


def test_unknown_subcommand_is_usage_error():
    code, _ = run_cli("frobnicate")
    assert code == 2


def test_wz_single_pair():
    code, text = run_cli("wz", "thm2", "--n-max", "4", "--samples", "2")
    assert code == 0
    assert "WZ-thm2" in text
    assert "symbolic residual = 0" in text


def test_wz_mutation_scale_cert():
    code, text = run_cli("wz", "thm2", "--n-max", "3", "--samples", "1",
                         "--mutate", "scale-cert:2")
    assert code == 1
    assert "symbolic residual != 0" in text


def test_wz_mutation_validation():
    code, _ = run_cli("wz", "thm2", "--mutate", "nonsense")
    assert code == 2
    code, _ = run_cli("wz", "thm2", "--mutate", "scale-cert:1")
    assert code == 2
    code, _ = run_cli("wz", "thm2", "--mutate", "scale-cert:0.5")
    assert code == 2


def test_check_mutation_flow():
    code, text = run_cli("check", "ID24", "--n-max", "3",
                         "--mutate", "id24-flip-h2n")
    assert code == 1
    assert "fail" in text
    code, _ = run_cli("check", "ID24", "--n-max", "3", "--mutate", "bogus")
    assert code == 2
    # a negative control that cannot trip: the mutation leaves ID01 as it is
    code, text = run_cli("check", "ID01", "--mutate", "id24-flip-h2n",
                         "--n-max", "2", "--samples", "1")
    assert code == 2 and text == ""


def test_json_output_byte_stable():
    args = ("check", "ID16", "--n-max", "3", "--format", "json", "--seed", "0")
    code_a, a = run_cli(*args)
    code_b, b = run_cli(*args)
    assert code_a == code_b == 0
    assert a == b
    doc = json.loads(a)
    assert doc["suite"] == "check:ID16"
    assert doc["summary"]["fail"] == 0


def test_config_file_and_flag_precedence(tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"n_max": 2, "format": "json", "seed": 3}))
    code, payload = run_cli("check", "ID16", "--config", str(config))
    assert code == 0
    doc = json.loads(payload)            # format came from the file
    assert doc["seed"] == 3
    assert max(r["n"] for r in doc["results"]) == 2
    # explicit flag beats the file
    code, payload = run_cli("check", "ID16", "--config", str(config),
                            "--seed", "7", "--format", "json")
    assert json.loads(payload)["seed"] == 7


def test_config_file_errors(tmp_path):
    code, _ = run_cli("check", "ID16", "--config", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_max": "two"}))
    code, _ = run_cli("check", "ID16", "--config", str(bad))
    assert code == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"depth": 3}))
    code, _ = run_cli("check", "ID16", "--config", str(unknown))
    assert code == 2
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b'\xff\xfe{"seed":1}')
    code, _ = run_cli("list", "--config", str(not_utf8))
    assert code == 2


def test_negative_n_max_or_samples_is_usage_error(tmp_path, capsys):
    # a run that would check nothing must not exit 0 with zero rows
    for flags in (("--n-max", "-3"), ("--samples", "-1")):
        code, text = run_cli("check", "ID06", *flags)
        assert code == 2 and text == ""
    for key in ("n_max", "samples"):
        config = tmp_path / f"{key}.json"
        config.write_text(json.dumps({key: -2}))
        code, text = run_cli("check", "ID06", "--config", str(config))
        assert code == 2 and text == ""
        assert f"{key} must be non-negative" in capsys.readouterr().err
    # zero is still allowed
    code, _ = run_cli("check", "ID16", "--n-max", "0", "--samples", "0")
    assert code == 0


# the caps of cli.py's docstring and README: (n_max, samples) per command
CAPS = {"check": (200, 100), "suite": (100, 100), "wz": (100, 100)}


def test_n_max_or_samples_above_its_cap_is_usage_error(tmp_path, monkeypatch, capsys):
    # cap + 1, from a flag or the file, exits 2 before any row is computed; the
    # cap itself gets through to the run, here one that yields no row
    from binomsums import cli

    for name in ("catalog_rows", "suite_rows", "wz_rows"):
        monkeypatch.setattr(cli, name, lambda config: iter(()))
    for command, caps in CAPS.items():
        argv = (command, "ID01") if command == "check" else (command,)
        for key, cap in zip(("n_max", "samples"), caps):
            flag = "--" + key.replace("_", "-")
            config = tmp_path / f"{command}-{key}.json"
            config.write_text(json.dumps({key: cap + 1}))
            for extra in ((flag, str(cap + 1)), ("--config", str(config))):
                code, text = run_cli(*argv, *extra)
                assert code == 2 and text == "", (command, extra)
                assert f"{key} must be at most {cap} for {command}" in capsys.readouterr().err
            code, _ = run_cli(*argv, flag, str(cap))
            assert code == 1 and "nothing was checked" in capsys.readouterr().err


def test_run_that_checked_nothing_exits_1(capsys):
    code, text = run_cli("check", "ID06", "--samples", "0")
    assert code == 1 and "pass=0 fail=0 skipped=0" in text
    assert "nothing was checked" in capsys.readouterr().err
    # an entry without parameters still gets its one empty draw
    code, _ = run_cli("check", "ID16", "--samples", "0")
    assert code == 0


def test_an_entry_with_no_admissible_draw_gives_skipped_rows(monkeypatch, capsys):
    from dataclasses import replace

    from binomsums.catalog.entries import REGISTRY
    from binomsums.params import ParamSpec

    monkeypatch.setitem(REGISTRY, "ID01", replace(
        REGISTRY["ID01"], params=ParamSpec(("x",), lambda n_max, a: "rejected")))
    code, payload = run_cli("check", "ID01", "--n-max", "1", "--samples", "2",
                            "--format", "json")
    assert code == 1
    assert "nothing was checked" in capsys.readouterr().err
    rows = json.loads(payload)["results"]
    assert [(row["n"], row["params"], row["status"], row["reason"]) for row in rows] == [
        (n, {}, "skipped", "no admissible draw after 1000 tries") for n in (0, 0, 1, 1)]


def test_suite_small_run_json():
    code, payload = run_cli("suite", "--n-max", "2", "--samples", "1",
                            "--format", "json")
    assert code == 0
    doc = json.loads(payload)
    ids = {row["id"] for row in doc["results"]}
    assert "ID01" in ids and "WZ-thm1" in ids and "WZ-thm3" in ids
    assert doc["summary"]["fail"] == 0


def test_deep_wz_report_bytes_are_pinned(budget):
    # the only Tier-1 runs of the WZ grid past n = 10; the budget guards
    # against a hang, it is not a speed gate
    for seed, digest in GOLDEN_DEEP_WZ_SHA256.items():
        with budget(60):
            code, text = run_cli("wz", "--n-max", "20", "--format", "json",
                                 "--seed", str(seed))
        assert code == 0, seed
        assert hashlib.sha256(text.encode()).hexdigest() == digest, seed


@pytest.mark.parametrize("seed", sorted(GOLDEN_DEEP_WZ_POLE_SHA256))
def test_deep_wz_pole_rows_are_pinned(budget, seed):
    with budget(60):
        code, text = run_cli("wz", "--n-max", "20", "--format", "json", "--seed", str(seed))
    assert code == 1
    assert "unexpected pole: binom(" in text
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DEEP_WZ_POLE_SHA256[seed]


def _cli_env():
    # stdout block-buffered, as in a shell pipe, whatever the calling environment sets
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_check_id04_bytes_through_stdout_are_pinned():
    done = subprocess.run(CHECK_ID04, env=_cli_env(), capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == GOLDEN_CHECK_ID04_SHA256


@pytest.mark.parametrize("argv", sorted(GOLDEN_TEXT_SHA256))
def test_text_report_bytes_through_stdout_are_pinned(argv):
    done = subprocess.run([sys.executable, "-m", "binomsums.cli", *argv], env=_cli_env(),
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == GOLDEN_TEXT_SHA256[argv]


class _ClosedAfterFirstWrite(io.StringIO):
    """An output whose reader is gone after the first write."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise BrokenPipeError
        return super().write(text)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_closed_output_stops_the_run_at_the_first_row(monkeypatch, capsys, fmt):
    from binomsums.catalog import suite

    checked = []
    check_identity = suite.check_identity
    monkeypatch.setattr(suite, "check_identity",
                        lambda *args: checked.append(args[:2]) or check_identity(*args))
    code = main(["suite", "--format", fmt], out=_ClosedAfterFirstWrite())
    assert code == 1
    # the header went out, the first row's write failed: the first entry's 20
    # draws were checked, each as one block of n, and no other of the 11 914 rows
    assert checked == [("ID01", range(31))] * 20
    assert capsys.readouterr().err == ""       # no traceback, no error line


def test_a_reader_that_closes_early_gets_no_traceback():
    # the ID04 report (about 180 kB) outgrows the pipe, so a write sees the close
    proc = subprocess.Popen(CHECK_ID04, env=_cli_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        assert proc.stdout.read(300).startswith(b"{")
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err, err
    # the listing fits in stdout's buffer: a reader gone before the start shows at
    # the flush, and the buffer must not be flushed again at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "binomsums.cli", "list"], env=_cli_env(),
                              stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert b"Traceback" not in done.stderr and b"Exception ignored" not in done.stderr, done.stderr


def test_wz_mutation_takes_only_ascii_digits(capsys):
    # reports render 0-9 only, so a scale spelled in other decimal digits is a
    # usage error, not a mutant: Arabic-Indic three and a full-width one
    for spec in ("scale-cert:٣/2", "scale-cert:１", "scale-cert:2/٣"):
        code, _ = run_cli("wz", "thm2", "--n-max", "1", "--samples", "1", "--mutate", spec)
        assert code == 2
        assert "not a rational literal" in capsys.readouterr().err
