import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    r = subprocess.run([sys.executable, "-m", "qlzero.cli", *args],
                       capture_output=True, text=True, env=env)
    return r.returncode, r.stdout, r.stderr


def test_no_selection_is_config_error():
    rc, _out, err = run("check")
    assert rc == 2 and "no suites" in err


def test_empty_config_suite_list_passes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": []}))
    rc, out, _err = run("check", "--config", str(cfg))
    assert rc == 0


def test_unknown_suite_rejected(tmp_path):
    rc, _out, err = run("check", "--suite", "lemmas", "--n", "2")
    assert rc == 0
    rc, _out, err = run("check", "--suite", "nosuch")
    assert rc == 2 and "nosuch" in err
    configs = {
        "missing.json": None,
        "malformed.json": '{"suites": [{"suite": "lemmas"}',
        "unknown.json": json.dumps({"suites": [{"suite": "nosuch"}]}),
        "misspelled.json": json.dumps({"suites": [{"suite": "lemmas", "sampel": 3}]}),
        "toplevel.json": json.dumps({"suits": [{"suite": "lemmas"}]}),
        "listp.json": json.dumps({"suites": [{"suite": "lemmas", "p": ["q4"]}]}),
    }
    for name, text in configs.items():
        cfg = tmp_path / name
        if text is not None:
            cfg.write_text(text)
        rc, _out, err = run("check", "--config", str(cfg))
        assert rc == 2, (name, err)
        assert "configuration error" in err and "Traceback" not in err, (name, err)


def test_rhof_scale_guard_exit_two():
    rc, _out, err = run("check", "--suite", "rhof", "--n", "2",
                        "--window=-2..0", "--p", "q3")
    assert rc == 2 and "q^4" in err


@pytest.mark.parametrize("suite,p", [("chevalley", "q3"), ("evalmod", "generic-sample")])
def test_single_scale_suites_reject_p_exit_two(suite, p):
    # only affine-hecke and rhosg run at a choice of p; the others would
    # run at q^4 whatever was asked
    rc, _out, err = run("check", "--suite", suite, "--n", "2",
                        "--window=-1..0", "--p", p)
    assert rc == 2 and "q^4" in err and "Traceback" not in err, err


def test_single_scale_config_job_rejects_p_exit_two(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"suites": [{"suite": "lemmas", "p": "q5"}]}))
    rc, _out, err = run("check", "--config", str(cfg))
    assert rc == 2 and "q^4" in err and "Traceback" not in err, err


def test_report_written_and_passes(tmp_path):
    out = tmp_path / "r.jsonl"
    rc, _stdout, _err = run("check", "--suite", "lemmas",
                            "--out", str(out))
    assert rc == 0
    lines = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert all(rec["status"] in ("pass", "fail", "skipped") for rec in lines)
    assert any(rec["name"].startswith("lemma") for rec in lines)
    assert any(rec["name"] == "locality.margins" for rec in lines)


def test_reports_byte_identical_modulo_timing(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        rc, _o, _e = run("check", "--suite", "prop9", "--n", "2",
                         "--window=-2..0", "--cache", str(tmp_path),
                         "--out", str(path))
        assert rc == 0

    def strip(path):
        return [{k: v for k, v in json.loads(ln).items() if k != "seconds"}
                for ln in path.read_text().splitlines()]

    assert strip(a) == strip(b)


# The suites of the benchmark's three workloads (bench/workloads.py), each
# with the row count and the SHA-256 of its report without the `seconds`
# field.  `quotient` runs cold here: its kernels are built, not loaded.
OPERATOR_JOBS = [
    {"suite": "hecke", "n": 4, "window": "-3..0"},
    {"suite": "lemmas"},
    {"suite": "affine-hecke", "n": 3, "window": "-4..0", "p": "generic-sample"},
    {"suite": "rhosg", "n": 3, "window": "-3..0", "p": "generic-sample"},
    {"suite": "evalmod", "n": 3},
]
IDEAL_JOBS = [
    {"suite": "rhof", "n": 3, "window": "-4..0"},
    {"suite": "rhof", "n": 2, "window": "-4..0"},
    {"suite": "prop9", "n": 3, "window": "-4..0"},
    {"suite": "prop8", "n": 2, "window": "-4..0"},
    {"suite": "rewriter", "n": 2, "window": "-4..0"},
    {"suite": "characters"},
]
QUOTIENT_JOBS = [
    {"suite": "chevalley", "n": 2, "window": "-4..0"},
    {"suite": "chevalley", "n": 3, "window": "-4..0"},
    {"suite": "rhof", "n": 3, "window": "-3..0"},
]
GOLDEN_REPORTS = {
    "operators": (OPERATOR_JOBS, 39,
                  "bd2c83a2f7b1ad2c698a7a0a5e8a05dce0f224003f6ebc361080b8f6d15ba3be"),
    "ideal": (IDEAL_JOBS, 19,
              "acf09e92d6877ed228b052ae636d37652ee9e5d8e0b29b01ccd64e45ab68d49f"),
    "quotient": (QUOTIENT_JOBS, 11,
                 "66aea2572e91348ce2098c1c1dac805f1b8300f98b06284af366ca21392cf9cf"),
}


@pytest.mark.parametrize("workload", sorted(GOLDEN_REPORTS))
def test_report_golden(tmp_path, workload):
    jobs, n_rows, digest = GOLDEN_REPORTS[workload]
    cfg, out = tmp_path / "cfg.json", tmp_path / "r.jsonl"
    cfg.write_text(json.dumps({"suites": jobs}))
    rc, _o, err = run("check", "--config", str(cfg), "--out", str(out))
    assert rc == 0, err
    rows = [{k: v for k, v in json.loads(ln).items() if k != "seconds"}
            for ln in out.read_text().splitlines()]
    blob = "\n".join(json.dumps(r, sort_keys=True) for r in rows)
    assert len(rows) == n_rows
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_kernel_command_and_cache(tmp_path):
    rc1, out1, _ = run("kernel", "--n", "2", "--window=-2..0", "--cache", str(tmp_path))
    rc2, out2, _ = run("kernel", "--n", "2", "--window=-2..0", "--cache", str(tmp_path))
    assert rc1 == rc2 == 0 and out1 == out2
    assert any(p.name.startswith("kernel-") for p in tmp_path.iterdir())


@pytest.mark.parametrize("window", ["-1..2", "2..3", "-2..-1", "-2"])
def test_kernel_window_must_end_at_zero(tmp_path, window):
    rc, _out, err = run("kernel", "--n", "1", f"--window={window}",
                        "--families", "HEC,HWT", "--cache", str(tmp_path))
    assert rc == 2 and "configuration error" in err and window in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ("check", "--suite", "hecke", "--n", "0", "--window=-1..0"),
    ("check", "--suite", "hecke", "--n", "1", "--window=-1..0"),
    ("check", "--suite", "hecke", "--n", "-1", "--window=-1..0"),
    ("check", "--suite", "rhosg", "--n", "1", "--window=-1..0"),
    ("check", "--suite", "prop8", "--n", "1", "--window=-1..0"),
    ("check", "--suite", "prop9", "--n", "1", "--window=-1..0"),
    ("check", "--suite", "rhof", "--n", "1", "--window=-1..0"),
    ("check", "--suite", "rewriter", "--n", "1", "--window=-1..0"),
    ("check", "--suite", "lemmas", "--n", "0"),
    ("kernel", "--n", "0", "--window=-1..0"),
    ("kernel", "--n", "-1", "--window=-1..0"),
    ("kernel", "--n", "2", "--families", "FOO"),
    ("kernel", "--n", "2", "--families", "HEC,HEC"),
    ("kernel", "--n", "2", "--families", "HEC,"),
])
def test_slot_counts_and_families_exit_two(tmp_path, args):
    rc, _out, err = run(*args, "--cache", str(tmp_path))
    assert rc == 2 and "configuration error" in err and "Traceback" not in err, err
    assert not any(tmp_path.iterdir())


DEPTH_SUITES = ("chevalley", "prop8", "prop9", "rhof", "rewriter", "e0forms")


@pytest.mark.parametrize("window", ["-2..1", "-2..-1"])
@pytest.mark.parametrize("suite", DEPTH_SUITES)
def test_depth_suite_window_must_end_at_zero(tmp_path, suite, window):
    rc, _out, err = run("check", "--suite", suite, "--n", "2", f"--window={window}",
                        "--cache", str(tmp_path))
    assert rc == 2 and "configuration error" in err and window in err, err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("bad", [{"suite": "hecke", "n": 1},
                                 {"suite": "prop8", "n": 2, "window": "-1..1"},
                                 {"suite": "lemmas", "p": "q7"}])
def test_config_validated_before_the_first_job(tmp_path, bad):
    # the first job would write a kernel file to the cache if it ran
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": [
        {"suite": "chevalley", "n": 2, "window": "-1..0"}, bad]}))
    cache = tmp_path / "cache"
    cache.mkdir()
    rc, out, err = run("check", "--config", str(cfg), "--cache", str(cache))
    assert rc == 2 and "configuration error" in err and "Traceback" not in err, err
    assert out == "" and not any(cache.iterdir())


@pytest.mark.parametrize("n", [2.7, True])
def test_slot_count_must_be_an_int_exit_two(tmp_path, n):
    # a float would run truncated to N=2, and true as N=1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": [{"suite": "hecke", "n": n, "window": "-1..0"}]}))
    rc, out, err = run("check", "--config", str(cfg))
    assert rc == 2 and "slot count" in err and "Traceback" not in err, err
    assert out == ""


def test_cache_serves_every_relation_window_suite(tmp_path):
    for suite in ("prop8", "e0forms", "rewriter", "rhof"):
        rc, _out, err = run("check", "--suite", suite, "--n", "2", "--window=-1..0",
                            "--cache", str(tmp_path))
        assert rc == 0, err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "kernel-N2-D1-FUS-HEC-HWT.txt", "kernel-N2-D1-HEC-HWT.txt"]


def test_kernel_command_caches_only_the_window_asked_for(tmp_path):
    # the full window is derived from an exchange window that gets no file
    rc, _out, err = run("kernel", "--n", "3", "--window=-3..0",
                        "--families", "HEC,FUS,HWT", "--cache", str(tmp_path))
    assert rc == 0, err
    assert [p.name for p in tmp_path.iterdir()] == ["kernel-N3-D3-FUS-HEC-HWT.txt"]


def test_full_kernel_derived_from_a_cached_exchange_window(tmp_path):
    from qlzero.kernel import kernel_build

    out = tmp_path / "full.txt"
    for families in ("HEC,HWT", "HEC,FUS,HWT"):
        rc, _out, err = run("kernel", "--n", "3", "--window=-2..0", "--families", families,
                            "--cache", str(tmp_path / "cache"), "--out", str(out))
        assert rc == 0, err
    assert out.read_text() == kernel_build(3, 2).save_text()


def test_cache_gets_a_derived_exchange_window_once_asked_for(tmp_path):
    rc, _out, err = run("check", "--suite", "rhof", "--suite", "prop8", "--n", "2",
                        "--window=-1..0", "--cache", str(tmp_path))
    assert rc == 0, err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "kernel-N2-D1-FUS-HEC-HWT.txt", "kernel-N2-D1-HEC-HWT.txt"]


def test_check_eliminates_each_span_once(tmp_path, monkeypatch, capsys):
    from collections import Counter

    from qlzero import cli, kernel

    made = Counter()
    build, derive = kernel.kernel_build, kernel.full_window

    def counted_build(N, depth, families=kernel.FAMILIES):
        made[N, depth, tuple(sorted(families))] += 1
        return build(N, depth, families)

    def counted_derive(exch, families=kernel.FAMILIES):
        (N, depth), = exch.caps.items()
        made[N, depth, tuple(sorted(families))] += 1
        return derive(exch, families)

    monkeypatch.setattr(kernel, "kernel_build", counted_build)
    monkeypatch.setattr(kernel, "full_window", counted_derive)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": IDEAL_JOBS}))
    assert cli.main(["check", "--config", str(cfg)]) == 0
    capsys.readouterr()
    exch, full = ("HEC", "HWT"), ("FUS", "HEC", "HWT")
    assert made == Counter({(1, 4, exch): 1, (2, 4, exch): 1, (3, 4, exch): 1,
                            (2, 4, full): 1, (3, 4, full): 1})


def test_check_generates_each_stream_once(tmp_path, monkeypatch, capsys):
    # prop8 and the rewriter share one symmetrization stream, whose fusion
    # generators soundness and the rewriting system share; the full windows
    # extract sector N's fusion generators once more each
    from collections import Counter

    from qlzero import cli, kernel

    made = Counter()
    ab, fus = kernel.iter_ab_relations, kernel.iter_fus_generators

    def counted_ab(N, depth):
        made["AB", N, depth] += 1
        return ab(N, depth)

    def counted_fus(N, depth):
        made["FUS", N, depth] += 1
        return fus(N, depth)

    monkeypatch.setattr(kernel, "iter_ab_relations", counted_ab)
    monkeypatch.setattr(kernel, "iter_fus_generators", counted_fus)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": IDEAL_JOBS}))
    assert cli.main(["check", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert made == Counter({("AB", 2, 4): 1, ("FUS", 2, 4): 2, ("FUS", 3, 4): 1})


def test_kernel_cache_keyed_by_full_family_names(tmp_path):
    for families in ("HEC", "HWT", "HEC,HWT"):
        rc, _out, err = run("kernel", "--n", "2", "--window=-1..0",
                            "--families", families, "--cache", str(tmp_path))
        assert rc == 0, err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "kernel-N2-D1-HEC-HWT.txt", "kernel-N2-D1-HEC.txt", "kernel-N2-D1-HWT.txt"]


def test_kernel_cache_replaces_stale_files(tmp_path):
    from qlzero.kernel import KernelBasis, kernel_build

    fresh = kernel_build(2, 2, ("HEC", "HWT")).save_text()
    path = tmp_path / "kernel-N2-D2-HEC-HWT.txt"
    old = ('# qlzero-kernel {"families": ["HEC", "HWT"], "generators": 6, '
           '"max_degree": 2, "provenance": {"HEC": 6}, "sectors": [2]}\n'
           + fresh.split("\n", 1)[1])
    shallow = kernel_build(2, 1, ("HEC", "HWT")).save_text()
    for stale in (old, shallow):
        path.write_text(stale)
        rc, out, err = run("kernel", "--n", "2", "--window=-2..0",
                           "--families", "HEC,HWT", "--cache", str(tmp_path))
        assert rc == 0, err
        assert "degree 2" in out
        assert path.read_text() == fresh
        assert KernelBasis.load_text(path.read_text()).caps == {2: 2}


def test_chars_command():
    rc, out, _ = run("chars", "--dmax", "3", "--nmax", "8")
    assert rc == 0 and "oracle agreement: True" in out


def test_chars_negative_degree_exit_two():
    # a table of no degrees would print only its header, and one of no
    # sectors all zeros, as if the oracle disagreed
    for flag in ("--dmax", "--nmax"):
        rc, out, err = run("chars", flag, "-1")
        assert rc == 2 and flag in err and "Traceback" not in err, err
        assert out == ""


def test_dump_command():
    for op in ("S", "S1", "G12", "G21", "Y2", "Z", "e0", "f0", "t0"):
        rc, out, err = run("dump", "--op", op, "--n", "2", "--window=-1..0")
        assert rc == 0 and "->" in out, (op, err)
    rc, _out, err = run("dump", "--op", "bogus", "--n", "2")
    assert rc == 2


@pytest.mark.parametrize("args", [
    ("--op", "Y"), ("--op", "G"), ("--op", "G1"), ("--op", "G11"),
    ("--op", "Y9", "--n", "2"), ("--op", "S2", "--n", "2"),
    ("--op", "G13", "--n", "2"), ("--op", "Y1", "--p", "q7"),
    ("--op", "Y1", "--p", "generic-sample"),
    ("--op", "e0", "--n", "1", "--window=-1..-1"),
    ("--op", "e0", "--n", "1", "--window=-1..3"),
])
def test_dump_bad_input_exit_two(args):
    rc, _out, err = run("dump", *args)
    assert rc == 2 and "Traceback" not in err, err


def test_ledger_scoped_to_one_check(tmp_path):
    # two checks in one process: the hecke suite records no mode shift, so
    # its report must not show what the rhof run before it observed
    from qlzero.cli import main

    margins = []
    for i, args in enumerate((("rhof", "--n", "2", "--window=-2..0"),
                              ("hecke", "--n", "2", "--window=-1..0"))):
        out = tmp_path / f"{i}.jsonl"
        assert main(["check", "--suite", *args, "--out", str(out)]) == 0
        recs = [json.loads(ln) for ln in out.read_text().splitlines()]
        margins += [r["detail"] for r in recs if r["name"] == "locality.margins"]
    assert "[series_e0:0, series_f0:0]" in margins[0]
    assert "[none observed]" in margins[1]
