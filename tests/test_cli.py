import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_unknown_suite_rejected():
    rc, _out, err = run("check", "--suite", "lemmas", "--n", "2")
    assert rc == 0
    rc, _out, err = run("check", "--config", "/nonexistent.json")
    assert rc != 0


def test_rhof_scale_guard_exit_two():
    rc, _out, err = run("check", "--suite", "rhof", "--n", "2",
                        "--window=-2..0", "--p", "q3")
    assert rc == 2 and "q^4" in err


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


def test_kernel_command_and_cache(tmp_path):
    rc1, out1, _ = run("kernel", "--n", "2", "--window=-2..0", "--cache", str(tmp_path))
    rc2, out2, _ = run("kernel", "--n", "2", "--window=-2..0", "--cache", str(tmp_path))
    assert rc1 == rc2 == 0 and out1 == out2
    assert any(p.name.startswith("kernel-") for p in tmp_path.iterdir())


def test_kernel_cache_replaces_stale_files(tmp_path):
    from qlzero.kernel import KernelBasis, kernel_build
    from qlzero.windows import Window

    fresh = kernel_build(2, Window(2, -2), families=("HEC", "HWT")).save_text()
    path = tmp_path / "kernel-N2-D2-HH.txt"
    old = ('# qlzero-kernel {"families": ["HEC", "HWT"], "generators": 6, '
           '"max_degree": 2, "provenance": {"HEC": 6}, "sectors": [2]}\n'
           + fresh.split("\n", 1)[1])
    shallow = kernel_build(2, Window(2, -1), families=("HEC", "HWT")).save_text()
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


def test_dump_command():
    rc, out, _ = run("dump", "--op", "G12", "--n", "2", "--window=-1..0")
    assert rc == 0 and "->" in out
    rc, _out, err = run("dump", "--op", "bogus", "--n", "2")
    assert rc == 2
