import hashlib
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from quadsys import Gdd, catalog
from quadsys.cli import main
from quadsys.formats import emit_design, parse_design, read_data

# sha256 over "<sha256>  <name>" lines of the construct output files, sorted
# by name, for `gen sqs28` + `construct sqs28.star --design sqs28.design`
CONSTRUCT_SQS28_SHA256 = "f686bf554aa6b4967e3939e3c51e600f914d7cade98ae7d86f6db18ba6f4181f"


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def tree_sha256(directory):
    """The same digest as `LC_ALL=C sha256sum * | sha256sum` in the directory."""
    h = hashlib.sha256()
    for f in sorted(p for p in directory.iterdir() if p.is_file()):
        h.update(f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.name}\n".encode())
    return h.hexdigest()


def test_gen_and_verify_sqs8(tmp_path):
    design = tmp_path / "sqs8.design"
    code, out = run_cli("gen", "sqs8", "--out", str(design))
    assert code == 0 and design.exists()
    code, out = run_cli("verify", "--kind", "sqs", str(design))
    assert code == 0
    assert out.startswith("PASS")


def test_verify_corrupted_design_exits_1(tmp_path, capsys):
    d = catalog.sqs8()
    text = emit_design(d)
    lines = text.splitlines()
    corrupt = "\n".join(lines[:-1]) + "\n"  # drop the last block
    path = tmp_path / "bad.design"
    path.write_text(corrupt)
    code, out = run_cli("verify", "--kind", "sqs", str(path))
    assert code == 1
    assert "FAIL" in out


def test_parse_error_exits_2(tmp_path):
    path = tmp_path / "junk.design"
    path.write_text("KIND SQS\nT 3\nK 4\nPOINTS 0 1 2 3\n0 1 2 9\n")
    code, _ = run_cli("verify", "--kind", "sqs", str(path))
    assert code == 2


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli_process(*argv):
    """Run the CLI as a fresh interpreter, as users do; returns the process."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-m", "quadsys.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "header,line",
    [
        ("KIND\nT 3\nK 4\n", 1),
        ("KIND SQS\nT\nK 4\n", 2),
        ("KIND SQS\nT x\nK 4\n", 2),
        ("KIND SQS\nT 3\nV\nK 4\n", 3),
        ("KIND SQS\nT 3\nV 4.0\nK 4\n", 3),
        ("KIND SQS\nT 3\nK\n", 3),
        ("KIND SQS\nT 3\nK 4 y\n", 3),
    ],
    ids=["bare KIND", "bare T", "T x", "bare V", "V 4.0", "bare K", "K 4 y"],
)
def test_malformed_header_exits_2_with_one_line(tmp_path, header, line):
    path = tmp_path / "bad.design"
    path.write_text(header + "POINTS 0 1 2 3\n0 1 2 3\n")
    proc = run_cli_process("verify", "--kind", "sqs", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert re.fullmatch(rf"error: line {line}: [^\n]+\n", proc.stderr), proc.stderr


@pytest.mark.parametrize("command", ["verify", "construct"])
def test_jobs_below_one_is_a_usage_error(tmp_path, command, capsys):
    design = tmp_path / "sqs8.design"
    run_cli("gen", "sqs8", "--out", str(design))
    argv = {
        "verify": ["verify", "--kind", "sqs", str(design)],
        "construct": ["construct", str(tmp_path / "none.star"), str(tmp_path / "out")],
    }[command]
    with pytest.raises(SystemExit) as err:
        main(argv + ["--jobs", "0"])
    assert err.value.code == 2
    assert "--jobs: must be at least 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_budget_is_a_usage_error(tmp_path, capsys):
    design = tmp_path / "sqs8.design"
    run_cli("gen", "sqs8", "--out", str(design))
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["resolve", str(design), "--budget", "-1"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "--budget: must be at least 0, got -1" in captured.err
    assert "EXHAUSTED" not in captured.out


def test_missing_file_exits_2(tmp_path):
    code, _ = run_cli("verify", "--kind", "sqs", str(tmp_path / "nope.design"))
    assert code == 2


def test_gen_sqs22_with_certificate_and_rdsqs_verify(tmp_path):
    design = tmp_path / "sqs22.design"
    code, _ = run_cli("gen", "sqs22", "--out", str(design))
    assert code == 0
    res = tmp_path / "sqs22.res"
    assert res.exists()
    code, out = run_cli("verify", "--kind", "rdsqs", str(design), str(res))
    assert code == 0
    assert out.count("PASS") == 24  # steiner + coverage + 22 points


def test_jobs_flag_does_not_change_output(tmp_path):
    design = tmp_path / "rdgdd24.design"
    run_cli("gen", "rdgdd24", "--out", str(design))
    res = tmp_path / "rdgdd24.res"
    code1, out1 = run_cli("verify", "--kind", "rdgdd", str(design), str(res))
    code2, out2 = run_cli(
        "verify", "--kind", "rdgdd", str(design), str(res), "--jobs", "2"
    )
    assert (code1, out1) == (code2, out2) == (0, out1)


def test_derive_writes_derived_design(tmp_path):
    design = tmp_path / "sqs8.design"
    run_cli("gen", "sqs8", "--out", str(design))
    out_file = tmp_path / "sts7.design"
    code, _ = run_cli("derive", str(design), "inf_0", "--out", str(out_file))
    assert code == 0
    sub = parse_design(out_file.read_text())
    assert sub.v == 7 and len(sub.blocks) == 7


def test_derive_on_a_gdd_writes_the_derived_gdd(tmp_path):
    design = tmp_path / "rdgdd24.design"
    run_cli("gen", "rdgdd24", "--out", str(design))
    out_file = tmp_path / "gdd21.design"
    code, _ = run_cli("derive", str(design), "0_0", "--out", str(out_file))
    assert code == 0
    sub = parse_design(out_file.read_text())
    assert isinstance(sub, Gdd) and sub.design.kind == "GDD"
    assert sub.design.v == 21 and len(sub.design.blocks) == 63
    assert sub.type_multiset == (3,) * 7
    code, out = run_cli("verify", "--kind", "gdd", str(out_file))
    assert code == 0 and out.startswith("PASS")


def test_resolve_found_and_exhausted(tmp_path):
    design = tmp_path / "sqs22.design"
    run_cli("gen", "sqs22", "--out", str(design))
    code, out = run_cli(
        "resolve", str(design), "--point", "inf_0", "--budget", "10000000"
    )
    assert code == 0 and out.startswith("FOUND")
    code, out = run_cli(
        "resolve", str(design), "--point", "inf_0", "--budget", "10"
    )
    assert code == 1 and out.startswith("EXHAUSTED")


def test_resolve_point_of_a_gdd_searches_the_derived_gdd(tmp_path):
    # the ground set loses the whole group of the point, not the point alone
    design = tmp_path / "rdgdd24.design"
    run_cli("gen", "rdgdd24", "--out", str(design))
    code, out = run_cli(
        "resolve", str(design), "--point", "inf_1", "--budget", "10000000"
    )
    assert code == 0 and out.startswith("FOUND")
    code, out = run_cli(
        "resolve", str(design), "--point", "0_0", "--budget", "1000000"
    )
    assert code == 0 and out.startswith("FOUND")


def test_resolve_whole_design_none(tmp_path):
    # the Fano plane is not resolvable (7 points, 3-point blocks); the
    # search proves it, and a completed proof of absence is still exit 0
    design = tmp_path / "sqs8.design"
    run_cli("gen", "sqs8", "--out", str(design))
    sts7 = tmp_path / "sts7.design"
    run_cli("derive", str(design), "inf_0", "--out", str(sts7))
    code, out = run_cli("resolve", str(sts7), "--budget", "1000000")
    assert code == 0
    assert out.startswith("NONE")


def test_resolve_sqs8_itself_finds_the_plane_pairing(tmp_path):
    # complements of blocks are blocks, so the 14 blocks pair into 7 classes
    design = tmp_path / "sqs8.design"
    run_cli("gen", "sqs8", "--out", str(design))
    code, out = run_cli("resolve", str(design), "--budget", "1000000")
    assert code == 0
    assert out.startswith("FOUND")


def test_star_verify_roundtrip(tmp_path):
    design = tmp_path / "sqs28.design"
    code, _ = run_cli("gen", "sqs28", "--out", str(design))
    assert code == 0
    star = tmp_path / "sqs28.star"
    assert star.exists()
    code, out = run_cli("verify", "--kind", "star", str(design), str(star))
    assert code == 0
    assert "PASS star certificate" in out


def test_star_verify_expands_the_shipped_seed_file(tmp_path):
    # the 4-seed file construct builds from must verify the same way
    design = tmp_path / "sqs28.design"
    run_cli("gen", "sqs28", "--out", str(design))
    star = tmp_path / "seeds.star"
    star.write_text(read_data("sqs28_star.star"))
    code, out = run_cli("verify", "--kind", "star", str(design), str(star))
    assert code == 0
    assert "PASS star certificate {'points': 28, 'blocks': 819}" in out


def test_construct_and_report(tmp_path):
    design = tmp_path / "sqs28.design"
    run_cli("gen", "sqs28", "--out", str(design))
    out_dir = tmp_path / "out"
    code, _ = run_cli(
        "construct", str(tmp_path / "sqs28.star"), str(out_dir),
        "--design", str(design), "--jobs", "2",
    )
    assert code == 0
    assert (out_dir / "design.design").exists()
    assert len(list(out_dir.glob("point_*.res"))) == 112
    manifest = (out_dir / "manifest.txt").read_text()
    assert "design blocks=56980 v=112" in manifest
    assert manifest.count("PASS") == 113  # steiner + 112 points
    assert "resolved_points 112/112" in manifest
    stated = dict(re.findall(r"^point (\S+) classes=(\d+) ", manifest, re.MULTILINE))
    assert len(stated) == 112
    for label, n_classes in stated.items():
        text = (out_dir / f"point_{label}.res").read_text()
        assert text.splitlines().count("CLASS") == int(n_classes)
    assert tree_sha256(out_dir) == CONSTRUCT_SQS28_SHA256
    code, out = run_cli("report", str(out_dir))
    assert code == 0
    assert "PASS every point resolved 112/112" in out


def test_gen_unknown_name_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["gen", "nope"])
    assert err.value.code == 2


def _one_error_line(proc, pattern):
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert re.fullmatch(rf"error: {pattern}[^\n]*\n", proc.stderr), proc.stderr


@pytest.mark.parametrize("command", ["resolve", "derive"])
@pytest.mark.parametrize("point", ["1_2_3", "07", "inf", "a^0"])
def test_malformed_point_label_exits_2_with_one_line(tmp_path, command, point):
    design = tmp_path / "sqs8.design"
    run_cli("gen", "sqs8", "--out", str(design))
    argv = {
        "resolve": ["resolve", str(design), "--point", point],
        "derive": ["derive", str(design), point, "--out", str(tmp_path / "d.design")],
    }[command]
    proc = run_cli_process(*argv)
    _one_error_line(proc, re.escape(f"malformed point label {point!r}"))
    assert not (tmp_path / "d.design").exists()


@pytest.mark.parametrize("label", ["00", "inf", "inf_00", "1_01", "a^15"])
def test_non_canonical_points_label_fails_on_its_line(tmp_path, label):
    path = tmp_path / "bad.design"
    path.write_text(f"KIND SQS\nT 3\nK 4\nPOINTS {label} 1 2 3\n{label} 1 2 3\n")
    proc = run_cli_process("verify", "--kind", "sqs", str(path))
    _one_error_line(proc, re.escape(f"line 4: malformed point label {label!r}"))


@pytest.mark.parametrize("command", ["verify", "derive", "construct", "resolve", "report"])
def test_non_utf8_input_exits_2_naming_the_file(tmp_path, command):
    design = tmp_path / "sqs8.design"
    run_cli("gen", "sqs8", "--out", str(design))
    bad = tmp_path / "bad.txt"
    bad.write_bytes(design.read_bytes() + b"0 1 \xff 3\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "design.design").write_bytes(bad.read_bytes())
    argv = {
        "verify": ["verify", "--kind", "sqs", str(bad)],
        "derive": ["derive", str(bad), "inf_0", "--out", str(tmp_path / "d.design")],
        "construct": ["construct", str(bad), str(tmp_path / "built")],
        "resolve": ["resolve", str(bad)],
        "report": ["report", str(out_dir)],
    }[command]
    named = out_dir / "design.design" if command == "report" else bad
    proc = run_cli_process(*argv)
    _one_error_line(proc, re.escape(f"{named}: not UTF-8 text"))
    assert proc.stdout == ""
