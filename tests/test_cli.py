import hashlib
import io
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from quadsys import (
    DesignError,
    Gdd,
    catalog,
    cli,
    quadruple,
    resolver,
    verify_star_point,
    verify_steiner,
)
from quadsys.cli import main
from quadsys.formats import (
    ParseError,
    emit_design,
    emit_resolution,
    emit_star,
    parse_design,
    parse_resolution,
    parse_star,
    read_data,
)

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


def report_on(out_dir, cpus):
    """`report out_dir` as if ``cpus`` were the usable CPUs; (exit code,
    stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as m, redirect_stdout(out), redirect_stderr(err):
        m.setattr(os, "sched_getaffinity", lambda pid: cpus)
        code = main(["report", str(out_dir)])
    return code, out.getvalue(), err.getvalue()


def report_both_ways(out_dir):
    """`report out_dir` in process (one usable CPU) and on a pool of two
    workers; both must give the same exit code, stdout and stderr, which
    are returned."""
    serial = report_on(out_dir, {0})
    assert report_on(out_dir, {0, 1}) == serial
    return serial


def test_gen_and_verify_sqs8(tmp_path):
    design = tmp_path / "sqs8.design"
    code, out = run_cli("gen", "sqs8", "--out", str(design))
    assert code == 0 and design.exists()
    code, out = run_cli("verify", str(design))
    assert code == 0
    assert out.startswith("PASS")


def test_verify_corrupted_design_exits_1(tmp_path, capsys):
    d = catalog.sqs8()
    text = emit_design(d)
    lines = text.splitlines()
    corrupt = "\n".join(lines[:-1]) + "\n"  # drop the last block
    path = tmp_path / "bad.design"
    path.write_text(corrupt)
    code, out = run_cli("verify", str(path))
    assert code == 1
    assert "FAIL" in out


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
        ("KIND SQS\nT -1\nK 4\n", 2),
        ("KIND SQS\nT 3\nV\nK 4\n", 3),
        ("KIND SQS\nT 3\nV 4.0\nK 4\n", 3),
        ("KIND SQS\nT 3\nK\n", 3),
        ("KIND SQS\nT 3\nK 4 y\n", 3),
    ],
    ids=["bare KIND", "bare T", "T x", "T -1", "bare V", "V 4.0", "bare K", "K 4 y"],
)
def test_malformed_header_exits_2_with_one_line(tmp_path, header, line):
    path = tmp_path / "bad.design"
    path.write_text(header + "POINTS 0 1 2 3\n0 1 2 3\n")
    proc = run_cli_process("verify", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    stderr = re.escape(f"error: {path}: line {line}: ")
    assert re.fullmatch(stderr + r"[^\n]+\n", proc.stderr), proc.stderr


@pytest.mark.parametrize("command", ["verify", "construct"])
def test_jobs_below_one_is_a_usage_error(tmp_path, command, capsys):
    design = tmp_path / "sqs8.design"
    run_cli("gen", "sqs8", "--out", str(design))
    argv = {
        "verify": ["verify", str(design)],
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
    code, _ = run_cli("verify", str(tmp_path / "nope.design"))
    assert code == 2


def test_gen_sqs22_with_certificate_and_rdsqs_verify(tmp_path):
    design = tmp_path / "sqs22.design"
    code, _ = run_cli("gen", "sqs22", "--out", str(design))
    assert code == 0
    res = tmp_path / "sqs22.res"
    assert res.exists()
    code, out = run_cli("verify", str(design), str(res))
    assert code == 0
    assert out.count("PASS") == 24  # steiner + coverage + 22 points


def test_jobs_flag_does_not_change_output(tmp_path):
    design = tmp_path / "rdgdd24.design"
    run_cli("gen", "rdgdd24", "--out", str(design))
    res = tmp_path / "rdgdd24.res"
    code1, out1 = run_cli("verify", str(design), str(res))
    code2, out2 = run_cli(
        "verify", str(design), str(res), "--jobs", "2"
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
    assert sorted(map(len, sub.groups)) == [3] * 7
    code, out = run_cli("verify", str(out_file))
    assert code == 0 and out.startswith("PASS")


def test_negative_strength_exits_2_in_verify_and_report(tmp_path, capsys):
    for name in ("sqs8", "rdgdd24"):
        path = tmp_path / f"{name}.design"
        run_cli("gen", name, "--out", str(path))
        path.write_text(path.read_text().replace("\nT 3\n", "\nT -1\n", 1))
        capsys.readouterr()
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: line 2: T -1 is negative\n"
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    shutil.copy(tmp_path / "rdgdd24.design", out_dir / "design.design")
    assert main(["report", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {out_dir / 'design.design'}: line 2: T -1 is negative\n"


def test_derive_of_a_strength_0_design_exits_2_writing_nothing(tmp_path, capsys):
    path = tmp_path / "sqs8.design"
    run_cli("gen", "sqs8", "--out", str(path))
    path.write_text(path.read_text().replace("\nT 3\n", "\nT 0\n", 1))
    out_file = tmp_path / "derived.design"
    capsys.readouterr()
    assert main(["derive", str(path), "inf_0", "--out", str(out_file)]) == 2
    assert capsys.readouterr().err == "error: a design of strength 0 has no derived design\n"
    assert not out_file.exists()


def test_strength_above_every_block_size_exits_2_and_strength_0_fails_verify(tmp_path, capsys):
    path = tmp_path / "sqs8.design"
    run_cli("gen", "sqs8", "--out", str(path))
    text = path.read_text()
    path.write_text(text.replace("\nT 3\n", "\nT 5\n", 1))
    message = "line 2: T 5 is above every block size in K=[4]\n"
    out_file = tmp_path / "derived.design"
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}")
    assert main(["derive", str(path), "inf_0", "--out", str(out_file)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}"
    assert not out_file.exists()
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    shutil.copy(path, out_dir / "design.design")
    assert main(["report", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {out_dir / 'design.design'}: {message}"
    # strength 0 parses (derive of a strength-1 design writes it), and no
    # block count is asked of an S(0, 4, 8): the coverage check fails
    path.write_text(text.replace("\nT 3\n", "\nT 0\n", 1))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr() == ("FAIL steiner coverage {'blocks': 14}\n", "")


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


def test_resolve_without_a_budget_uses_the_default_budget(tmp_path, monkeypatch):
    design = tmp_path / "sqs8.design"
    run_cli("gen", "sqs8", "--out", str(design))
    budgets, default = [], resolver.DEFAULT_BUDGET
    find_resolution = resolver.find_resolution

    def recording(blocks, ground, budget):
        budgets.append(budget)
        return find_resolution(blocks, ground, budget=budget)

    monkeypatch.setattr(resolver, "find_resolution", recording)
    assert run_cli("resolve", str(design))[0] == 0
    assert run_cli("resolve", str(design), "--budget", "50")[0] == 0
    monkeypatch.setattr(resolver, "DEFAULT_BUDGET", 7)
    assert run_cli("resolve", str(design))[0] == 1  # read when resolve runs
    assert budgets == [default, 50, 7]


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


def test_resolve_out_of_the_whole_design_verifies(tmp_path):
    # without --point, resolve writes a POINT * section: a resolution of
    # the design itself, which verify checks with one claim line
    design = tmp_path / "sqs16.design"
    run_cli("gen", "sqs16", "--out", str(design))
    sts15 = tmp_path / "sts15.design"
    run_cli("derive", str(design), "0", "--out", str(sts15))
    res = tmp_path / "w.res"
    code, out = run_cli("resolve", str(sts15), "--out", str(res))
    assert code == 0 and out.startswith("FOUND design")
    code, out = run_cli("verify", str(sts15), str(res))
    assert code == 0
    assert out.splitlines()[1:] == ["PASS resolution of the design classes=7"]
    lines = res.read_text().splitlines()
    assert _swap_block(lines, random.Random(0)) == "*"
    res.write_text("\n".join(lines) + "\n")
    code, out = run_cli("verify", str(sts15), str(res))
    assert code == 1
    assert out.splitlines()[1].startswith("FAIL resolution of the design classes=7 ")


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
    code, out = run_cli("verify", str(design), str(star))
    assert code == 0
    assert "PASS star certificate {'points': 28, 'blocks': 819}\n" in out
    # the shipped file construct builds from is the file verified here
    shipped = read_data("sqs28_star.star").encode()
    assert hashlib.sha256(shipped).hexdigest() == GEN_SHA256["sqs28.star"]


def test_star_seeds_that_cover_part_of_the_points_exit_1(tmp_path, capsys):
    # a file of the four seeds 0_0..0_3 is not carried round any orbit:
    # the other 24 points have no certificate
    design = tmp_path / "sqs28.design"
    run_cli("gen", "sqs28", "--out", str(design))
    d = catalog.sqs28()
    shipped = parse_star(read_data("sqs28_star.star"), d)
    star = tmp_path / "seeds.star"
    star.write_text(emit_star(d, {p: shipped[p] for p in ("0_0", "0_1", "0_2", "0_3")}))
    capsys.readouterr()
    code, out = run_cli("verify", str(design), str(star))
    assert code == 1
    assert out.splitlines()[1] == "FAIL star certificate {'points': 4, 'blocks': 819}"
    missing = [lab.text for lab in d.labels[4:8]]
    assert capsys.readouterr().err == (
        str([("point without certificate", p) for p in missing]) + "\n"
    )
    out_dir = tmp_path / "out"
    proc = run_cli_process("construct", str(star), str(out_dir), "--design", str(design))
    assert proc.returncode == 1 and proc.stdout == "" and not out_dir.exists()
    assert "Traceback" not in proc.stderr
    first = re.escape("error: star certificate failed: [('point without certificate', '1_0'),")
    assert re.fullmatch(first + r"[^\n]*\n", proc.stderr), proc.stderr


def test_verify_with_a_star_certificate_proves_steiner_coverage_once(tmp_path, monkeypatch):
    design = tmp_path / "sqs28.design"
    run_cli("gen", "sqs28", "--out", str(design))
    calls = []

    def counted(d, *args, **kwargs):
        calls.append(d.v)
        return verify_steiner(d, *args, **kwargs)

    monkeypatch.setattr("quadsys.cli.verify_steiner", counted)
    monkeypatch.setattr("quadsys.star.verify_steiner", counted)
    code, out = run_cli("verify", str(design), str(tmp_path / "sqs28.star"))
    assert code == 0 and calls == [28]
    assert out == (
        "PASS steiner coverage {'expected_blocks': 819, 'blocks': 819}\n"
        "PASS star certificate {'points': 28, 'blocks': 819}\n"
    )


def _counting_star_point_proofs(monkeypatch):
    """The points ``verify_star_point`` is called on from now on."""
    points = []

    def counted(d, cert):
        points.append(cert.point)
        return verify_star_point(d, cert)

    monkeypatch.setattr("quadsys.star.verify_star_point", counted)
    return points


def test_verify_and_construct_prove_each_star_point_once(tmp_path, monkeypatch, construct_out):
    design = tmp_path / "sqs28.design"
    run_cli("gen", "sqs28", "--out", str(design))
    seeds = tmp_path / "seeds.star"
    seeds.write_text(read_data("sqs28_star.star"))
    points = _counting_star_point_proofs(monkeypatch)
    code, _ = run_cli("verify", str(design), str(seeds))
    assert code == 0 and sorted(points) == list(range(28))
    assert sorted(construct_out[2]) == list(range(28))


@pytest.fixture(scope="module")
def construct_out(tmp_path_factory):
    """`gen sqs28` + `construct sqs28.star --design sqs28.design --jobs 2`,
    built once for the tests that read it; (exit code, output directory,
    the points construct proved a star certificate at)."""
    tmp = tmp_path_factory.mktemp("construct")
    design = tmp / "sqs28.design"
    run_cli("gen", "sqs28", "--out", str(design))
    out_dir = tmp / "out"
    with pytest.MonkeyPatch.context() as m:
        points = _counting_star_point_proofs(m)
        code, _ = run_cli(
            "construct", str(tmp / "sqs28.star"), str(out_dir),
            "--design", str(design), "--jobs", "2",
        )
    return code, out_dir, points


def test_construct_writes_each_point_file_as_it_is_proved(tmp_path, monkeypatch):
    design = tmp_path / "sqs28.design"
    run_cli("gen", "sqs28", "--out", str(design))
    out_dir = tmp_path / "out"
    on_disk = []
    point_job = cli._point_job

    def counting_job(p):
        on_disk.append(len(list(out_dir.glob("point_*.res"))))
        return point_job(p)

    monkeypatch.setattr(cli, "_point_job", counting_job)
    code, _ = run_cli(
        "construct", str(tmp_path / "sqs28.star"), str(out_dir),
        "--design", str(design), "--jobs", "1",
    )
    assert code == 0
    assert on_disk == list(range(112))
    assert tree_sha256(out_dir) == CONSTRUCT_SQS28_SHA256


def test_no_subcommand_imports_a_process_pool(tmp_path):
    # importing the cli loads no multiprocessing, and every subcommand, with
    # construct and report on two workers, leaves concurrent.futures unloaded
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    code = (
        "import sys, quadsys.cli as cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in\n"
        "             ('multiprocessing', 'concurrent')))\n"
        "for argv in (['gen', 'sqs8'], ['verify', 'sqs8.design'], ['derive', 'sqs8.design', '0'],\n"
        "             ['resolve', 'sqs8.design'], ['gen', 'sqs28'],\n"
        "             ['construct', 'sqs28.star', 'out', '--design', 'sqs28.design', '--jobs', '2'],\n"
        "             ['report', 'out']):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == lines[-1] == "[]"
    assert lines[-2] == "PASS every point resolved 112/112"


def test_construct_on_two_jobs_deals_out_whole_star_points(tmp_path, monkeypatch):
    """A run of jobs is the four fibres of one star point, so each star
    point's plan is built once; worker w of 2 takes every other run from w."""
    design = tmp_path / "sqs28.design"
    run_cli("gen", "sqs28", "--out", str(design))
    out_dir = tmp_path / "out"
    log = tmp_path / "log"  # the workers append a line per record

    def record(*what):
        with open(log, "a", encoding="utf-8") as f:
            f.write(json.dumps(what) + "\n")

    work = cli._work
    occurrence_map = quadruple.occurrence_map
    monkeypatch.setattr(cli, "_work", lambda fd, func, runs: record(
        "runs", os.getpid(), [list(r) for r in runs]) or work(fd, func, runs))
    monkeypatch.setattr(quadruple, "occurrence_map",
                        lambda pc: record("plan", pc.point) or occurrence_map(pc))
    code, _ = run_cli(
        "construct", str(tmp_path / "sqs28.star"), str(out_dir),
        "--design", str(design), "--jobs", "2",
    )
    assert code == 0 and tree_sha256(out_dir) == CONSTRUCT_SQS28_SHA256
    records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    dealt = sorted(r[2] for r in records if r[0] == "runs")
    want = [[4 * x + i for i in range(4)] for x in range(28)]
    assert dealt == [want[0::2], want[1::2]]
    assert len({r[1] for r in records if r[0] == "runs"}) == 2
    assert sorted(r[1] for r in records if r[0] == "plan") == list(range(28))


def test_importing_the_cli_compiles_no_subcommand_module():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    code = "import sys, quadsys.cli; print(sorted(m for m in sys.modules if 'quadsys' in m))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == str(["quadsys", "quadsys.cli", "quadsys.core", "quadsys.formats",
                               "quadsys.star"]) + "\n"


def test_the_package_still_exports_the_names_it_loads_on_first_use():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    code = (
        "import quadsys\n"
        "from quadsys import sqs28, QuadrupleAssembly, find_resolution, Gdd\n"
        "from quadsys import catalog, core, quadruple, resolver\n"
        "print(sqs28 is catalog.sqs28, QuadrupleAssembly is quadruple.QuadrupleAssembly,\n"
        "      find_resolution is resolver.find_resolution, Gdd is core.Gdd,\n"
        "      hasattr(quadsys, 'nosuch'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout == "True True True True False\n", proc.stderr


def test_construct_and_report(construct_out):
    code, out_dir, _ = construct_out
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
    code, out, err = report_both_ways(out_dir)
    assert code == 0 and err == ""
    assert "PASS every point resolved 112/112" in out


def test_report_names_the_point_of_a_corrupted_resolution_file(construct_out, tmp_path):
    out_dir = tmp_path / "out"
    shutil.copytree(construct_out[1], out_dir)
    path = sorted(out_dir.glob("point_*.res"))[40]
    lines = path.read_text().splitlines()
    point = _swap_block(lines, random.Random(0))
    assert path.name == f"point_{point}.res"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = report_both_ways(out_dir)
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith(f"FAIL derived resolution at {point} ")
    assert out.splitlines()[-1] == "PASS every point resolved 112/112"


def test_report_names_the_resolution_file_that_fails_to_parse(construct_out, tmp_path):
    out_dir = tmp_path / "out"
    shutil.copytree(construct_out[1], out_dir)
    path = out_dir / "point_19_0.res"
    lines = path.read_text().splitlines()
    tok = lines[4].split()
    lines[4] = " ".join(["99_9"] + tok[1:])
    path.write_text("\n".join(lines) + "\n")
    code, out, err = report_both_ways(out_dir)
    assert code == 2
    assert err == f"error: {path}: line 5: unknown label '99_9'\n"
    # the claims of the files before it, and none after
    before = sorted(out_dir.glob("point_*.res")).index(path)
    assert len(out.splitlines()) == 1 + before
    assert out.splitlines()[-1].startswith("PASS derived resolution at ")


def test_report_of_a_point_file_that_is_a_directory_or_of_none(construct_out, tmp_path):
    out_dir = tmp_path / "out"
    shutil.copytree(construct_out[1], out_dir)
    path = out_dir / "point_0_2.res"
    path.unlink()
    path.mkdir()
    code, out, err = report_both_ways(out_dir)
    assert code == 2 and out.count("\n") == 3  # steiner, 0_0 and 0_1
    assert re.fullmatch(rf"error: \[Errno \d+\] Is a directory: {re.escape(repr(str(path)))}\n", err)
    path.rmdir()
    for res in out_dir.glob("point_*.res"):
        res.unlink()
    code, out, err = report_both_ways(out_dir)
    assert code == 1 and err == "" and out.splitlines()[-1] == "FAIL every point resolved 0/112"


def _sqs22_point_files(out_dir):
    """A report directory of SQS(22) resolutions, one file per point."""
    out_dir.mkdir()
    run_cli("gen", "sqs22", "--out", str(out_dir / "design.design"))
    d = catalog.sqs22()
    sections = parse_resolution((out_dir / "design.res").read_text(), d)
    (out_dir / "design.res").unlink()
    for point, classes in sections.items():
        text = emit_resolution(d, {point: classes})
        (out_dir / f"point_{point}.res").write_text(text)


def test_report_on_a_pool_prints_each_claim_once_through_a_pipe(tmp_path):
    # a worker that flushed the stdout buffer it inherits would print the
    # claims made before the fork a second time
    out_dir = tmp_path / "out"
    _sqs22_point_files(out_dir)
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from quadsys.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, "-c", code, "report", str(out_dir)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == len(set(lines)) == 24
    assert lines[0].startswith("PASS steiner coverage ")
    assert sum(line.startswith("PASS derived resolution at ") for line in lines) == 22
    assert lines[-1] == "PASS every point resolved 22/22"


def test_a_parse_error_in_a_pool_job_reaches_the_caller_intact():
    good = emit_design(catalog.sqs8())
    lines = good.splitlines()
    lines[-1] = " ".join(["99_9"] + lines[-1].split()[1:])
    results = cli._map_jobs(2, parse_design, [good, "\n".join(lines) + "\n"], None)
    assert next(results).v == 8
    with pytest.raises(ParseError) as err:
        next(results)
    assert str(err.value) == f"line {len(lines)}: unknown label '99_9'"
    assert err.value.line == len(lines)


def _dies_at(target, how):
    """A job that returns its item, except that at ``target`` it ends its
    worker process by ``how``; run in this process it raises instead, so it
    can never end the test run."""
    parent = os.getpid()

    def job(item):
        if item == target:
            assert os.getpid() != parent, "the job ran in process"
            how()
        return item

    return job


def _exit_3():
    os._exit(3)


def _kill_9():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("how, says", [(_exit_3, "exited with status 3"),
                                       (_kill_9, "was killed by signal 9")])
def test_a_worker_that_dies_is_an_error_not_a_traceback(how, says):
    results = cli._map_jobs(2, _dies_at(1, how), range(6), None)
    assert next(results) == 0
    with pytest.raises(ChildProcessError) as err:
        next(results)
    assert str(err.value) == f"a worker {says} before it sent its results"
    with pytest.raises(ChildProcessError):  # both workers were reaped
        os.waitpid(-1, os.WNOHANG)


def test_a_dead_report_worker_exits_2_with_one_error_line(tmp_path, monkeypatch):
    out_dir = tmp_path / "out"
    _sqs22_point_files(out_dir)
    verify_file = cli._verify_res_file
    die = _dies_at(out_dir / "point_5.res", _exit_3)
    monkeypatch.setattr(cli, "_verify_res_file", lambda path: verify_file(die(path)))
    code, out, err = report_on(out_dir, {0, 1})
    assert code == 2
    assert err == "error: a worker exited with status 3 before it sent its results\n"


def test_jobs_run_in_process_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    pids = list(cli._map_jobs(2, lambda item: os.getpid(), range(3), None))
    assert pids == [os.getpid()] * 3


def test_report_needs_every_point_once(tmp_path):
    # a second copy of one point must not stand in for a missing point
    out_dir = tmp_path / "out"
    _sqs22_point_files(out_dir)
    code, out = run_cli("report", str(out_dir))
    assert code == 0 and out.splitlines()[-1] == "PASS every point resolved 22/22"
    assert "PASS derived resolution at 7 classes=10" in out
    (out_dir / "point_7.res").write_text((out_dir / "point_8.res").read_text())
    code, out = run_cli("report", str(out_dir))
    assert code == 1 and out.splitlines()[-1] == "FAIL every point resolved 22/22"
    assert out.count("PASS derived resolution at 8 ") == 2
    for path in out_dir.glob("point_*.res"):
        path.unlink()
    code, out = run_cli("report", str(out_dir))
    assert code == 1 and out.splitlines()[-1] == "FAIL every point resolved 0/22"


def test_verify_needs_a_section_at_every_point(tmp_path):
    design = tmp_path / "sqs22.design"
    run_cli("gen", "sqs22", "--out", str(design))
    res = tmp_path / "sqs22.res"
    lines = res.read_text().splitlines()
    starts = [i for i, line in enumerate(lines) if line.startswith("POINT ")]
    del lines[starts[7]:starts[8]]
    res.write_text("\n".join(lines) + "\n")
    code, out = run_cli("verify", str(design), str(res))
    assert code == 1 and out.splitlines()[-1] == "FAIL every point resolved 21/22"
    assert out.count("PASS") == 22  # steiner + the 21 sections left


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """A directory holding what `gen sqs22` and `gen sqs28` write."""
    tmp = tmp_path_factory.mktemp("gen")
    for name in ("sqs22", "sqs28"):
        run_cli("gen", name, "--out", str(tmp / f"{name}.design"))
    return tmp


@pytest.mark.parametrize("case", [
    "verify design", "verify RES", "verify STAR", "derive", "construct star",
    "construct --design", "resolve", "report design", "report point file",
])
def test_a_parse_error_names_its_file_in_every_subcommand(generated, tmp_path, capsys, case):
    gen, out = generated, tmp_path / "out"
    source, bad_name, argv = {
        "verify design": ("sqs22.design", "bad.design", ["verify", "BAD"]),
        "verify RES": ("sqs22.res", "bad.res", ["verify", gen / "sqs22.design", "BAD"]),
        "verify STAR": ("sqs28.star", "bad.star", ["verify", gen / "sqs28.design", "BAD"]),
        "derive": ("sqs22.design", "bad.design", ["derive", "BAD", "inf_0", "--out", out]),
        "construct star": (
            "sqs28.star", "bad.star", ["construct", "BAD", out, "--design", gen / "sqs28.design"]
        ),
        "construct --design": (
            "sqs28.design", "bad.design", ["construct", gen / "sqs28.star", out, "--design", "BAD"]
        ),
        "resolve": ("sqs22.design", "bad.design", ["resolve", "BAD"]),
        "report design": ("sqs22.design", "design.design", ["report", tmp_path]),
        "report point file": ("sqs22.res", "point_0.res", ["report", tmp_path]),
    }[case]
    if case == "report point file":
        shutil.copy(gen / "sqs22.design", tmp_path / "design.design")
    bad = tmp_path / bad_name
    lines = (gen / source).read_text().splitlines()
    lines[-1] = " ".join(["99_9"] + lines[-1].split()[1:])  # a block line in every format
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([str(bad) if arg == "BAD" else str(arg) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {bad}: line {len(lines)}: unknown label '99_9'\n"
    assert not out.exists()


def test_gen_unknown_name_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "nope.design"
    assert main(["gen", "nope", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (
        "error: no catalog design 'nope' "
        "(choose from rdgdd24, rdgdd42, sqs14, sqs16, sqs22, sqs28, sqs8)\n"
    )


def _one_error_line(proc, pattern):
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert re.fullmatch(rf"error: {pattern}[^\n]*\n", proc.stderr), proc.stderr


def test_gen_unknown_name_exits_2_with_one_line_naming_the_choices():
    proc = run_cli_process("gen", "nosuch")
    _one_error_line(proc, re.escape("no catalog design 'nosuch' (choose from rdgdd24, rdgdd42, "
                                    "sqs14, sqs16, sqs22, sqs28, sqs8)"))
    assert proc.stdout == ""


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
    proc = run_cli_process("verify", str(path))
    _one_error_line(proc, re.escape(f"{path}: line 4: malformed point label {label!r}"))


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
        "verify": ["verify", str(bad)],
        "derive": ["derive", str(bad), "inf_0", "--out", str(tmp_path / "d.design")],
        "construct": ["construct", str(bad), str(tmp_path / "built")],
        "resolve": ["resolve", str(bad)],
        "report": ["report", str(out_dir)],
    }[command]
    named = out_dir / "design.design" if command == "report" else bad
    proc = run_cli_process(*argv)
    _one_error_line(proc, re.escape(f"{named}: not UTF-8 text"))
    assert proc.stdout == ""


# sha256 of every file `gen <name> --out <name>.design` writes, for all
# seven catalog names
GEN_SHA256 = {
    "rdgdd24.design": "000e2ff90a36c73a56e204f2aaa0417ea6e3d9bc01baa8ca88bba0634d0d6f75",
    "rdgdd24.res": "cbecb524164fd7658d48e12072382c0b20b642cac476f7fc8f7d9609e24cf33c",
    "rdgdd42.design": "ada38be7ab049aeb25d3b2a80f0d0e9c7af75e6618f26b865234f35e7a6820d3",
    "rdgdd42.res": "21f4098cccd97a678f5757629e8bfd35d1806370f06bfb9972275d74ab2a44c2",
    "sqs14.design": "f2673a6f86847350f4d3b3e4386893b5d8e63a80a598d397d272256357aa712a",
    "sqs16.design": "a7b516b4673248cc028abc1b91c23f53013da42f7a29a81b56f6cda66841ea26",
    "sqs22.design": "22f893503a4f01a8175b668301b1b3da77cd128c680fa3c2372d5ba8ae9af82b",
    "sqs22.res": "d4333e838a59a5fd82b21eae559d81ed87c813c781333c6ca657e2250bcbaf3a",
    "sqs28.design": "5c2dfd7090318a09ecb30b1965d0282c9d1d061ca334fa1c6aeaf3037b869397",
    "sqs28.star": "27e3223673122f5f9f6308a83fe30ee8c6cd828c05bcbfa7146a4b9a7218e3f9",
    "sqs8.design": "f25776975912f442843e66ae84c70aee6c82d463a4401c565d54d1a77936b340",
}


def test_gen_output_is_pinned_for_every_catalog_name(tmp_path):
    for name in sorted(catalog.GENERATORS):
        code, _ = run_cli("gen", name, "--out", str(tmp_path / f"{name}.design"))
        assert code == 0
    written = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()
    }
    assert written == GEN_SHA256


def test_verify_on_a_directory_exits_2_naming_it(tmp_path):
    proc = run_cli_process("verify", str(tmp_path))
    _one_error_line(proc, rf"\[Errno \d+\] Is a directory: {re.escape(repr(str(tmp_path)))}")


def test_unreadable_input_exits_2_naming_it(tmp_path):
    # root reads any file, so the child drops to an unprivileged uid once
    # the package is imported; the interpreter's own library may be
    # unreadable to that uid, so argparse's lazy import of locale comes first
    design = tmp_path / "sqs8.design"
    run_cli("gen", "sqs8", "--out", str(design))
    design.chmod(0)
    code = (
        "import locale, os, sys\n"
        "from quadsys.cli import main\n"
        "if os.geteuid() == 0:\n"
        "    os.setgid(65534)\n"
        "    os.setuid(65534)\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", code, "verify", str(design)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    _one_error_line(proc, rf"\[Errno \d+\] Permission denied: {re.escape(repr(str(design)))}")


def test_construct_into_an_existing_file_exits_2_naming_it(tmp_path, monkeypatch, capsys):
    star = tmp_path / "seeds.star"
    star.write_text(read_data("sqs28_star.star"))
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    proc = run_cli_process("construct", str(star), str(out))
    _one_error_line(proc, rf"\[Errno \d+\] File exists: {re.escape(repr(str(out)))}")
    assert out.read_text() == "not a directory\n"
    # the path is rejected before the certificate is built or assembled
    proofs = []
    monkeypatch.setattr("quadsys.cli.StarCertificate", lambda *a: proofs.append("load"))
    monkeypatch.setattr("quadsys.quadruple.checked_assembly", lambda *a: proofs.append("assembly"))
    assert main(["construct", str(star), str(out)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: \[Errno \d+\] File exists: {re.escape(repr(str(out)))}\n", err)
    assert proofs == []


def test_construct_whose_assembly_fails_writes_no_output_directory(tmp_path, monkeypatch, capsys):
    star = tmp_path / "seeds.star"
    star.write_text(read_data("sqs28_star.star"))

    def failing_assembly(cert):
        raise DesignError("assembled blocks are not a Steiner system")

    monkeypatch.setattr("quadsys.quadruple.checked_assembly", failing_assembly)
    out = tmp_path / "out"
    assert main(["construct", str(star), str(out)]) == 1
    assert capsys.readouterr().err == "error: assembled blocks are not a Steiner system\n"
    assert not out.exists()


def test_construct_with_a_gdd_companion_exits_1_and_writes_nothing(tmp_path, capsys):
    gdd = tmp_path / "rdgdd24.design"
    run_cli("gen", "rdgdd24", "--out", str(gdd))
    star = tmp_path / "seeds.star"
    star.write_text(read_data("sqs28_star.star"))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["construct", str(star), str(out), "--design", str(gdd)]) == 1
    assert capsys.readouterr() == ("", "error: the star companion must be a plain design\n")
    assert not out.exists()


@pytest.mark.parametrize("edit,message", [
    (lambda lines: lines[:5] + ["GROUP"] + lines[5:], "line 6: GROUP needs at least one label"),
    (lambda lines: lines[:6] + lines[5:], "line 7: label '0_0' is already in a GROUP"),
    (lambda lines: lines[:6] + lines[7:], "line 12: label '1_0' is in no GROUP"),
], ids=["empty GROUP", "label in two groups", "label in no group"])
def test_group_lines_that_do_not_partition_the_points_exit_2(tmp_path, capsys, edit, message):
    gen = tmp_path / "rdgdd24.design"
    run_cli("gen", "rdgdd24", "--out", str(gen))
    bad = tmp_path / "bad.design"
    bad.write_text("\n".join(edit(gen.read_text().splitlines())) + "\n")
    derived = tmp_path / "derived.design"
    capsys.readouterr()
    for argv in (["verify", str(bad)], ["derive", str(bad), "1_0", "--out", str(derived)]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {bad}: {message}\n")
    assert not derived.exists()


NO_KIND = "{cert}: a certificate needs a KIND RES or KIND STAR"


@pytest.mark.parametrize("name,text,message", [
    ("sqs8", "KIND SQS\n", NO_KIND),
    ("sqs8", "POINT inf_0\nCLASS\n0 1 3\n", NO_KIND),
    ("sqs16", read_data("sqs28_star.star"), "{cert}: line 2: unknown point label '0_0'"),
    ("sqs16", read_data("sqs22_derived.res"), "{cert}: line 4: unknown label '5'"),
], ids=["design as certificate", "no KIND line", "star file of another design",
        "resolution file of another design"])
def test_certificate_without_res_or_star_kind_exits_2(tmp_path, name, text, message):
    # the certificate is read whole before the first proof: stdout stays empty
    design = tmp_path / f"{name}.design"
    run_cli("gen", name, "--out", str(design))
    cert = tmp_path / "cert.txt"
    cert.write_text(text)
    proc = run_cli_process("verify", str(design), str(cert))
    _one_error_line(proc, re.escape(message.format(cert=cert)))
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# certificate negative controls: mutated resolution and star files


def _sections(lines, header):
    """(start, end) line ranges of the sections opened by ``header`` lines;
    a section ends at the next structural line that is not a block."""
    starts = [i for i, line in enumerate(lines) if line == header]
    out = []
    for s in starts:
        e = s + 1
        while e < len(lines) and lines[e].split()[0] not in (
            "POINT", "CLASS", "GROUP", "COMMON", "SPECIAL"
        ):
            e += 1
        out.append((s, e))
    return out


def _point_of(lines, i):
    return next(lines[j].split()[1] for j in range(i, -1, -1) if lines[j].startswith("POINT "))


def _group_of(lines, i):
    return next(j for j in range(i, -1, -1) if lines[j].startswith("COMMON "))


def _swap_block(lines, rng):
    classes = _sections(lines, "CLASS")
    while True:
        (a0, a1), (b0, b1) = rng.sample(classes, 2)
        point = _point_of(lines, a0)
        if point != _point_of(lines, b0):
            continue
        i, j = rng.randrange(a0 + 1, a1), rng.randrange(b0 + 1, b1)
        if lines[i] != lines[j]:
            lines[i], lines[j] = lines[j], lines[i]
            return point


def _drop_class(lines, rng):
    s, e = rng.choice(_sections(lines, "CLASS"))
    point = _point_of(lines, s)
    del lines[s:e]
    return point


def _duplicate_class(lines, rng):
    s, e = rng.choice(_sections(lines, "CLASS"))
    lines[e:e] = lines[s:e]
    return _point_of(lines, s)


def _copy_class_over_another(lines, rng):
    """Drop one class of a star point and duplicate another in its place:
    the star format fixes three classes per group, so this is how a class
    goes missing or doubles without the parser rejecting the file."""
    classes = _sections(lines, "CLASS")
    while True:
        (a0, a1), (b0, b1) = rng.sample(classes, 2)
        point = _point_of(lines, a0)
        if point == _point_of(lines, b0) and lines[a0:a1] != lines[b0:b1]:
            lines[b0:b1] = lines[a0:a1]
            return point


def _corrupt_common(lines, rng):
    commons = [i for i, line in enumerate(lines) if line.startswith("COMMON ")]
    while True:
        i, j = rng.sample(commons, 2)
        point = _point_of(lines, i)
        if point == _point_of(lines, j):
            lines[i] = lines[j]
            return point


def _swap_classes_across_groups(lines, rng):
    classes = _sections(lines, "CLASS")
    while True:
        (a0, a1), (b0, b1) = sorted(rng.sample(classes, 2))
        point = _point_of(lines, a0)
        if point == _point_of(lines, b0) and _group_of(lines, a0) != _group_of(lines, b0):
            lines[b0:b1], lines[a0:a1] = lines[a0:a1], lines[b0:b1]
            return point


CERT_MUTATIONS = {
    "res": (_swap_block, _drop_class, _duplicate_class),
    "star": (_swap_block, _copy_class_over_another, _corrupt_common,
             _swap_classes_across_groups),
}


@pytest.mark.parametrize("cert_name,kind", [
    ("sqs22.res", "res"), ("rdgdd24.res", "res"), ("rdgdd42.res", "res"),
    ("sqs28.star", "star"),
])
def test_verify_catches_every_certificate_mutation_at_its_point(
    tmp_path, capsys, cert_name, kind
):
    name = "sqs28" if kind == "star" else cert_name.split(".")[0]
    design = tmp_path / f"{name}.design"
    run_cli("gen", name, "--out", str(design))
    text = (tmp_path / cert_name).read_text()
    rng = random.Random(0)
    bad = tmp_path / f"bad_{cert_name}"
    for mutate in CERT_MUTATIONS[kind]:
        for _ in range(2):
            lines = text.splitlines()
            point = mutate(lines, rng)
            bad.write_text("\n".join(lines) + "\n")
            capsys.readouterr()
            code, out = run_cli("verify", str(design), str(bad))
            err = capsys.readouterr().err
            named = (
                f"FAIL derived resolution at {point} " in out
                or f"('point {point}'," in err
                or f"error: star certificate at {point} failed" in err
            )
            assert code == 1 and named, (mutate.__name__, point, out[-300:], err[:300])
