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
from itertools import chain
from pathlib import Path

import pytest

from quadsys import (
    DesignError,
    Gdd,
    catalog,
    cli,
    core,
    formats,
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
        ("KIND SQS\nT 3\nT 2\nK 4\n", 3),
        ("KIND SQS x\nT 3\nK 4\n", 1),
        ("KIND SQS\nT 3 4\nK 4\n", 2),
        ("KIND SQS\nT 3\nV 4 4\nK 4\n", 3),
        ("KIND SQS\nT 3\nK 4\nPOINTS\n", 4),
        ("KIND SQS\nT 3\nK 4\nGROUP\n", 4),
        # header integers are ASCII digits, and a block size is at least 1
        ("KIND SQS\nT 3\nK 4 99_9\n", 3),
        ("KIND SQS\nT 3\nK 4 -1\n", 3),
        ("KIND SQS\nT 3\nK 4 0\n", 3),
        ("KIND SQS\nT +3\nK 4\n", 2),
        ("KIND SQS\nT 3\nK \u0664\n", 3),
    ],
    ids=["bare KIND", "bare T", "T x", "T -1", "bare V", "V 4.0", "bare K", "K 4 y", "T twice",
         "KIND SQS x", "T 3 4", "V 4 4", "bare POINTS", "bare GROUP", "K 4 99_9", "K 4 -1",
         "K 4 0", "T +3", "K non-ASCII digit"],
)
def test_malformed_header_exits_2_with_one_line(tmp_path, header, line):
    path = tmp_path / "bad.design"
    path.write_text(header + "POINTS 0 1 2 3\n0 1 2 3\n", encoding="utf-8")
    proc = run_cli_process("verify", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    stderr = re.escape(f"error: {path}: line {line}: ")
    assert re.fullmatch(stderr + r"[^\n]+\n", proc.stderr), proc.stderr


@pytest.mark.parametrize("command", ["verify", "construct"])
def test_jobs_below_one_is_a_usage_error(tmp_path, command, capsys):
    # verify takes no --jobs at all: it proves in one process
    design = tmp_path / "sqs8.design"
    run_cli("gen", "sqs8", "--out", str(design))
    argv, says = {
        "verify": (["verify", str(design)], "unrecognized arguments: --jobs 0"),
        "construct": (["construct", str(tmp_path / "none.star"), str(tmp_path / "out")],
                      "--jobs: must be at least 1, got 0"),
    }[command]
    with pytest.raises(SystemExit) as err:
        main(argv + ["--jobs", "0"])
    assert err.value.code == 2
    assert says in capsys.readouterr().err
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
    assert out.count("PASS") == 25  # steiner + 22 points + every point + the overlarge set
    assert out.splitlines()[-2:] == ["PASS every point resolved 22/22",
                                     "PASS overlarge set of KTS(21)"]


def _sqs4(tmp_path):
    """The files of an SQS(4), one block, and of its star certificate: at
    each point the derived design is one triple T, so the special class is
    {T} and the one group is T three times."""
    design = tmp_path / "sqs4.design"
    design.write_text("KIND SQS\nT 3\nV 4\nK 4\nPOINTS 0 1 2 3\n0 1 2 3\n")
    star = tmp_path / "sqs4.star"
    sections = []
    for x in "0123":
        triple = " ".join(y for y in "0123" if y != x)
        sections.append(f"POINT {x}\nSPECIAL\n{triple}\nGROUP 1\nCOMMON {triple}\n"
                        + f"CLASS\n{triple}\n" * 3)
    star.write_text("KIND STAR\n" + "".join(sections))
    return design, star


def test_jobs_flag_does_not_change_output(tmp_path):
    # construct's --jobs changes which process proves and writes each point
    # file, never a byte of the tree or of what report then says of it
    design, star = _sqs4(tmp_path)
    trees = []
    for jobs in ("1", "2"):
        out_dir = tmp_path / f"out{jobs}"
        code, out = run_cli("construct", str(star), str(out_dir), "--design", str(design),
                            "--jobs", jobs)
        assert (code, out) == (0, f"wrote {out_dir}/design.design, 16 resolution files, manifest.txt\n")
        trees.append((tree_sha256(out_dir), report_both_ways(out_dir)))
    assert trees[0] == trees[1]
    assert trees[0][1][1].splitlines()[-2:] == ["PASS every point resolved 16/16",
                                                "PASS overlarge set of KTS(15)"]


@pytest.mark.parametrize("command, line", [("verify", "CLASS"), ("derive", "GROUP 0"),
                                           ("construct", "POINTS 9"), ("report", "POINTS 99")])
def test_a_keyword_line_after_a_block_line_exits_2_with_one_line(tmp_path, capsys, command, line):
    # every keyword line of a design file comes before its first block line
    design, star = _sqs4(tmp_path)
    if command == "report":  # the workers fork on the header, and are reaped
        run_cli("construct", str(star), str(tmp_path / "out"), "--design", str(design))
        design = tmp_path / "out" / "design.design"
    design.write_text(design.read_text() + line + "\n")
    no = design.read_text().count("\n")
    if command == "report":
        code, out, err = report_on(tmp_path / "out", {0, 1})
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    else:
        capsys.readouterr()
        code = main({"verify": ["verify", str(design)],
                     "derive": ["derive", str(design), "0", "--out", str(tmp_path / "d.design")],
                     "construct": ["construct", str(star), str(tmp_path / "new"),
                                   "--design", str(design)]}[command])
        out, err = capsys.readouterr()
    key = line.split()[0]
    assert (code, out, err) == (2, "", f"error: {design}: line {no}: {key} after a block line\n")


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
    # the one pass that proves the SQS(112) is also its owner table, built
    # once; verify_steiner runs only on a design that fails it
    tables, owner_table = [], quadruple.owner_table
    monkeypatch.setattr(quadruple, "owner_table", lambda d: tables.append(d.v) or owner_table(d))
    monkeypatch.setattr(quadruple, "verify_steiner", None)
    code, _ = run_cli(
        "construct", str(tmp_path / "sqs28.star"), str(out_dir),
        "--design", str(design), "--jobs", "1",
    )
    assert code == 0
    assert on_disk == list(range(112)) and tables == [112]
    assert tree_sha256(out_dir) == CONSTRUCT_SQS28_SHA256


def test_construct_fails_at_exactly_the_point_whose_classes_are_corrupted(tmp_path, monkeypatch):
    # a negative control of the owner route: one triple swapped between the
    # first two classes at one point, on one job and on two
    design = tmp_path / "sqs28.design"
    run_cli("gen", "sqs28", "--out", str(design))
    point_classes = quadruple.QuadrupleAssembly.point_classes

    def corrupted(self, p):
        classes = point_classes(self, p)
        if p != 45:
            return classes
        one, two = list(classes[0]), list(classes[1])
        one[0], two[0] = two[0], one[0]
        return (tuple(sorted(one)), tuple(sorted(two))) + classes[2:]

    monkeypatch.setattr(quadruple.QuadrupleAssembly, "point_classes", corrupted)
    for jobs in ("1", "2"):
        out_dir = tmp_path / f"out{jobs}"
        code, _ = run_cli("construct", str(tmp_path / "sqs28.star"), str(out_dir),
                          "--design", str(design), "--jobs", jobs)
        manifest = (out_dir / "manifest.txt").read_text().splitlines()
        assert code == 1 and [line for line in manifest if "FAIL" in line] == [
            "point 11_1 classes=55 FAIL"]
        assert manifest[-1] == "resolved_points 111/112"


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
    assert lines[-3:-1] == ["PASS every point resolved 112/112", "PASS overlarge set of KTS(111)"]


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


def _catalog_point_files(out_dir, name="sqs22"):
    """A report directory of the shipped resolutions of the catalog design
    ``name``, one file per point."""
    out_dir.mkdir()
    run_cli("gen", name, "--out", str(out_dir / "design.design"))
    d = catalog.GENERATORS[name]()
    sections = parse_resolution((out_dir / "design.res").read_text(), d)
    (out_dir / "design.res").unlink()
    for point, classes in sections.items():
        text = emit_resolution(d, {point: classes})
        (out_dir / f"point_{point}.res").write_text(text)


def test_report_on_a_pool_prints_each_claim_once_through_a_pipe(tmp_path):
    # a worker that flushed the stdout buffer it inherits would print the
    # claims made before the fork a second time
    out_dir = tmp_path / "out"
    _catalog_point_files(out_dir)
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
    assert len(lines) == len(set(lines)) == 25
    assert lines[0].startswith("PASS steiner coverage ")
    assert sum(line.startswith("PASS derived resolution at ") for line in lines) == 22
    assert lines[-2:] == ["PASS every point resolved 22/22", "PASS overlarge set of KTS(21)"]


def test_a_parse_error_in_a_pool_job_reaches_the_caller_intact():
    good = emit_design(catalog.sqs8())
    lines = good.splitlines()
    lines[-1] = " ".join(["99_9"] + lines[-1].split()[1:])
    with cli._jobs(2, parse_design, [good, "\n".join(lines) + "\n"], None) as results:
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
    with cli._jobs(2, _dies_at(1, how), range(6), None) as results:
        assert next(results) == 0
        with pytest.raises(ChildProcessError) as err:
            next(results)
    assert str(err.value) == f"a worker {says} before it sent its results"
    with pytest.raises(ChildProcessError):  # both workers were reaped
        os.waitpid(-1, os.WNOHANG)


def test_a_dead_report_worker_exits_2_with_one_error_line(tmp_path, monkeypatch):
    # an SQS tree: the workers rank the point files for the owner route
    out_dir = tmp_path / "out"
    _catalog_point_files(out_dir)
    ranked_file = cli._ranked_file
    die = _dies_at(out_dir / "point_5.res", _exit_3)
    monkeypatch.setattr(cli, "_ranked_file", lambda path: ranked_file(die(path)))
    code, out, err = report_on(out_dir, {0, 1})
    assert code == 2
    assert err == "error: a worker exited with status 3 before it sent its results\n"
    with pytest.raises(ChildProcessError):  # both workers were reaped
        os.waitpid(-1, os.WNOHANG)


def test_a_dead_report_worker_on_a_gdd_tree_exits_2_with_one_error_line(tmp_path, monkeypatch):
    # a GDD tree takes today's route, each worker proving its files whole
    out_dir = tmp_path / "out"
    _catalog_point_files(out_dir, "rdgdd24")
    verify_file = cli._verify_res_file
    die = _dies_at(out_dir / "point_5_0.res", _exit_3)
    monkeypatch.setattr(cli, "_verify_res_file", lambda path: verify_file(die(path)))
    code, out, err = report_on(out_dir, {0, 1})
    assert code == 2
    assert err == "error: a worker exited with status 3 before it sent its results\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_jobs_run_in_process_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    with cli._jobs(2, lambda item: os.getpid(), range(3), None) as results:
        assert list(results) == [os.getpid()] * 3


def test_report_needs_every_point_once(tmp_path):
    # a second copy of one point must not stand in for a missing point
    out_dir = tmp_path / "out"
    _catalog_point_files(out_dir)
    code, out = run_cli("report", str(out_dir))
    assert code == 0 and out.splitlines()[-2:] == ["PASS every point resolved 22/22",
                                                   "PASS overlarge set of KTS(21)"]
    assert "PASS derived resolution at 7 classes=10" in out
    (out_dir / "point_7.res").write_text((out_dir / "point_8.res").read_text())
    code, out = run_cli("report", str(out_dir))
    assert code == 1 and out.splitlines()[-1] == "FAIL every point resolved 22/22"
    assert out.count("PASS derived resolution at 8 ") == 2
    for path in out_dir.glob("point_*.res"):
        path.unlink()
    code, out = run_cli("report", str(out_dir))
    assert code == 1 and out.splitlines()[-1] == "FAIL every point resolved 0/22"


# ---------------------------------------------------------------------------
# the owner route: on an S(3, 4, v) the workers rank each point file's
# triples while the parent reads the design and fills the owner table


def _relabelled(text, swap):
    """``text`` with each token that ``swap`` maps replaced by its image."""
    return "".join(" ".join(swap.get(tok, tok) for tok in line.split()) + "\n"
                   for line in text.splitlines())


def test_report_fails_at_each_point_whose_section_it_does_not_own(construct_out, tmp_path):
    out_dir = tmp_path / "out"
    shutil.copytree(construct_out[1], out_dir)
    design = parse_design((out_dir / "design.design").read_text())

    def edit(label, change):
        path = out_dir / f"point_{label}.res"
        lines = path.read_text().splitlines()
        i = lines.index("CLASS") + 1  # the first two triples of the first class
        lines[i], lines[i + 1] = change(lines[i], lines[i + 1])
        path.write_text("\n".join(lines) + "\n")

    # a label swapped between two block lines of one class: still a class
    edit("19_0", lambda one, two: (" ".join(two.split()[:1] + one.split()[1:]),
                                   " ".join(one.split()[:1] + two.split()[1:])))
    # one triple repeated and the one after it dropped
    edit("7_3", lambda one, two: (one, one))
    # the point files of x and y, each the other's relabelled by (x y):
    # each section resolves 3-sets on its own ground, but not its own 3-sets
    x, y = "3_1", "20_2"
    texts = {p: (out_dir / f"point_{p}.res").read_text() for p in (x, y)}
    for p, q in ((x, y), (y, x)):
        (out_dir / f"point_{p}.res").write_text(_relabelled(texts[q], {x: y, y: x}))
        (classes,) = parse_resolution(_relabelled(texts[q], {x: y, y: x}), design).values()
        flat = core.class_ids(design.v, classes)
        assert core.section_ranks(design.v, design.label_index[p], flat) is not None
    code, out, err = report_both_ways(out_dir)
    assert code == 1 and err == ""
    # each failing line is the frame route's claim, word for word
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    want = []
    for path in sorted(out_dir.glob("point_*.res")):
        for point, classes in parse_resolution(path.read_text(), design).items():
            point, passed, detail = cli._resolution_claim(design, point, classes)
            if not passed:
                want.append(f"FAIL derived resolution at {point} {detail}")
    assert failed == want and len(want) == 4
    assert [line.split()[4] for line in failed] == ["19_0", "20_2", "3_1", "7_3"]
    assert out.splitlines()[-1] == "PASS every point resolved 112/112"


def test_a_design_that_breaks_after_its_header_exits_2_and_reaps_every_worker(
    construct_out, tmp_path
):
    out_dir = tmp_path / "out"
    shutil.copytree(construct_out[1], out_dir)
    path = out_dir / "design.design"
    lines = path.read_text().splitlines()
    lines[-1] = " ".join(["99_9"] + lines[-1].split()[1:])
    path.write_text("\n".join(lines) + "\n")
    code, out, err = report_both_ways(out_dir)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: line {len(lines)}: unknown label '99_9'\n"
    with pytest.raises(ChildProcessError):  # the workers forked on the header are reaped
        os.waitpid(-1, os.WNOHANG)


def test_report_on_an_sqs_that_fails_its_steiner_check_proves_each_section_by_frame(tmp_path):
    out_dir = tmp_path / "out"
    _catalog_point_files(out_dir)
    path = out_dir / "design.design"
    lines = path.read_text().splitlines()
    lines[-1] = lines[-2]  # a block repeated, another gone
    path.write_text("\n".join(lines) + "\n")
    design = parse_design(path.read_text())
    code, out, err = report_both_ways(out_dir)
    assert code == 1 and err == ""
    want = []
    for res in sorted(out_dir.glob("point_*.res")):
        for point, classes in parse_resolution(res.read_text(), design).items():
            point, passed, detail = cli._resolution_claim(design, point, classes)
            want.append(f"{'PASS' if passed else 'FAIL'} derived resolution at {point} {detail}")
    lines = out.splitlines()
    assert lines[0].startswith("FAIL steiner coverage ")
    assert lines[1:] == want + ["PASS every point resolved 22/22"]
    assert 0 < sum(line.startswith("FAIL") for line in want) < 22


def test_report_on_an_sqs_that_fails_its_steiner_check_proves_on_fresh_workers(tmp_path,
                                                                             monkeypatch):
    # the workers that ranked on the header are reaped, and the frame route
    # runs on workers forked for it, each parsing its own files once
    out_dir = tmp_path / "out"
    _catalog_point_files(out_dir)
    path = out_dir / "design.design"
    lines = path.read_text().splitlines()
    lines[-1] = lines[-2]
    path.write_text("\n".join(lines) + "\n")
    log = tmp_path / "log"
    verify_file, parse = cli._verify_res_file, formats.parse_resolution

    def record(what, result):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{what} {os.getpid()}\n")
        return result

    monkeypatch.setattr(cli, "_verify_res_file", lambda p: record("file", verify_file(p)))
    monkeypatch.setattr(formats, "parse_resolution", lambda *a: record("parse", parse(*a)))
    code, out, err = report_on(out_dir, {0, 1})
    assert code == 1 and err == "" and out.startswith("FAIL steiner coverage ")
    records = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    assert sum(what == "file" for what, _ in records) == 22
    assert sum(what == "parse" for what, _ in records) == 22  # each file once, on a worker
    pids = {int(pid) for _, pid in records}
    assert len(pids) == 2 and os.getpid() not in pids
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_report_takes_the_labels_of_the_header_alone(tmp_path):
    # labels on a POINTS line after the blocks are not the header's: the
    # header fails at its V line, or without one the first block that names
    # a later label fails; either way before any worker forks
    out_dir = tmp_path / "out"
    _catalog_point_files(out_dir)
    code, canonical, err = report_both_ways(out_dir)
    assert (code, err) == (0, "")
    assert canonical.splitlines()[-1] == "PASS overlarge set of KTS(21)"
    path = out_dir / "design.design"
    lines = path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("POINTS "))
    labels = lines[at].split()[1:]
    lines[at] = "POINTS " + " ".join(labels[:11])
    lines.append("POINTS " + " ".join(labels[11:]))
    first = next(i for i, line in enumerate(lines) if set(line.split()) & set(labels[11:]))
    assert lines[2] == "V 22" and lines[first - 1][:1].isdigit()
    for text, says in (
        ("\n".join(lines) + "\n", "line 3: V 22 does not match 11 labels"),
        ("\n".join(lines[:2] + lines[3:]) + "\n", f"line {first}: unknown label "),
    ):
        path.write_text(text)
        code, out, err = report_both_ways(out_dir)
        assert (code, out) == (2, "") and err.startswith(f"error: {path}: {says}")
        assert err.count("\n") == 1
        with pytest.raises(ChildProcessError):  # no worker was left
            os.waitpid(-1, os.WNOHANG)
    # a GDD takes the frame route and makes no overlarge-set claim
    gdd = tmp_path / "gdd"
    _catalog_point_files(gdd, "rdgdd24")
    code, out, err = report_both_ways(gdd)
    assert (code, err) == (0, "") and out.splitlines()[-1] == "PASS every point resolved 24/24"


def test_verify_makes_the_claims_report_makes_on_the_same_sections(tmp_path):
    # verify proves by the frame route, report by the owner route: the same
    # lines, passing and failing, in point order and in file order
    out_dir = tmp_path / "out"
    _catalog_point_files(out_dir)
    res = tmp_path / "sqs22.res"
    for bad in (None, "point_7.res", "point_12.res"):
        if bad:  # one label swapped between two triples of a class
            lines = (out_dir / bad).read_text().splitlines()
            (a, *bc), (d, *ef) = lines[3].split(), lines[4].split()
            lines[3:5] = [" ".join([d, *bc]), " ".join([a, *ef])]
            (out_dir / bad).write_text("\n".join(lines) + "\n")
        files = sorted(out_dir.glob("point_*.res"))
        res.write_text("KIND RES\n" + "".join(p.read_text().split("\n", 1)[1] for p in files))
        code, out = run_cli("verify", str(out_dir / "design.design"), str(res))
        by_report = report_on(out_dir, {0})
        assert by_report[1] != out  # in another order
        assert (code, sorted(out.splitlines())) == (by_report[0], sorted(by_report[1].splitlines()))
        assert out.count("FAIL derived resolution") == (bad is not None) + (bad == "point_12.res")
    assert code == 1 and "overlarge" not in out
    design = tmp_path / "sqs22.design"
    run_cli("gen", "sqs22", "--out", str(design))
    res = tmp_path / "sqs22.res"
    code, out = run_cli("verify", str(design), str(res))
    assert code == 0 and out.splitlines()[-1] == "PASS overlarge set of KTS(21)"
    # a certificate with a POINT * section claims no overlarge set
    text = res.read_text()
    whole = emit_resolution(catalog.sqs22(), {formats.WHOLE: catalog.sqs22_resolutions()["0"].classes})
    res.write_text(text + whole.split("\n", 1)[1])
    code, out = run_cli("verify", str(design), str(res))
    assert code == 1 and "overlarge" not in out
    assert out.splitlines()[-1] == "PASS every point resolved 22/22"


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


# (certificate, its line to change, counted from 0, the new line or, for a
# line inserted there, "+" and the line, the error)
_CERTIFICATE_KEYWORDS = {
    "RES KIND x": ("sqs22.res", 0, "KIND RES x", "line 1: KIND takes exactly one value"),
    "RES bare KIND": ("sqs22.res", 0, "KIND", "line 1: KIND takes exactly one value"),
    "RES second KIND": ("sqs22.res", 2, "+KIND RES", "line 3: duplicate KIND line"),
    "RES POINT 0 x": ("sqs22.res", 1, "POINT 0 x", "line 2: POINT takes exactly one value"),
    "RES bare POINT": ("sqs22.res", 1, "POINT", "line 2: POINT takes exactly one value"),
    "RES CLASS 5 junk": ("sqs22.res", 2, "CLASS 5 junk", "line 3: CLASS takes no value"),
    "STAR KIND x": ("sqs28.star", 0, "KIND STAR x", "line 1: KIND takes exactly one value"),
    "STAR bare KIND": ("sqs28.star", 0, "KIND", "line 1: KIND takes exactly one value"),
    "STAR second KIND": ("sqs28.star", 2, "+KIND STAR", "line 3: duplicate KIND line"),
    "STAR POINT 0_0 x": ("sqs28.star", 1, "POINT 0_0 x", "line 2: POINT takes exactly one value"),
    "STAR bare POINT": ("sqs28.star", 1, "POINT", "line 2: POINT takes exactly one value"),
    "SPECIAL 1_0 x": ("sqs28.star", 2, "SPECIAL 1_0 x", "line 3: SPECIAL takes no value"),
    "STAR CLASS 5": ("sqs28.star", 14, "CLASS 5", "line 15: CLASS takes no value"),
    "bare GROUP": ("sqs28.star", 12, "GROUP", "line 13: GROUP needs at least one label"),
    "bare COMMON": ("sqs28.star", 13, "COMMON", "line 14: COMMON needs at least one label"),
}


@pytest.mark.parametrize("case", sorted(_CERTIFICATE_KEYWORDS))
def test_a_certificate_keyword_with_a_value_too_many_or_too_few_exits_2(generated, tmp_path,
                                                                         capsys, case):
    # the value counts of every keyword of both certificate formats; the
    # tokens of a star GROUP line are not read, and a COMMON line takes a
    # triple, which the star check proves (the test below)
    source, at, line, message = _CERTIFICATE_KEYWORDS[case]
    lines = (generated / source).read_text().splitlines()
    insert = line.startswith("+")
    line = line.lstrip("+")
    assert insert or lines[at].split()[0] == line.split()[0]
    lines[at:at + (not insert)] = [line]
    bad = tmp_path / source
    bad.write_text("\n".join(lines) + "\n")
    design = generated / source.replace(".res", ".design").replace(".star", ".design")
    capsys.readouterr()
    assert main(["verify", str(design), str(bad)]) == 2
    assert capsys.readouterr() == ("", f"error: {bad}: {message}\n")


def test_a_star_common_line_with_a_label_too_many_fails_the_star_check(generated, tmp_path,
                                                                       capsys):
    text = (generated / "sqs28.star").read_text()
    assert "\nCOMMON 3_3 5_2 6_1\n" in text
    bad = tmp_path / "bad.star"
    bad.write_text(text.replace("\nCOMMON 3_3 5_2 6_1\n", "\nCOMMON 3_3 5_2 6_1 0_1\n", 1))
    capsys.readouterr()
    assert main(["verify", str(generated / "sqs28.design"), str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].startswith("FAIL star certificate")
    assert "common triples do not equal the special class" in err


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


# ---------------------------------------------------------------------------
# input mutation corpus: every subcommand ends in exit 0, 1 or 2 on mutated
# inputs, with one error: line for exit 2 and no exception out of main

# tokens a mutation puts in: unknown and malformed labels, integers and
# every keyword
_MUTANT_TOKENS = ("99_9", "x", "07", "0", "-1", "KIND", "T", "V", "K", "POINTS", "GROUP", "POINT",
                  "CLASS", "SPECIAL", "COMMON", "RES", "STAR", "SQS")


def _line_mutant(text, rng):
    """1 or 2 seeded line mutations of ``text``; half of them land on a
    keyword line, each keyword of the file as likely as any other, whose
    values are cut, extended or changed."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 2)):
        heads = {}
        for i, line in enumerate(lines):
            if line[:1].isupper():
                heads.setdefault(line.split()[0], []).append(i)
        if heads and rng.random() < 0.5:
            i = rng.choice(heads[rng.choice(sorted(heads))])
        else:
            i = rng.randrange(len(lines))
        tok = lines[i].split() or [""]
        op = rng.choice(("bare", "extra", "drop", "replace", "delete", "duplicate", "swap"))
        if op == "bare":
            lines[i] = tok[0]
        elif op == "extra":
            lines[i] = " ".join(tok + [rng.choice(_MUTANT_TOKENS)])
        elif op in ("drop", "replace"):
            j = rng.randrange(len(tok))
            tok[j:j + 1] = [rng.choice(_MUTANT_TOKENS)] if op == "replace" else []
            lines[i] = " ".join(tok)
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        else:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


def _outcome(argv):
    """The exit code and stderr of ``main(argv)``, in process; an exit 2
    must print exactly one ``error:`` line."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    assert code in (0, 1, 2), argv
    if code == 2:
        assert re.fullmatch(r"error: [^\n]*\n", err.getvalue()), (argv, err.getvalue())
    return code, err.getvalue()


def test_every_subcommand_ends_in_0_1_or_2_on_mutated_inputs(generated, construct_out, tmp_path,
                                                            monkeypatch):
    rng = random.Random(20261020)
    gen = tmp_path / "gen"
    gen.mkdir()
    for name in ("sqs8", "rdgdd24"):
        run_cli("gen", name, "--out", str(gen / f"{name}.design"))
    for name in ("sqs22.design", "sqs22.res", "sqs28.design", "sqs28.star"):
        shutil.copy(generated / name, gen / name)
    read_at_once = []  # the blocks of each run of block lines read at once
    run_blocks = formats._run_blocks

    def counted(*args):
        blocks = run_blocks(*args)
        read_at_once.append(len(blocks or ()))
        return blocks

    monkeypatch.setattr(formats, "_run_blocks", counted)
    bad, out = tmp_path / "bad", tmp_path / "out"
    outcomes = []

    def mutated(path, n):
        text = path.read_text()
        for _ in range(n):
            bad.write_text(_line_mutant(text, rng))
            yield bad

    def keyword_mutants(path):
        """A line of each keyword of ``path`` with no value, and with one more."""
        lines = path.read_text().splitlines()
        for key in sorted({line.split()[0] for line in lines if line[:1].isupper()}):
            i = rng.choice([i for i, line in enumerate(lines) if line.split()[0] == key])
            for line in (key, f"{lines[i]} {rng.choice(_MUTANT_TOKENS)}"):
                bad.write_text("\n".join(lines[:i] + [line] + lines[i + 1:]) + "\n")
                yield bad

    # designs, through verify, derive and resolve
    for name, point in (("sqs8", "0"), ("sqs22", "inf_0"), ("rdgdd24", "0_0"), ("sqs28", "0_0")):
        for design in keyword_mutants(gen / f"{name}.design"):
            outcomes.append(_outcome(["verify", design]))
        for design in mutated(gen / f"{name}.design", 25):
            outcomes.append(_outcome(["verify", design]))
            outcomes.append(_outcome(["derive", design, point, "--out", out]))
            outcomes.append(_outcome(["resolve", design, "--point", point, "--budget", "20"]))
    # certificates, through verify
    for cert in ("sqs22.res", "rdgdd24.res", "sqs28.star"):
        design = gen / (cert.split(".")[0] + ".design")
        for path in chain(keyword_mutants(gen / cert), mutated(gen / cert, 20)):
            outcomes.append(_outcome(["verify", design, path]))
    # the star certificate and its design, through construct
    star, design = gen / "sqs28.star", gen / "sqs28.design"
    for path in mutated(star, 4):
        outcomes.append(_outcome(["construct", path, out / "star", "--design", design]))
    for path in mutated(design, 4):
        outcomes.append(_outcome(["construct", star, out / "design", "--design", path]))
    # a point file of the construct tree, through report
    tree = tmp_path / "tree"
    tree.mkdir()
    shutil.copy(construct_out[1] / "design.design", tree / "design.design")
    for path in mutated(construct_out[1] / "point_19_0.res", 3):
        shutil.copy(path, tree / "point_19_0.res")
        outcomes.append(_outcome(["report", tree]))
    codes = [code for code, _ in outcomes]
    assert {0, 1, 2} <= set(codes)
    assert sum(read_at_once) > 0  # the block-run reader was reached
    errors = "".join(err for code, err in outcomes if code == 2)
    for needed in ("KIND takes exactly one value", "POINT takes exactly one value",
                   "CLASS takes no value", "SPECIAL takes no value",
                   "POINTS needs at least one label", "GROUP needs at least one label",
                   "COMMON needs at least one label", "duplicate KIND line"):
        assert needed in errors, needed
