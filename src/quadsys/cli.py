"""Command-line front end.

``verify`` reads what to prove from its inputs: GROUP lines mean GDD cross
coverage, none mean Steiner coverage, and a certificate's KIND line picks
its check (RES: every section, STAR: the star certificate).  ``verify`` on
a RES file and ``report`` make the same claims through ``_check_sections``:
one per section, then ``every point resolved k/v`` unless the only
sections are ``POINT *``.

Every input file is read by ``_parse_file``, so a parse error names its
file: ``error: FILE: line N: ...``.  Exit codes: 0 all checks passed, 1 a
verification failed (witnesses go to stderr), 2 usage, parse or OS errors
(one ``error:`` line on stderr).  All outputs are deterministic: repeated
invocations on the same inputs are byte-identical, and --jobs only changes
wall time, never output.

``construct`` writes each point's resolution file as soon as it is proved,
in the process that proved it; with --jobs > 1 a worker takes the four
points over one star point at a time, so it plans them once.  ``report``
proves its point files on one worker per usable CPU (so ``taskset`` bounds
them), at most one per file; each worker reads its own files.  Workers are
forked by ``_map_jobs``, which deals each of them every n-th run of items
and reads their pickled results back in item order; a worker that dies
without sending its results is an error (exit 2), never a traceback.

Each subcommand imports only what it runs.  Importing this module loads
``core``, ``formats`` and ``star``, which is all that ``verify``, ``derive``
and ``report`` use.  ``construct`` imports ``quadruple`` (and with it
``gf16``), and ``catalog`` too when it has no --design; ``gen`` imports
``catalog``, which builds on ``quadruple``; ``resolve`` imports
``resolver``.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from itertools import chain
from pathlib import Path

from . import formats
from .core import (
    Design,
    DesignError,
    ParameterError,
    VerifyReport,
    derived_design,
    verify_gdd,
    verify_resolution,
    verify_steiner,
)
from .star import StarCertificate, verify_star

OK, FAIL, USAGE = 0, 1, 2


def _say(line: str) -> None:
    sys.stdout.write(line + "\n")


def _claim(name: str, passed: bool, detail: str = "") -> bool:
    _say(f"{'PASS' if passed else 'FAIL'} {name}" + (f" {detail}" if detail else ""))
    return passed


def _parse_file(path, parse, *args):
    """``parse`` of the text of the input file ``path``.  A file that is
    not UTF-8 or fails to parse is a usage error that names the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"), *args)
    except UnicodeDecodeError as exc:
        detail = f"not UTF-8 text (byte 0x{exc.object[exc.start]:02x} at offset {exc.start})"
    except (formats.ParseError, ParameterError) as exc:
        detail = str(exc)
    raise ParameterError(f"{path}: {detail}")


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")
    _say(f"wrote {path}")


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    from . import catalog

    name = args.name
    if name not in catalog.GENERATORS:
        choices = ", ".join(sorted(catalog.GENERATORS))
        raise ParameterError(f"no catalog design {name!r} (choose from {choices})")
    out = Path(args.out or f"{name}.design")
    companion = catalog.GENERATORS[name]()
    _write(out, formats.emit_design(companion))
    if name in catalog.RESOLUTIONS:
        resolutions = catalog.RESOLUTIONS[name]()
        sections = {
            point: resolutions[point].classes
            for point in sorted(resolutions, key=companion.point)
        }
        _write(out.with_suffix(".res"), formats.emit_resolution(companion, sections))
    if name == "sqs28":
        cert = catalog.sqs28_star()
        per_point = {
            companion.labels[p].text: cert.per_point[p] for p in sorted(cert.per_point)
        }
        _write(out.with_suffix(".star"), formats.emit_star(companion, per_point))
    return OK


# ---------------------------------------------------------------------------
# verify

# what every job reads, set by _map_jobs before any job runs or worker forks
_SHARED = None


def _verify_res_section(item) -> tuple[str, bool, str]:
    point, classes = item
    res = formats.resolution_for_point(_SHARED, point, classes)
    rep = verify_resolution(res)
    detail = f"classes={len(classes)}"
    if not rep.passed:
        detail += f" {rep.violations[:2]}"
    return point, rep.passed, detail


def _verify_res_file(path) -> list[tuple[str, bool, str]]:
    """``_verify_res_section`` of each section of the point file ``path``."""
    sections = _parse_file(path, formats.parse_resolution, _SHARED)
    return [_verify_res_section(item) for item in sections.items()]


def _map_jobs(jobs: int, func, items, shared, chunk: int = 1):
    """``func`` over ``items`` in order, with ``shared`` as ``_SHARED``: in
    this process for one job (or no ``os.fork``), else in n forked workers,
    worker w taking runs w, w + n, ... of ``chunk`` items.  Runs are read in
    item order, so the first failed one raises here (a worker that dies first
    is a ``ChildProcessError``); the workers are then stopped and reaped."""
    global _SHARED
    _SHARED = shared
    if jobs <= 1 or not hasattr(os, "fork"):
        yield from map(func, items)
        return
    import pickle

    items = list(items)
    runs = [items[i:i + chunk] for i in range(0, len(items), chunk)]
    workers: dict[int, object] = {}  # pid -> the read end of its pipe
    n = min(jobs, len(runs))
    try:
        for w in range(n):
            fd, out = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(fd)
                for pipe in workers.values():  # so a closed pipe stops its worker
                    os.close(pipe.fileno())
                _work(out, func, runs[w::n])
            os.close(out)
            workers[pid] = os.fdopen(fd, "rb")
        pids = list(workers)
        for i in range(len(runs)):
            pid = pids[i % n]
            try:
                ok, value = pickle.load(workers[pid])
            except (EOFError, pickle.UnpicklingError):
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                workers.pop(pid).close()
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise ChildProcessError(f"a worker {how} before it sent its results") from None
            if not ok:
                raise value
            yield from value
    finally:
        for pipe in workers.values():
            pipe.close()
        for pid in workers:
            os.waitpid(pid, 0)


def _work(fd: int, func, runs) -> None:
    """In a forked worker: pickle (True, results) of each run, or (False,
    the exception) of the first that raises, down ``fd``; never returns."""
    import pickle

    try:
        with os.fdopen(fd, "wb") as out:
            for run in runs:
                try:
                    sent = (True, list(map(func, run)))
                except Exception as exc:
                    sent = (False, exc)
                pickle.dump(sent, out)
                out.flush()
                if not sent[0]:
                    break
        os._exit(0)
    finally:
        os._exit(1)  # the parent reports the run it did not get


def _check_sections(d: Design, results) -> bool:
    """One claim per (point, passed, detail) result of
    ``_verify_res_section``, in order: the derived resolution at the point,
    framed as ``d`` frames it, or at ``formats.WHOLE`` the resolution of
    the design itself, passes ``verify_resolution``.  Then, unless every
    section is a WHOLE one, the claim that each point has exactly one
    section.  Returns whether every claim passed.
    """
    ok, points, whole = True, [], False
    for point, passed, detail in results:
        if point == formats.WHOLE:
            ok &= _claim("resolution of the design", passed, detail)
            whole = True
        else:
            ok &= _claim(f"derived resolution at {point}", passed, detail)
            points.append(point)
    if points or not whole:
        every = sorted(points) == sorted(lab.text for lab in d.labels)
        ok &= _claim("every point resolved", every, f"{len(points)}/{d.v}")
    return ok


def _check_coverage(d: Design) -> VerifyReport:
    """A design with groups is checked for GDD cross coverage, any other
    for Steiner coverage.  Returns the report it claimed."""
    if d.groups:
        rep = verify_gdd(d)
        _claim("gdd cross coverage", rep.passed, f"blocks={rep.counts['blocks']}")
    else:
        rep = verify_steiner(d)
        _claim("steiner coverage", rep.passed, str(rep.counts))
    return rep


def _parse_certificate(text: str, design: Design):
    """(kind, what ``formats`` parses of a KIND RES or KIND STAR file)."""
    kind = formats.file_kind(text)
    parse = {"RES": formats.parse_resolution, "STAR": formats.parse_star}.get(kind)
    if parse is None:
        raise ParameterError("a certificate needs a KIND RES or KIND STAR line")
    return kind, parse(text, design)


def cmd_verify(args) -> int:
    design = _parse_file(args.design, formats.parse_design)
    # the whole certificate is read before the first proof, so one that
    # fails to parse leaves stdout empty
    kind = None
    if args.certificate:
        kind, parsed = _parse_file(args.certificate, _parse_certificate, design)
    coverage = _check_coverage(design)
    ok = coverage.passed
    if kind == "RES":
        items = sorted(
            parsed.items(), key=lambda kv: -1 if kv[0] == formats.WHOLE else design.point(kv[0])
        )
        ok &= _check_sections(design, _map_jobs(args.jobs, _verify_res_section, items, design))
    elif kind == "STAR":
        star = StarCertificate(design, {c.point: c for c in parsed.values()})
        rep = verify_star(star, None if design.groups else coverage)
        ok &= _claim("star certificate", rep.passed, str(rep.counts))
        if not rep.passed:
            print(rep.violations[:4], file=sys.stderr)
    return OK if ok else FAIL


# ---------------------------------------------------------------------------
# derive


def cmd_derive(args) -> int:
    sub = derived_design(_parse_file(args.design, formats.parse_design), args.point)
    _write(Path(args.out or f"derived_{args.point}.design"), formats.emit_design(sub))
    return OK


# ---------------------------------------------------------------------------
# construct

def _point_job(p: int) -> tuple[int, bool, int]:
    """Prove the resolution at point p and write its point file into the
    output directory; (p, passed, class count) goes back for the manifest."""
    asm, out_dir = _SHARED
    res = asm.point_resolution(p)
    rep = verify_resolution(res)
    label = asm.design.labels[p].text
    text = formats.emit_resolution(asm.design, {label: res.classes})
    (out_dir / f"point_{label}.res").write_text(text, encoding="utf-8")
    return p, rep.passed, len(res.classes)


def cmd_construct(args) -> int:
    from . import quadruple

    if args.design:
        companion = _parse_file(args.design, formats.parse_design)
        if companion.groups:
            raise DesignError("the star companion must be a plain design")
    else:
        from . import catalog

        companion = catalog.sqs28()
    points = _parse_file(args.star, formats.parse_star, companion)
    out_dir = Path(args.out)
    if out_dir.exists() and not out_dir.is_dir():
        # the error mkdir would raise, before the proofs rather than after
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(out_dir))
    star = StarCertificate(companion, {c.point: c for c in points.values()})
    asm = quadruple.checked_assembly(star)
    out_dir.mkdir(parents=True, exist_ok=True)

    (out_dir / "design.design").write_text(
        formats.emit_design(asm.design), encoding="utf-8"
    )
    manifest = [
        f"design blocks={len(asm.design.blocks)} v={asm.design.v}",
        "steiner PASS",
    ]
    resolved = 0
    # the four fibres of a star point go to one worker, which plans them once
    jobs = _map_jobs(args.jobs, _point_job, range(asm.design.v), (asm, out_dir), chunk=4)
    for p, passed, n_classes in jobs:
        label = asm.design.labels[p].text
        manifest.append(
            f"point {label} classes={n_classes} {'PASS' if passed else 'FAIL'}"
        )
        resolved += passed
    manifest.append(f"resolved_points {resolved}/{asm.design.v}")
    (out_dir / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    _say(f"wrote {out_dir}/design.design, {asm.design.v} resolution files, manifest.txt")
    return OK if resolved == asm.design.v else FAIL


# ---------------------------------------------------------------------------
# resolve


def cmd_resolve(args) -> int:
    from . import resolver

    budget = resolver.DEFAULT_BUDGET if args.budget is None else args.budget
    design = _parse_file(args.design, formats.parse_design)
    if args.point is not None:
        blocks, ground = resolver.derived_instance(design, args.point)
        what = f"derived design at {args.point}"
    else:
        blocks = list(design.blocks)
        ground = tuple(range(design.v))
        what = "design"
    outcome = resolver.find_resolution(blocks, ground, budget=budget)
    _say(f"{outcome.status.upper()} {what} nodes={outcome.nodes}")
    if outcome.found and args.out:
        key = args.point if args.point is not None else formats.WHOLE
        _write(Path(args.out), formats.emit_resolution(design, {key: outcome.resolution.classes}))
    return OK if outcome.status in ("found", "none") else FAIL


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    out_dir = Path(args.out_dir)
    design = _parse_file(out_dir / "design.design", formats.parse_design)
    ok = _check_coverage(design).passed
    design.incidence  # built before the workers fork, so each inherits it
    paths = sorted(out_dir.glob("point_*.res"))
    jobs = min(len(os.sched_getaffinity(0)), len(paths))
    results = _map_jobs(jobs, _verify_res_file, paths, design)
    ok &= _check_sections(design, chain.from_iterable(results))
    return OK if ok else FAIL


# ---------------------------------------------------------------------------


def _int_at_least(low: int):
    """argparse type: an integer >= low; anything else is a usage error."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n

    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quadsys",
        description="Generate, verify, derive, construct, and search block designs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a catalog design (plus shipped certificates)")
    p.add_argument("name", help="a catalog design, e.g. sqs28")
    p.add_argument("--out", help="output design file (default <name>.design)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "verify", help="verify a design file and, if given, its resolution or star certificate"
    )
    p.add_argument("design")
    p.add_argument("certificate", nargs="?", help="resolution or star file")
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("derive", help="write the derived design at a point")
    p.add_argument("design")
    p.add_argument("point")
    p.add_argument("--out")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("construct", help="build the RDSQS(4v) from a star certificate")
    p.add_argument("star")
    p.add_argument("out", help="output directory")
    p.add_argument("--design", help="companion design file (default: catalog sqs28)")
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("resolve", help="search a resolution with the exact-cover oracle")
    p.add_argument("design")
    p.add_argument("--point")
    p.add_argument("--budget", type=_int_at_least(0),
                   help="search node budget (default: resolver.DEFAULT_BUDGET)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("report", help="re-verify a construct output directory")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (formats.ParseError, ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except DesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
