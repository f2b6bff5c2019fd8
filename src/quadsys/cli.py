"""Command-line front end.

``verify`` reads what to prove from its inputs: GROUP lines mean GDD cross
coverage, none mean Steiner coverage, and a certificate's KIND line picks
its check (RES: every section, STAR: the star certificate).  ``verify`` on
a RES file and ``report`` make the same claims through ``_check_sections``:
one per section, then ``every point resolved k/v`` unless the only
sections are ``POINT *``, then ``overlarge set of KTS(v-1)`` once one
section passed at every point of an S(3, 4, v) that passed its Steiner
check.  ``verify`` proves each section in one process by the frame route,
``verify_resolution`` against the derived frame, which words every failing
line.  ``report`` and ``construct`` take the owner route on such a design:
a section passes if its point owns every rank that ``section_ranks`` gives
its triples (``owner_table``, ``owns``).  On that design both routes pass
exactly the same sections, so in ``report`` a section that fails the owner
route (and any section of a ``POINT *`` file, a GDD, or a design that
failed its Steiner check) is proved again by the frame route for its text.

Every input file is read by ``_parse_file``, so a parse error names its
file: ``error: FILE: line N: ...``.  Exit codes: 0 all checks passed, 1 a
verification failed (witnesses go to stderr), 2 usage, parse or OS errors
(one ``error:`` line on stderr).  All outputs are deterministic: repeated
invocations on the same inputs are byte-identical, and ``construct
--jobs`` and the CPUs ``report`` may use only change wall time, never
output.

``construct`` proves its SQS(4v) by the owner table before any worker
forks, then each point by the owner route on its flat ids, and writes its
file from them; with --jobs > 1 a worker takes the four points over one
star point at a time, so it plans them once.  ``report`` proves its point
files on one worker per usable CPU (so ``taskset`` bounds them), at most
one per file; each worker reads its own files.  On an S(3, 4, v) by the
header of ``design.design`` (its keyword lines, which come before its
first block), the workers fork once the header is read and rank their
files with its labels (``formats.point_ids``, else ``parse_resolution``)
while the parent parses the design and proves it by its owner table; other
designs, and one that fails (``verify_steiner`` names why), are proved
first, and workers forked then take the frame route.
Workers are forked only by ``_jobs``, a context manager that deals each of
them every n-th run of items, reads their pickled results back in item
order and, when left by any path (a design that fails to parse after the
fork included), closes their pipes and reaps every one.  A worker that
dies without sending its results is an error (exit 2), never a traceback.

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
from contextlib import ExitStack, contextmanager, suppress
from itertools import chain
from pathlib import Path

from . import formats
from .core import (
    Design,
    DesignError,
    ParameterError,
    VerifyReport,
    class_ids,
    derived_design,
    owner_table,
    owns,
    section_ranks,
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


def _read_text(path) -> str:
    """The text of the input file ``path``; a file that is not UTF-8 is a
    usage error that names it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        detail = f"not UTF-8 text (byte 0x{exc.object[exc.start]:02x} at offset {exc.start})"
    raise ParameterError(f"{path}: {detail}")


def _parse_file(path, parse, *args, text: str | None = None):
    """``parse`` of the text of the input file ``path``, or of ``text`` if
    it was read already.  A file that fails to parse is a usage error that
    names it."""
    if text is None:
        text = _read_text(path)
    try:
        return parse(text, *args)
    except (formats.ParseError, ParameterError) as exc:
        raise ParameterError(f"{path}: {exc}") from None


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

# what every job reads, set by _jobs before any job runs or worker forks
_SHARED = None
# bytes a worker's pipe holds, so that a worker need not wait while its
# parent is busy with work of its own (report's 112 rankings take 0.9 MB)
_PIPE_BYTES = 1 << 20


def _resolution_claim(design: Design, point: str, classes) -> tuple[str, bool, str]:
    """(point, passed, detail) of the frame route: ``verify_resolution`` of
    the classes at ``point`` against the frame that
    ``formats.resolution_for_point`` cuts from ``design``."""
    rep = verify_resolution(formats.resolution_for_point(design, point, classes))
    detail = f"classes={len(classes)}"
    if not rep.passed:
        detail += f" {rep.violations[:2]}"
    return point, rep.passed, detail


def _verify_res_file(path) -> list[tuple[str, bool, str]]:
    """``_resolution_claim`` of each section of the point file ``path`` on
    ``_SHARED``."""
    sections = _parse_file(path, formats.parse_resolution, _SHARED)
    return [_resolution_claim(_SHARED, *item) for item in sections.items()]


def _ranked_file(path) -> list[tuple[str, int, object]]:
    """(point, class count, ranks) of the point file ``path`` on the labels
    of ``_SHARED``: ``section_ranks`` of its ``formats.point_ids`` where both
    take it, else of the ``class_ids`` of each section ``parse_resolution``
    reads (no ranks at WHOLE)."""
    text = _read_text(path)
    v, index = _SHARED.v, _SHARED.label_index
    read = formats.point_ids(text, _SHARED)
    ranks = read and section_ranks(v, index[read[0]], read[2])
    if ranks:
        return [(read[0], read[1], ranks)]
    sections = _parse_file(path, formats.parse_resolution, _SHARED, text=text)
    return [(point, len(classes), None if point == formats.WHOLE else
             section_ranks(v, index[point], class_ids(v, classes)))
            for point, classes in sections.items()]


def _owner_claims(design: Design, owner, path, ranked):
    """(point, passed, detail) of each (point, class count, ranks) of
    ``ranked``, read from the point file ``path``: passed by the owner table
    ``owner`` where the point owns every rank, else the frame route's claim
    on its classes, the file parsed again at most once, so a failing line
    reads as it always has."""
    sections = None
    for point, n, ranks in ranked:
        if ranks is not None and owns(owner, design.label_index[point], ranks):
            yield point, True, f"classes={n}"
            continue
        if sections is None:
            sections = _parse_file(path, formats.parse_resolution, design)
        yield _resolution_claim(design, point, sections[point])


def _is_sqs(d: Design) -> bool:
    """Whether ``d`` claims to be an S(3, 4, v), the shape of the owner route."""
    return d.t == 3 and d.sizes == {4} and not d.groups


@contextmanager
def _jobs(jobs: int, func, items, shared, chunk: int = 1):
    """The results of ``func`` over ``items``, in order, with ``shared`` as
    ``_SHARED``: in this process for one job (or no ``os.fork``), else from
    n workers forked on entry, worker w taking runs w, w + n, ... of
    ``chunk`` items.  Runs are read in item order, so the first failed one
    raises there (a worker that dies first is a ``ChildProcessError``).  On
    exit, by any path, the workers are stopped and reaped."""
    global _SHARED
    _SHARED = shared
    if jobs <= 1 or not hasattr(os, "fork"):
        yield map(func, items)
        return
    import fcntl

    items = list(items)
    runs = [items[i:i + chunk] for i in range(0, len(items), chunk)]
    workers: dict[int, object] = {}  # pid -> the read end of its pipe
    n = min(jobs, len(runs))
    try:
        for w in range(n):
            fd, out = os.pipe()
            with suppress(AttributeError, OSError):  # where the system lets the pipe grow
                fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            pid = os.fork()
            if pid == 0:
                os.close(fd)
                for pipe in workers.values():  # so a closed pipe stops its worker
                    os.close(pipe.fileno())
                _work(out, func, runs[w::n])
            os.close(out)
            workers[pid] = os.fdopen(fd, "rb")
        yield _results(workers, len(runs))
    finally:
        for pipe in workers.values():
            pipe.close()
        for pid in workers:
            os.waitpid(pid, 0)


def _results(workers: dict, n_runs: int):
    """The results of ``n_runs`` runs, read one run at a time from the
    pipes of ``workers`` in turn."""
    import pickle

    pids = list(workers)
    for i in range(n_runs):
        pid = pids[i % len(pids)]
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


def _check_sections(d: Design, results, overlarge: bool) -> bool:
    """One claim per (point, passed, detail) result, in order: the derived
    resolution at the point, framed as ``d`` frames it, or at
    ``formats.WHOLE`` the resolution of the design itself, passes.  Then,
    unless every section is a WHOLE one, the claim that each point has
    exactly one section.  With ``overlarge`` (``d`` is an S(3, 4, v) that
    passed its Steiner check), a tree of one passing section at every point
    and no WHOLE one also claims the overlarge set of KTS(v - 1) that the
    derived designs make.  Returns whether every claim passed.
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
        every = sorted(points) == sorted(d.label_index)
        ok &= _claim("every point resolved", every, f"{len(points)}/{d.v}")
        if overlarge and ok and not whole:
            _claim(f"overlarge set of KTS({d.v - 1})", True)
    return ok


def _check_coverage(d: Design, owner=None) -> VerifyReport:
    """Claims GDD cross coverage of a design with groups, else Steiner
    coverage, proved by ``owner``, its ``owner_table``, if not None;
    returns the report."""
    if d.groups:
        rep = verify_gdd(d)
        _claim("gdd cross coverage", rep.passed, f"blocks={rep.counts['blocks']}")
    else:  # an owner table takes C(v, 3)/4 blocks, as many as verify_steiner expects
        n = len(d.blocks)
        rep = verify_steiner(d) if owner is None else VerifyReport(
            counts={"expected_blocks": n, "blocks": n})
        _claim("steiner coverage", rep.passed, str(rep.counts))
    return rep


def cmd_verify(args) -> int:
    design = _parse_file(args.design, formats.parse_design)
    # the whole certificate is read before the first proof, so one that
    # fails to parse leaves stdout empty
    kind = None
    if args.certificate:
        kind, parsed = _parse_file(args.certificate, formats.parse_certificate, design)
    coverage = _check_coverage(design)
    ok = coverage.passed
    if kind == "RES":
        items = sorted(
            parsed.items(), key=lambda kv: -1 if kv[0] == formats.WHOLE else design.point(kv[0])
        )
        claims = (_resolution_claim(design, *item) for item in items)
        ok &= _check_sections(design, claims, overlarge=coverage.passed and _is_sqs(design))
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

def _point_job(p: int) -> tuple[bool, str]:
    """Prove the resolution at point p by the owner route on its ``class_ids``
    and write its point file from them; (passed, its manifest line) goes back."""
    asm, out_dir = _SHARED
    classes = asm.point_classes(p)
    flat = class_ids(asm.design.v, classes)
    passed = owns(asm.owner, p, section_ranks(asm.design.v, p, flat))
    label = asm.design.labels[p].text
    text = "KIND RES\n" + formats.section_text(list(asm.design.label_index), label, classes, flat)
    (out_dir / f"point_{label}.res").write_text(text, encoding="utf-8")
    return passed, f"point {label} classes={len(classes)} {'PASS' if passed else 'FAIL'}"


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

    with open(out_dir / "design.design", "w", encoding="utf-8") as out:  # a piece at a time
        out.writelines(formats.design_pieces(asm.design))
    manifest = [f"design blocks={len(asm.design.blocks)} v={asm.design.v}", "steiner PASS"]
    resolved = 0
    # the four fibres of a star point go to one worker, which plans them once
    with _jobs(args.jobs, _point_job, range(asm.design.v), (asm, out_dir), chunk=4) as jobs:
        for passed, line in jobs:
            manifest.append(line)
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
    path = out_dir / "design.design"
    paths = sorted(out_dir.glob("point_*.res"))
    jobs = min(len(os.sched_getaffinity(0)), len(paths))
    text = _read_text(path)
    head = _parse_file(path, formats.parse_design, True, text=text)
    early = head is not None and _is_sqs(head)
    # on an S(3, 4, v) by its header, the workers rank the point files while
    # this process reads and proves the design and fills the owner table
    with ExitStack() as workers:
        if early:
            ranked = workers.enter_context(_jobs(jobs, _ranked_file, paths, head))
        design = _parse_file(path, formats.parse_design, text=text)
        del text
        owner = owner_table(design) if early else None
        coverage = _check_coverage(design, owner)
        if owner is not None:
            claims = chain.from_iterable(
                _owner_claims(design, owner, p, sections) for p, sections in zip(paths, ranked)
            )
            ok = _check_sections(design, claims, overlarge=True)
        else:  # the frame route, on workers forked once the rank workers are reaped
            workers.close()
            design.incidence  # built before the workers fork, so each inherits it
            results = workers.enter_context(_jobs(jobs, _verify_res_file, paths, design))
            ok = _check_sections(design, chain.from_iterable(results), overlarge=False)
    return OK if coverage.passed and ok else FAIL


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
