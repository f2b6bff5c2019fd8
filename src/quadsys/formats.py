"""Line-oriented text formats for designs, resolutions, and star certificates.

All files are UTF-8, '#' starts a comment, tokens are whitespace-separated.
A line that starts with a keyword carries structure; every other non-empty
line is a block, written as point labels.  In a design file every keyword
line comes before the first block line.  Emission is deterministic and
canonical ("\n" line ends), so emit(parse(emit(x))) == emit(x) holds
byte-for-byte.

Every reader reads through ``_items``, where a line ends at every line
boundary of Python's ``str`` and each keyword line's count of values and
its repeats are checked by one table for all formats.  A run of block lines
of canonical text, as the emitters write it, is read at once; other text is
first rewritten a piece at a time, one line of single-spaced tokens for
each line.  Both certificate formats are read one POINT section at a time
by ``_sections``: a fault of a line alone is reported at that line as it is
read, and one that needs the whole section once the section ends, after the
next POINT line's own checks.  ``point_ids`` reads a point file as
``emit_resolution`` writes it with one match, to the flat ids
``core.section_ranks`` takes.

Resolutions and star certificates for the derived design at a point are
in the ids of the parent design, where the punctured point does not occur,
so file labels and verification share one coordinate system.
"""

from __future__ import annotations

import operator
import os
import re
from itertools import chain, groupby
from pathlib import Path
from typing import Callable, Iterable

from .core import (
    Block,
    Design,
    DesignError,
    Gdd,
    Label,
    ParameterError,
    Resolution,
    derived_frame,
    parse_label,
)
from .star import StarGroup, StarPointCertificate

# the values each keyword takes: none (0), exactly one (1), or one or more,
# each one named; and, for each that may appear only once (SPECIAL: once in
# each POINT section), the error at a second line of it
_KEYWORDS = {"KIND": 1, "T": 1, "V": 1, "K": "block size", "POINTS": "label", "GROUP": "label",
             "POINT": 1, "CLASS": 0, "SPECIAL": 0, "COMMON": "label"}
_ONCE = {"KIND": "duplicate KIND line", "T": "duplicate T line", "V": "duplicate V line",
         "K": "duplicate K line", "SPECIAL": "second SPECIAL class in a POINT"}
_DESIGN_KINDS = {"SQS", "STS", "GDD", "TD", "RAW"}
# the POINT label of a resolution of the design itself, not of a derived design
WHOLE = "*"


class ParseError(DesignError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.message, self.line = message, line

    def __reduce__(self):  # so it crosses a worker's pipe intact
        return type(self), (self.message, self.line)


# characters per piece of text split at once; a piece runs on to the
# next line break, so it may be longer
_LINE_CHUNK = 1 << 16
# block lines per piece of an emitted design joined at once
_EMIT_CHUNK = 4096
# a line break of ``str.splitlines``, "\r\n" as one
_BREAK = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _pieces(text: str):
    """``text`` cut into pieces that end just after the first line break at
    or after ``_LINE_CHUNK`` characters, so each splits into its own lines."""
    start, n = 0, len(text)
    while start < n:
        brk = _BREAK.search(text, start + _LINE_CHUNK - 1)
        end = brk.end() if brk else n
        yield text[start:end]
        start = end


# "#" and the ASCII whitespace besides " " and "\n": not in canonical text
_IRREGULAR = "#\t\r\v\f\x1c\x1d\x1e\x1f"
# a line starting with a capital letter after any spaces, as a keyword line
# does and no label
_HEAD = re.compile(r"\n *([A-Z][^\n]*)")
# ids that know no label: every line comes from ``_items`` as its tokens
_NO_IDS = {}.__getitem__


def _items(text: str, ids: Callable[[str], int], once: dict[str, int]):
    r"""(line number, tokens) of each line, numbered from 1 at every line
    boundary of ``str``, that holds any before its first '#'; except that
    each run of block lines between keyword lines that ``_run_blocks``
    accepts is one item, (its first line number, its blocks as tuples of
    ``ids``).  Text that is not canonical is rewritten a ``_pieces`` piece
    at a time, one line of single-spaced tokens for each line; runs end at
    pieces too.  Each keyword line is checked here against ``_ONCE``
    (``once`` holds the line of each such keyword met) and ``_KEYWORDS``
    before it is yielded."""
    irregular = any(map(text.__contains__, _IRREGULAR))
    canonical = text.endswith("\n") and text.isascii() and not irregular
    no = 1
    for piece in _pieces(text):
        if not canonical:
            lines = piece.splitlines()
            piece = "".join(" ".join(raw.split("#", 1)[0].split()) + "\n" for raw in lines)
        # "\n" before every line: odd parts are keyword lines, others runs
        for i, part in enumerate(_HEAD.split("\n" + piece[:-1])):
            if i % 2:  # a keyword line
                tok = part.split()
                key = tok[0]
                if key in _KEYWORDS:
                    takes = _KEYWORDS[key]
                    if key in _ONCE and once.setdefault(key, no) != no:
                        raise ParseError(_ONCE[key], no)
                    if takes == 0 and len(tok) > 1:
                        raise ParseError(f"{key} takes no value", no)
                    if takes == 1 and len(tok) != 2:
                        raise ParseError(f"{key} takes exactly one value", no)
                    if takes and len(tok) == 1:  # one or more, each a ``takes``
                        raise ParseError(f"{key} needs at least one {takes}", no)
                    if key == "POINT":  # a new section
                        once.pop("SPECIAL", None)
                yield no, tok
                no += 1
            elif part:
                blocks = _run_blocks(part, ids)
                if blocks is not None:
                    yield no, blocks
                else:  # each line as its tokens
                    numbered = enumerate(map(str.split, part[1:].split("\n")), no)
                    yield from ((n, tok) for n, tok in numbered if tok)
                no += part.count("\n")


def _run_blocks(run: str, ids: Callable[[str], int]) -> list[Block] | None:
    r"""The blocks of ``run`` ("\n" before each line) as tuples of ``ids``,
    if each line holds k labels one space apart and each block's ids ascend,
    as the line reader would sort them; else None."""
    k = run.split("\n", 2)[1].count(" ") + 1
    if not re.fullmatch(r"(?:\n\S+(?: \S+){%d})+" % (k - 1), run):
        return None
    try:
        flat = list(map(ids, run.split()))
    except KeyError:
        return None
    cols = [flat[j::k] for j in range(k)]
    if not all(all(map(operator.lt, lo, hi)) for lo, hi in zip(cols, cols[1:])):
        return None
    return list(zip(*cols))


def _int(text: str, key: str, no: int) -> int:
    """A header integer: ASCII digits, with a "-" before them or not."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ParseError(f"{key} value {text!r} is not an integer", no)
    return int(text)


# ---------------------------------------------------------------------------
# designs


def parse_design(text: str, head: bool = False) -> Design | None:
    """The design a design file states: with GROUP lines, a ``Gdd`` whose
    GROUP lines partition the POINTS labels.  Every keyword line comes
    before the first block line, and the header they make is checked at
    that line (or at the end of a file of no blocks).  With ``head``, only
    the header is read: the result is the plain design it states with no
    blocks, or None if it holds a GROUP line.

    Each block is checked where it is read, in file order: a run from
    ``_run_blocks`` already ascends, so only its size is checked; a line
    read alone is checked for an unknown label, a repeated point and its
    size.  Blocks out of order are sorted once.
    """
    kind = t = v = None
    heads: dict[str, int] = {}  # the line of each KIND, T, V and K header, as _items keeps it
    sizes: list[int] = []
    labels: list[Label] = []
    index: dict[str, int] = {}
    ids = index.__getitem__
    groups: list[tuple[int, tuple[str, ...]]] = []
    items = _items(text, ids, heads)
    first = ()  # the first block line, once it is read
    for no, tok in items:
        key = tok[0]
        if key not in _KEYWORDS:  # the header is complete
            first = ((no, tok),)
            break
        if key == "KIND":
            kind = tok[1]
            if kind not in _DESIGN_KINDS:
                raise ParseError(f"unknown design kind {kind!r}", no)
        elif key == "T":
            t = _int(tok[1], key, no)
            if t < 0:
                raise ParseError(f"T {t} is negative", no)
        elif key == "V":
            v = _int(tok[1], key, no)
        elif key == "K":
            sizes = [_int(x, key, no) for x in tok[1:]]
            if min(sizes) < 1:
                raise ParseError(f"K size {min(sizes)} is below 1", no)
        elif key == "POINTS":
            for x in tok[1:]:
                try:
                    labels.append(parse_label(x))
                except ValueError:
                    raise ParseError(f"malformed point label {x!r}", no) from None
            if len(set(labels)) != len(labels):
                raise ParseError("duplicate label in POINTS", no)
            for lab in labels[len(index):]:
                index[lab.text] = len(index)
        elif key == "GROUP":
            groups.append((no, tuple(tok[1:])))
        else:
            raise ParseError(f"{key} not valid in a design file", no)
    if kind is None or t is None or not sizes or not labels:
        raise ParseError("missing KIND, T, K, or POINTS header", 1)
    if v is not None and v != len(labels):
        raise ParseError(f"V {v} does not match {len(labels)} labels", heads["V"])
    if t > max(sizes):
        raise ParseError(f"T {t} is above every block size in K={sizes}", heads["T"])
    if head:
        return None if groups else Design(t, frozenset(sizes), tuple(labels), (), kind)
    blocks: list[Block] = []
    for no, tok in chain(first, items):
        key = tok[0]
        if type(key) is tuple:  # a run of blocks
            if len(key) not in sizes:
                raise ParseError(f"block size {len(key)} not in K={sizes}", no)
            blocks += tok
            continue
        if key in _KEYWORDS:
            raise ParseError(f"{key} after a block line", no)
        b = _block_ids(ids, tok, no)
        if len(set(b)) != len(b):
            raise ParseError("repeated point in block", no)
        if len(b) not in sizes:
            raise ParseError(f"block size {len(b)} not in K={sizes}", no)
        blocks.append(b)
    blocks.sort()
    design = Design(t, frozenset(sizes), tuple(labels), tuple(blocks), kind)
    if not groups:
        return design
    seen: set[str] = set()
    for no, cell in groups:
        for x in cell:
            if x not in index:
                raise ParseError(f"unknown label {x!r} in GROUP", no)
            if x in seen:
                raise ParseError(f"label {x!r} is already in a GROUP", no)
            seen.add(x)
    missing = [x for x in index if x not in seen]
    if missing:  # named at the last GROUP line
        raise ParseError(f"label {missing[0]!r} is in no GROUP", no)
    cells = (tuple(sorted(map(ids, cell))) for _, cell in groups)
    return Gdd(design=design, groups=tuple(sorted(cells)))


def _blocks_text(names: list[str], blocks: Iterable[Block]) -> list[str]:
    """One line per block: its points' names joined by spaces.

    Each run of blocks of one size k is written with one ``map`` over its
    flattened points, regrouped k names at a time by ``zip``; a block of no
    points is an empty line."""
    lines: list[str] = []
    for k, run in groupby(blocks, len):
        if k:
            words = map(names.__getitem__, chain.from_iterable(run))
            lines += map(" ".join, zip(*[words] * k))
        else:
            lines += ["" for _ in run]
    return lines


def emit_design(design: Design) -> str:
    """The design file of ``design``: headers, its GROUP lines, then one
    line per block.  Block lines are joined ``_EMIT_CHUNK`` at a time and
    the pieces joined once more, so no list of every line's string is ever
    held."""
    names = list(design.label_index)
    lines = [
        f"KIND {design.kind}",
        f"T {design.t}",
        f"V {design.v}",
        "K " + " ".join(str(s) for s in sorted(design.sizes)),
        "POINTS " + " ".join(names),
    ]
    lines.extend("GROUP " + line for line in _blocks_text(names, design.groups))
    pieces = ["\n".join(lines)]
    blocks = design.blocks
    for i in range(0, len(blocks), _EMIT_CHUNK):
        pieces.append("\n".join(_blocks_text(names, blocks[i : i + _EMIT_CHUNK])))
    pieces.append("")  # the final "\n"
    return "\n".join(pieces)


# ---------------------------------------------------------------------------
# resolutions


def parse_resolution(text: str, companion: Design) -> dict[str, tuple[tuple[Block, ...], ...]]:
    """Per-point classes in file order, keyed by point label text.  Labels
    must resolve and a point's classes must not be empty or ragged; class
    membership of the companion is the verifier's to check."""
    out = {}
    for point, no, heads in _sections(text, companion, _RES):
        for _, line, _, cls in heads:
            if not cls:
                raise ParseError("empty CLASS section", line)
            cls.sort()
        arities = {len(cls) for *_, cls in heads}
        if len(arities) > 1:
            raise ParseError(f"ragged classes at POINT {point}: sizes {sorted(arities)}", no)
        out[point] = tuple(tuple(cls) for *_, cls in heads)
    return out


def point_ids(text: str, companion: Design) -> tuple[str, int, list[int]] | None:
    """(point, class count, its triples' ids in file order) of a point file
    of one section as ``emit_resolution`` writes it, with (v - 1)/3 lines of
    three labels of ``companion`` in each class; else None, and
    ``parse_resolution`` reads it.  Whether each triple's ids ascend is
    ``core.section_ranks``'s to check."""
    v, index = companion.v, companion.label_index
    form = r"KIND RES\nPOINT (\S+)\n((?:CLASS\n(?:\S+ \S+ \S+\n){%d})+)" % (v // 3)
    m = re.fullmatch(form, text) if v > 3 and v % 3 == 1 else None
    if m is None or m[1] not in index:
        return None
    words = m[2].split()
    del words[::v]  # each class is a CLASS word and its v - 1 labels
    try:
        return m[1], len(words) // (v - 1), list(map(index.__getitem__, words))
    except KeyError:
        return None


def _block_ids(ids: Callable[[str], int], tok: list[str], no: int) -> Block:
    """The sorted ids of the labels of a certificate block line ``no``;
    ``ids`` maps a label text to its id."""
    try:
        return tuple(sorted(map(ids, tok)))
    except KeyError as exc:
        raise ParseError(f"unknown label {exc.args[0]!r}", no) from None


# a certificate format: KIND value, name in messages, headers (True where
# block lines follow), where block lines go, POINT values besides labels
_RES = ("RES", "resolution", {"CLASS": True}, "a CLASS", (WHOLE,))
_STAR = ("STAR", "star", {"SPECIAL": True, "GROUP": False, "COMMON": False, "CLASS": True},
         "SPECIAL or CLASS", ())


def _sections(text: str, companion: Design, fmt: tuple):
    """(point text, POINT line, headers) of each POINT section of a
    certificate file of format ``fmt``, yielded once the section ends.  A
    header is (keyword, line, its other tokens, its blocks as sorted
    companion ids, or None if it takes none).  A line's own faults raise at
    it as it is read; a POINT line's value is checked before the section
    it ends is yielded, and what needs a whole section is the caller's.
    """
    kind, name, takes, outside, others = fmt
    index = companion.label_index
    ids = index.__getitem__
    seen: set[str] = set()
    point = point_line = blocks = None  # blocks: where block lines go
    for no, tok in _items(text, ids, {}):
        key = tok[0]
        if key not in _KEYWORDS:  # most lines are blocks, so they are tested first
            if blocks is None:
                raise ParseError(f"block line outside {outside}", no)
            if type(key) is tuple:  # a run of blocks
                blocks += tok
            else:
                blocks.append(_block_ids(ids, tok, no))
        elif key == "KIND":
            if tok[1] != kind:
                raise ParseError(f"expected KIND {kind}, got {tok[1]!r}", no)
        elif key == "POINT":
            x = tok[1]
            if x not in index and x not in others:
                raise ParseError(f"unknown point label {x!r}", no)
            if x in seen:
                raise ParseError(f"duplicate POINT {x}", no)
            if point is not None:
                yield point, point_line, heads
            seen.add(x)
            point, point_line, heads, blocks = x, no, [], None
        elif key not in takes:
            raise ParseError(f"{key} not valid in a {name} file", no)
        elif point is None:
            raise ParseError(f"{key} before any POINT", no)
        else:
            blocks = [] if takes[key] else None
            heads.append((key, no, tok[1:], blocks))
    if point is None:
        raise ParseError("no POINT section found", 1)
    yield point, point_line, heads


def emit_resolution(companion: Design, sections: dict[str, tuple[tuple[Block, ...], ...]]) -> str:
    names = list(companion.label_index)
    lines = ["KIND RES"]
    for point, classes in sections.items():
        lines.append(f"POINT {point}")
        for cls in classes:
            lines += ["CLASS", *_blocks_text(names, sorted(cls))]
    return "\n".join(lines) + "\n"


def resolution_for_point(d: Design, x, classes: tuple[tuple[Block, ...], ...]) -> Resolution:
    """A Resolution object for the derived design at x, in parent ids (for
    a GDD the whole group of x leaves the ground set); at x = ``WHOLE``, for
    the design itself (every point, every block)."""
    if x == WHOLE:
        return Resolution(ground=tuple(range(d.v)), classes=classes, target=d.blocks)
    ground, target = derived_frame(d, x)
    return Resolution(ground=ground, classes=classes, target=target)


# ---------------------------------------------------------------------------
# star certificates


def parse_star(text: str, companion: Design) -> dict[str, StarPointCertificate]:
    """Star-point certificates keyed by point label text, in file order.

    A POINT section holds one SPECIAL class, and a group for each COMMON
    line: its triple and the CLASS sections up to the next COMMON or GROUP
    line.  A GROUP line only ends a group; its number is not read.
    """
    index = companion.label_index
    n_class = (companion.v - 1) // 3
    points: dict[str, StarPointCertificate] = {}
    for point, no, heads in _sections(text, companion, _STAR):
        special = classes = None
        groups = []  # (COMMON line, its triple, its classes)
        for key, line, rest, blocks in heads:
            if key == "SPECIAL":
                special = blocks
            elif key == "CLASS":
                if classes is None:
                    raise ParseError("CLASS before COMMON in a GROUP", line)
                classes.append((line, blocks))
            elif key == "COMMON":
                classes = []
                groups.append((line, _block_ids(index.__getitem__, rest, line), classes))
            else:  # GROUP ends the group before it
                classes = None
        for line, _, classes in groups:
            if len(classes) != 3:
                raise ParseError("each GROUP needs exactly 3 CLASS sections", line)
            for cls_line, cls in classes:
                if len(cls) != n_class:
                    raise ParseError(f"class has {len(cls)} triples, expected {n_class}", cls_line)
        if special is None or len(special) != n_class:
            raise ParseError(f"SPECIAL class needs {n_class} triples", no)
        if len(groups) != n_class:
            raise ParseError(f"expected {n_class} GROUP sections, got {len(groups)}", no)
        groups = tuple(StarGroup(common, tuple(tuple(c) for _, c in classes))
                       for _, common, classes in groups)
        points[point] = StarPointCertificate(point=index[point], special=tuple(special), groups=groups)
    return points


def parse_certificate(text: str, companion: Design):
    """(kind, sections) of a certificate file, read as its first KIND line says."""
    kind = next((tok[1] for _, tok in _items(text, _NO_IDS, {}) if tok[0] == "KIND"), None)
    parse = {"RES": parse_resolution, "STAR": parse_star}.get(kind)
    if parse is None:
        raise ParameterError("a certificate needs a KIND RES or KIND STAR line")
    return kind, parse(text, companion)


def emit_star(companion: Design, certs: dict[str, StarPointCertificate]) -> str:
    names = list(companion.label_index)
    lines = ["KIND STAR"]
    for point, cert in certs.items():
        lines += [f"POINT {point}", "SPECIAL", *_blocks_text(names, cert.special)]
        for gi, grp in enumerate(cert.groups, start=1):
            lines += [f"GROUP {gi}", "COMMON " + " ".join(map(names.__getitem__, grp.common))]
            for cls in grp.classes:
                lines += ["CLASS", *_blocks_text(names, sorted(cls))]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# data directory


def data_dir() -> Path:
    return Path(os.environ.get("DESIGN_DATA_DIR") or Path(__file__).resolve().parent / "data")


def read_data(name: str) -> str:
    return (data_dir() / name).read_text(encoding="utf-8")
