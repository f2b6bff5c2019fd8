"""Line-oriented text formats for designs, resolutions, and star certificates.

All files are UTF-8 with LF line endings, '#' starts a comment, tokens are
whitespace-separated.  Lines beginning with a structural keyword (KIND, T,
V, K, POINTS, GROUP, POINT, CLASS, SPECIAL, COMMON) carry structure; every
other non-empty line is a block, written as point labels.  Emission is
deterministic and canonical, so emit(parse(emit(x))) == emit(x) holds
byte-for-byte.

Every reader reads through ``_items``, where a line also ends at every
other line boundary of Python's ``str``.  A run of block lines of canonical text, as
the emitters write it, is read at once; other text is first rewritten a
piece at a time, one line of single-spaced tokens for each line.

Resolutions and star certificates for the derived design at a point are
expressed in the ids of the parent design (the punctured point simply does
not occur); this keeps file labels and verification in one coordinate
system.
"""

from __future__ import annotations

import operator
import os
import re
from itertools import chain, groupby, islice
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
    make_design,
    parse_label,
)
from .star import StarGroup, StarPointCertificate

_KEYWORDS = {"KIND", "T", "V", "K", "POINTS", "GROUP", "POINT", "CLASS", "SPECIAL", "COMMON"}
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
# next "\n", so it may be longer
_LINE_CHUNK = 1 << 16
# block lines per piece of an emitted design joined at once
_EMIT_CHUNK = 4096


def _pieces(text: str):
    r"""``text`` cut into pieces that end just after a "\n" (the last one
    may end without it), so that each splits into exactly its own lines."""
    start, n = 0, len(text)
    while start < n:
        end = text.find("\n", start + _LINE_CHUNK - 1)
        end = n if end < 0 else end + 1
        yield text[start:end]
        start = end


# "#" and the ASCII whitespace besides " " and "\n": not in canonical text
_IRREGULAR = "#\t\r\v\f\x1c\x1d\x1e\x1f"
# a line starting with a capital letter, as a keyword line does and no label
_HEAD = re.compile(r"\n([A-Z][^\n]*)")
# ids that know no label: every line comes from ``_items`` as its tokens
_NO_IDS = {}.__getitem__


def _items(text: str, ids: Callable[[str], int], ascending: bool = False):
    r"""(line number, tokens) of each line, numbered from 1 at every line
    boundary of ``str``, that holds any before its first '#'; except that
    each run of block lines between keyword lines that ``_run_blocks``
    accepts is one item, (its first line number, its blocks as tuples of
    ``ids``).  Text that is not canonical is rewritten a ``_pieces`` piece
    at a time, one line of single-spaced tokens for each line; runs end at
    pieces too."""
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
                yield no, part.split()
                no += 1
            elif part:
                blocks = _run_blocks(part, ids, ascending)
                if blocks is not None:
                    yield no, blocks
                else:  # each line as its tokens
                    numbered = enumerate(map(str.split, part[1:].split("\n")), no)
                    yield from ((n, tok) for n, tok in numbered if tok)
                no += part.count("\n")


def _run_blocks(run: str, ids: Callable[[str], int], ascending: bool) -> list[Block] | None:
    r"""The blocks of ``run`` ("\n" before each line) as tuples of ``ids``,
    if each line holds k labels one space apart (and, with ``ascending``,
    each block's ids ascend, as the line reader would sort them); else None."""
    k = run.split("\n", 2)[1].count(" ") + 1
    if not re.fullmatch(r"(?:\n\S+(?: \S+){%d})+" % (k - 1), run):
        return None
    try:
        flat = list(map(ids, run.split()))
    except KeyError:
        return None
    cols = [flat[j::k] for j in range(k)]
    if ascending and not all(all(map(operator.lt, lo, hi)) for lo, hi in zip(cols, cols[1:])):
        return None
    return list(zip(*cols))


def _value(tok: list[str], no: int) -> str:
    """The one value of a header line such as ``KIND SQS``."""
    if len(tok) != 2:
        raise ParseError(f"{tok[0]} takes exactly one value", no)
    return tok[1]


def _int(text: str, key: str, no: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{key} value {text!r} is not an integer", no) from None


def file_kind(text: str) -> str | None:
    """The value of the first KIND line, or None if the file has none."""
    kinds = (_value(tok, no) for no, tok in _items(text, _NO_IDS) if tok[0] == "KIND")
    return next(kinds, None)


# ---------------------------------------------------------------------------
# designs


def parse_design(text: str) -> Design:
    """The design a design file states: with GROUP lines, a ``Gdd`` whose
    GROUP lines partition the POINTS labels.

    Block lines are mapped to point ids as they are read, through a label
    index that grows at every POINTS line; a line naming a label of a later
    POINTS line is kept as tokens and resolved once the file is read.  The
    header checks run first, then ``make_design`` checks each block once;
    only a rejected block makes the text be read again for its line.
    """
    kind = None
    t = t_line = None
    v = v_line = None
    sizes: list[int] = []
    labels: list[Label] = []
    index: dict[str, int] = {}
    ids = index.__getitem__
    groups: list[tuple[int, tuple[str, ...]]] = []
    blocks: list[tuple[int, ...] | list[str]] = []  # ids, or tokens to resolve later
    late: list[int] = []  # positions in blocks of the token lists
    for no, tok in _items(text, ids):
        key = tok[0]
        if key not in _KEYWORDS:  # most lines are blocks, so they are tested first
            if type(key) is tuple:  # a run of blocks
                blocks += tok
                continue
            try:
                blocks.append(tuple(map(ids, tok)))
            except KeyError:
                late.append(len(blocks))
                blocks.append(tok)
        elif key == "KIND":
            kind = _value(tok, no)
            if kind not in _DESIGN_KINDS:
                raise ParseError(f"unknown design kind {kind!r}", no)
        elif key == "T":
            t, t_line = _int(_value(tok, no), key, no), no
            if t < 0:
                raise ParseError(f"T {t} is negative", no)
        elif key == "V":
            v, v_line = _int(_value(tok, no), key, no), no
        elif key == "K":
            if len(tok) < 2:
                raise ParseError("K needs at least one block size", no)
            sizes = [_int(x, key, no) for x in tok[1:]]
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
        raise ParseError(f"V {v} does not match {len(labels)} labels", v_line)
    if t > max(sizes):
        raise ParseError(f"T {t} is above every block size in K={sizes}", t_line)
    try:
        for i in late:
            blocks[i] = tuple(map(ids, blocks[i]))
        design = make_design(t=t, sizes=sizes, labels=labels, blocks=blocks, kind=kind)
    except (KeyError, ParameterError):  # name the first failing line in file order
        for i, b in enumerate(blocks):
            if isinstance(b, list):
                try:
                    b = tuple(map(ids, b))
                except KeyError as exc:
                    raise ParseError(f"unknown label {exc.args[0]!r}", _block_line(text, i)) from None
            if len(set(b)) != len(b):
                raise ParseError("repeated point in block", _block_line(text, i)) from None
            if len(b) not in sizes:
                raise ParseError(f"block size {len(b)} not in K={sizes}", _block_line(text, i)) from None
        raise
    if not groups:
        return design
    seen: set[str] = set()
    for no, cell in groups:
        if not cell:
            raise ParseError("GROUP needs at least one label", no)
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


def _block_line(text: str, i: int) -> int:
    """The line number of block line ``i`` (counted from 0) of a design file
    whose other lines are all headers.  It is looked up only when a block is
    rejected, so a parse keeps no line number per block."""
    numbers = (no for no, tok in _items(text, _NO_IDS) if tok[0] not in _KEYWORDS)
    return next(islice(numbers, i, None))


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
    """Per-point lists of classes, keyed by point label text.

    Classes are returned in file order; class membership of the companion
    design is *not* checked here (verification is the caller's job), but
    labels must resolve and classes within a point must not be ragged.
    """
    index = companion.label_index
    ids = index.__getitem__
    sections: dict[str, tuple[int, list[list[Block]]]] = {}  # POINT line, classes
    current: list[list[Block]] | None = None
    cls: list[Block] | None = None
    cls_line = 0
    for no, tok in _items(text, ids, ascending=True):
        key = tok[0]
        if key not in _KEYWORDS:
            if cls is None:
                raise ParseError("block line outside a CLASS", no)
            if type(key) is tuple:  # a run of blocks
                cls += tok
            else:
                cls.append(_block_ids(ids, tok, no))
        elif key == "KIND":
            if _value(tok, no) != "RES":
                raise ParseError(f"expected KIND RES, got {tok[1]!r}", no)
        elif key == "POINT":
            if len(tok) != 2:
                raise ParseError("POINT takes exactly one label", no)
            _close_class(cls, cls_line)
            if tok[1] not in index and tok[1] != WHOLE:
                raise ParseError(f"unknown point label {tok[1]!r}", no)
            if tok[1] in sections:
                raise ParseError(f"duplicate POINT {tok[1]}", no)
            current = []
            sections[tok[1]] = (no, current)
            cls = None
        elif key == "CLASS":
            if current is None:
                raise ParseError("CLASS before any POINT", no)
            _close_class(cls, cls_line)
            cls, cls_line = [], no
            current.append(cls)
        else:
            raise ParseError(f"{key} not valid in a resolution file", no)
    _close_class(cls, cls_line)
    if not sections:
        raise ParseError("no POINT section found", 1)
    out = {}
    for point, (no, classes) in sections.items():
        arities = {len(c) for c in classes}
        if len(arities) > 1:
            raise ParseError(f"ragged classes at POINT {point}: sizes {sorted(arities)}", no)
        for c in classes:
            c.sort()
        out[point] = tuple(map(tuple, classes))
    return out


def _block_ids(ids: Callable[[str], int], tok: list[str], no: int) -> Block:
    """The sorted ids of the labels of a certificate block line ``no``;
    ``ids`` maps a label text to its id."""
    try:
        return tuple(sorted(map(ids, tok)))
    except KeyError as exc:
        raise ParseError(f"unknown label {exc.args[0]!r}", no) from None


def _close_class(cls, no: int) -> None:
    """An empty CLASS section is an error on its own header line ``no``."""
    if cls is not None and not cls:
        raise ParseError("empty CLASS section", no)


def emit_resolution(companion: Design, sections: dict[str, tuple[tuple[Block, ...], ...]]) -> str:
    names = list(companion.label_index)
    lines = ["KIND RES"]
    for point, classes in sections.items():
        lines.append(f"POINT {point}")
        for cls in classes:
            lines.append("CLASS")
            lines.extend(_blocks_text(names, sorted(cls)))
    return "\n".join(lines) + "\n"


def resolution_for_point(d: Design, x, classes: tuple[tuple[Block, ...], ...]) -> Resolution:
    """A Resolution object for the derived design at x, in parent ids; at
    x = ``WHOLE``, for the design itself (every point, every block).

    For a GDD the whole group of x leaves the ground set.
    """
    if x == WHOLE:
        return Resolution(ground=tuple(range(d.v)), classes=classes, target=d.blocks)
    ground, target = derived_frame(d, x)
    return Resolution(ground=ground, classes=classes, target=target)


# ---------------------------------------------------------------------------
# star certificates


def parse_star(text: str, companion: Design) -> dict[str, StarPointCertificate]:
    """Star-point certificates keyed by point label text, in file order."""
    index = companion.label_index
    ids = index.__getitem__
    n_class = (companion.v - 1) // 3

    points: dict[str, StarPointCertificate] = {}
    point = None
    point_line = group_line = 0
    special: list[Block] | None = None
    groups: list[StarGroup] = []
    common: Block | None = None
    classes: list[tuple[int, list[Block]]] | None = None  # (CLASS line, triples)
    dest: list[Block] | None = None  # where block lines go: SPECIAL or the last CLASS

    def close_group() -> None:
        nonlocal common, classes
        if common is None:
            return
        if len(classes) != 3:
            raise ParseError("each GROUP needs exactly 3 CLASS sections", group_line)
        for no, c in classes:
            if len(c) != n_class:
                raise ParseError(f"class has {len(c)} triples, expected {n_class}", no)
        groups.append(StarGroup(common=common, classes=tuple(tuple(c) for _, c in classes)))
        common, classes = None, None

    def close_point() -> None:
        nonlocal point, special, groups
        if point is None:
            return
        close_group()
        if special is None or len(special) != n_class:
            raise ParseError(f"SPECIAL class needs {n_class} triples", point_line)
        if len(groups) != n_class:
            raise ParseError(f"expected {n_class} GROUP sections, got {len(groups)}", point_line)
        points[point] = StarPointCertificate(
            point=index[point], special=tuple(special), groups=tuple(groups)
        )
        point, special, groups = None, None, []

    for no, tok in _items(text, ids, ascending=True):
        key = tok[0]
        if key not in _KEYWORDS:  # most lines are blocks, so they are tested first
            if dest is None:
                raise ParseError("block line outside SPECIAL or CLASS", no)
            if type(key) is tuple:  # a run of blocks
                dest += tok
            else:
                dest.append(_block_ids(ids, tok, no))
        elif key in ("SPECIAL", "GROUP", "COMMON") and point is None:
            raise ParseError(f"{key} before any POINT", no)
        elif key == "KIND":
            if _value(tok, no) != "STAR":
                raise ParseError(f"expected KIND STAR, got {tok[1]!r}", no)
        elif key == "POINT":
            close_point()
            if _value(tok, no) not in index:
                raise ParseError(f"unknown point label {tok[1]!r}", no)
            if tok[1] in points:
                raise ParseError(f"duplicate POINT {tok[1]}", no)
            point, point_line, dest = tok[1], no, None
        elif key == "SPECIAL":
            special = dest = []
        elif key == "GROUP":
            close_group()
            dest = None
        elif key == "COMMON":
            close_group()
            common, group_line, classes, dest = _block_ids(ids, tok[1:], no), no, [], None
        elif key == "CLASS":
            if classes is None:
                raise ParseError("CLASS before COMMON in a GROUP", no)
            dest = []
            classes.append((no, dest))
        else:
            raise ParseError(f"{key} not valid in a star file", no)
    close_point()
    if not points:
        raise ParseError("no POINT section found", 1)
    return points


def emit_star(companion: Design, certs: dict[str, StarPointCertificate]) -> str:
    names = list(companion.label_index)
    lines = ["KIND STAR"]
    for point, cert in certs.items():
        lines.append(f"POINT {point}")
        lines.append("SPECIAL")
        lines.extend(_blocks_text(names, cert.special))
        for gi, grp in enumerate(cert.groups, start=1):
            lines.append(f"GROUP {gi}")
            lines.append("COMMON " + " ".join(map(names.__getitem__, grp.common)))
            for cls in grp.classes:
                lines.append("CLASS")
                lines.extend(_blocks_text(names, sorted(cls)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# data directory


def data_dir() -> Path:
    override = os.environ.get("DESIGN_DATA_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "data"


def read_data(name: str) -> str:
    return (data_dir() / name).read_text(encoding="utf-8")
