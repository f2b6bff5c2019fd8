import io
import pickle
import random
import re
import tracemalloc
from contextlib import redirect_stdout

import pytest

from quadsys import Gdd, catalog, core, formats
from quadsys.core import make_design, parse_label
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
from quadsys.star import StarGroup, StarPointCertificate


def test_design_round_trip_is_byte_stable():
    for name in ("sqs8", "sqs22", "rdgdd24"):
        text = emit_design(catalog.GENERATORS[name]())
        assert emit_design(parse_design(text)) == text


def test_parse_design_recovers_structure():
    d = parse_design(emit_design(catalog.sqs22()))
    assert d.v == 22 and d.t == 3 and len(d.blocks) == 385
    g = parse_design(emit_design(catalog.rdgdd24()))
    assert isinstance(g, Gdd)
    assert sorted(map(len, g.groups)) == [3] * 8
    assert g.design.blocks == catalog.rdgdd24().design.blocks


def test_sqs16_file_round_trip_keeps_field_labels():
    text = emit_design(catalog.sqs16())
    assert "a^14" in text
    assert emit_design(parse_design(text)) == text
    back = parse_design(text)
    assert back.labels == catalog.sqs16().labels
    assert back == catalog.sqs16()


def test_parse_design_errors_carry_line_numbers():
    good = emit_design(catalog.sqs8())
    bad = good + "0 1 2 4 5\n"
    with pytest.raises(ParseError) as err:
        parse_design(bad)
    assert f"line {good.count(chr(10)) + 1}" in str(err.value)
    with pytest.raises(ParseError, match="unknown label"):
        parse_design(good + "0 1 2 99\n")
    with pytest.raises(ParseError, match="repeated point"):
        parse_design(good + "0 0 1 2\n")
    with pytest.raises(ParseError, match="line 2: malformed point label '1_x'"):
        parse_design("KIND SQS\nPOINTS 0 1_x 2\n")
    gdd = emit_design(catalog.rdgdd24()).splitlines(keepends=True)
    assert gdd[5].startswith("GROUP ")
    first = gdd[5].split()[1]
    gdd[5] = gdd[5].replace(f" {first} ", " 99_9 ", 1)
    with pytest.raises(ParseError, match="line 6: unknown label '99_9' in GROUP"):
        parse_design("".join(gdd))
    with pytest.raises(ParseError, match="line 3: V 5 does not match 4 labels"):
        parse_design("KIND SQS\nT 3\nV 5\nK 4\nPOINTS 0 1 2 3\n0 1 2 3\n")
    with pytest.raises(ParseError, match="line 5: duplicate label in POINTS"):
        parse_design("KIND SQS\nT 3\nK 4\nPOINTS 0 1\nPOINTS 2 1\n0 1 2 3\n")


def test_a_parse_error_survives_pickling():
    # as it must to cross a process pool
    exc = pickle.loads(pickle.dumps(ParseError("unknown label '99_9'", 5)))
    assert type(exc) is ParseError
    assert str(exc) == "line 5: unknown label '99_9'" and exc.line == 5


def test_parse_design_rejects_a_negative_strength():
    good = emit_design(catalog.sqs8())
    assert good.splitlines()[1] == "T 3"
    with pytest.raises(ParseError, match="line 2: T -1 is negative"):
        parse_design(good.replace("T 3", "T -1", 1))
    gdd = emit_design(catalog.rdgdd24())
    with pytest.raises(ParseError, match="line 2: T -2 is negative"):
        parse_design(gdd.replace("T 3", "T -2", 1))
    assert parse_design(good.replace("T 3", "T 0", 1)).t == 0


def test_parse_design_rejects_a_strength_above_every_block_size():
    good = emit_design(catalog.sqs8())
    with pytest.raises(ParseError, match=r"^line 2: T 5 is above every block size in K=\[4\]$"):
        parse_design(good.replace("T 3", "T 5", 1))
    # the T line is named wherever it stands among the headers
    with pytest.raises(ParseError, match=r"^line 4: T 4 is above every block size in K=\[2, 3\]$"):
        parse_design("KIND RAW\nK 2 3\nPOINTS 0 1 2\nT 4\n0 1 2\n")
    assert parse_design(good.replace("T 3", "T 4", 1)).t == 4


@pytest.mark.parametrize("header", ["KIND SQS", "T 3", "V 8", "K 4", "T 2", "K 3 4"])
def test_a_repeated_design_header_is_a_parse_error_on_its_second_line(header):
    # the last one used to win, so T 2 after T 3 verified sqs8 at t = 2
    lines = emit_design(catalog.sqs8()).splitlines(keepends=True)
    key = header.split()[0]
    at = next(i for i, line in enumerate(lines) if line.split()[0] == key)
    text = "".join(lines[:5] + [header + "\n"] + lines[5:])
    assert at < 5
    with pytest.raises(ParseError, match=rf"^line 6: duplicate {key} line$"):
        parse_design(text)
    # POINTS may still be spread over several lines
    points = lines[4].split()
    assert points[0] == "POINTS" and len(points) == 9
    spread = lines[:4] + [" ".join(points[:5]) + "\n", "POINTS " + " ".join(points[5:]) + "\n"]
    spread += lines[5:]
    assert parse_design("".join(spread)) == catalog.sqs8()


def test_the_header_of_a_design_file_is_read_alone():
    d = catalog.sqs22()
    text = emit_design(d)
    head = parse_design(text, True)
    assert (head.t, head.sizes, head.labels, head.blocks, head.kind) == (3, {4}, d.labels, (), "SQS")
    lines = text.splitlines()
    # a block line after the header is not read, nor a keyword line after
    # it; a GDD gives no header design
    for line in ("0 1 2 99_9", "POINTS 99"):
        broken = "\n".join(lines[:6] + [line] + lines[6:]) + "\n"
        assert parse_design(broken, True) == head
        with pytest.raises(ParseError, match="^line 7: (unknown label '99_9'|POINTS after a block line)$"):
            parse_design(broken)
    assert parse_design(emit_design(catalog.rdgdd24()), True) is None
    # a fault of the header is the full parse's, at the same line: a POINTS
    # line after the blocks leaves the header without one
    late = [line for line in lines if not line.startswith("POINTS ")] + lines[4:5]
    bad = "\n".join(lines[:3] + ["K 4 0"] + lines[4:]) + "\n"
    for text, error in (("\n".join(late) + "\n", "line 1: missing KIND, T, K, or POINTS header"),
                        (bad, "line 4: K size 0 is below 1")):
        for only_head in (True, False):
            with pytest.raises(ParseError, match=f"^{error}$"):
                parse_design(text, only_head)


def test_parse_design_sorts_blocks_once_and_checks_each_where_it_is_read():
    # blocks out of order are sorted, a block that does not ascend is read
    # alone and sorted, and a block of a size not in K is named at its line
    # (a run's first line), before any block after it is read
    d = catalog.sqs22()
    lines = emit_design(d).splitlines()
    first = lines.index(next(line for line in lines if line[:1].isdigit()))
    edits = {
        "blocks out of order": lines[:first] + [lines[first + 1], lines[first]] + lines[first + 2:],
        "a block not ascending": lines[:first] + [" ".join(reversed(lines[first].split()))]
                                 + lines[first + 1:],
        "the last block first": lines[:first] + lines[-1:] + lines[first:-1],
    }
    for name, edited in edits.items():
        assert parse_design("\n".join(edited) + "\n") == d, name
    assert first == 5
    run = [line.replace("K 4", "K 3 5") for line in lines]
    extra = next(x for x in d.label_index if x not in lines[first + 2].split())
    alone = lines[:first + 2] + [lines[first + 2] + " " + extra, "0 0 1"]
    for edited, error in ((run, "line 6: block size 4 not in K=[3, 5]"),
                          (alone, "line 8: block size 5 not in K=[4]")):
        with pytest.raises(ParseError, match=rf"^{re.escape(error)}$"):
            parse_design("\n".join(edited) + "\n")


def test_parse_design_requires_headers():
    with pytest.raises(ParseError):
        parse_design("0 1 2\n")


def test_parse_design_holds_little_beyond_the_design(assembly112):
    # blocks become id tuples as they are read, so the peak stays near the
    # size of the Design itself rather than of every block's label tokens
    text = emit_design(assembly112.design)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        design = parse_design(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert design.blocks == assembly112.design.blocks
    assert peak - base <= 1.5 * (kept - base)


def test_emit_design_peak_stays_near_the_text(assembly112):
    # block lines are joined a chunk at a time: the peak is the text, its
    # pieces and one chunk's lines, not a list of every line's string
    text = emit_design(assembly112.design)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        again = emit_design(assembly112.design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == text
    assert peak - base <= 4 * len(text)


def test_mixed_size_blocks_emit_one_joined_line_each_and_parse_back(monkeypatch):
    rng = random.Random(3)
    labels = [parse_label(x) for x in ("0", "1", "2", "3", "10", "0_1", "2_3", "inf_0", "a^3")]
    blocks = [tuple(rng.sample(range(len(labels)), rng.randint(1, 5))) for _ in range(70)]
    d = make_design(1, {1, 2, 3, 4, 5}, labels, blocks + blocks[:4])
    names = [lab.text for lab in d.labels]
    want = [" ".join(names[p] for p in b) for b in d.blocks]
    assert {len(b) for b in d.blocks} == {1, 2, 3, 4, 5}
    for chunk in (formats._EMIT_CHUNK, 1, 7):  # chunks cut runs of one size
        monkeypatch.setattr(formats, "_EMIT_CHUNK", chunk)
        text = emit_design(d)
        assert text.splitlines()[5:] == want
        assert parse_design(text) == d
    classes = (d.blocks[:37], d.blocks[37:])
    text = emit_resolution(d, {"0_1": classes})
    lines = ["KIND RES", "POINT 0_1"]
    for cls in classes:
        lines += ["CLASS"] + [" ".join(names[p] for p in b) for b in sorted(cls)]
    assert text == "\n".join(lines) + "\n"
    assert parse_resolution(text, d) == {"0_1": classes}
    # a block of no points is an empty line, as a per-block join writes it
    assert formats._blocks_text(names, [(), (), (1,), (), (0, 2)]) == ["", "", "1", "", "0 2"]


# every line boundary str.splitlines accepts
SEPARATORS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def reference_tokens(text):
    """The line reader (reference): (line number, tokens) of every line
    that is not blank or a comment, a line ending at every break of
    ``str.splitlines`` and at its first '#'."""
    for no, raw in enumerate(text.splitlines(), 1):
        tok = raw.split("#", 1)[0].split()
        if tok:
            yield no, tok


def test_line_reader_matches_splitlines(monkeypatch):
    # with ids that know no label, no run is read as blocks: every line
    # comes as its tokens, through the rewrite of irregular text or not;
    # a keyword line is checked at its line either way, a line that starts
    # with a space included
    rng = random.Random(20261018)
    words = ["", "", "a", "0 1 2 3", "CLASS", "POINTS 0 1", " CLASS 5", " # note", "\t"]
    corpus = ["", "\n", "x", "\r\n\r\n", "a\r", "\r\r\n\n", "a\rb\nc",
              "".join(SEPARATORS), "x".join(SEPARATORS), "\n".join(SEPARATORS)]
    for _ in range(400):
        parts = []
        for _ in range(rng.randrange(1, 12)):
            parts += [rng.choice(words), rng.choice(SEPARATORS)]
        if rng.random() < 0.5:
            parts.pop()  # no final line break
        corpus.append("".join(parts))
    assert any(text.endswith("a") for text in corpus)  # no final newline
    assert any("\n\n" in text for text in corpus)  # an empty line
    corpus += [text + "\n" for text in corpus if text.isascii()]
    regular = [t.endswith("\n") and not any(map(t.__contains__, formats._IRREGULAR)) for t in corpus]
    assert any(regular) and not all(regular)  # both ways through _items
    checked = [any(tok == ["CLASS", "5"] for _, tok in reference_tokens(t)) for t in corpus]
    assert any(checked) and not all(checked)
    for size in (1, 2, 3, 5):
        monkeypatch.setattr(formats, "_LINE_CHUNK", size)
        for text in corpus:
            want = list(reference_tokens(text))
            bad = next((no for no, tok in want if tok == ["CLASS", "5"]), None)
            if bad is None:
                assert list(formats._items(text, formats._NO_IDS, {})) == want, (size, text)
            else:
                with pytest.raises(ParseError, match=f"^line {bad}: CLASS takes no value$"):
                    list(formats._items(text, formats._NO_IDS, {}))


def _noisy(text, rng):
    """``text`` with every line break drawn from SEPARATORS, blank and
    comment-only lines mixed in, and comments after tokens, some glued to
    the last one (``1_0#x``)."""
    parts = []
    for line in text.splitlines():
        for _ in range(rng.choice((0, 0, 0, 1, 2))):
            parts += [rng.choice(("", "  ", "\t", "# note", "  #", "#POINT 0")), rng.choice(SEPARATORS)]
        line = rng.choice(("", "", " ", "\t")) + line
        tail = rng.choice(("", "", "", " ", " # a comment", "#x", "##", " \t#"))
        parts += [line + tail, rng.choice(SEPARATORS)]
    return "".join(parts)


def _reference_lines(text):
    """The tokens of every line under the reference semantics, one line of
    single-space-joined tokens each."""
    lines = (" ".join(raw.split("#", 1)[0].split()) for raw in text.splitlines())
    return "\n".join(line for line in lines if line) + "\n"


@pytest.mark.parametrize("chunk", [formats._LINE_CHUNK, 7])
def test_certificate_readers_match_the_reference_tokens(monkeypatch, chunk):
    monkeypatch.setattr(formats, "_LINE_CHUNK", chunk)
    rng = random.Random(20261019)
    cases = [(parse_resolution, read_data("sqs22_derived.res"), catalog.sqs22()),
             (parse_star, read_data("sqs28_star.star"), catalog.sqs28())]
    for parse, text, companion in cases:
        want = parse(text, companion)
        noisy = _noisy(text, rng)
        assert "#x" in noisy and "\n# note" in noisy
        assert all(sep in noisy for sep in SEPARATORS)
        assert parse(_reference_lines(noisy), companion) == want
        assert parse(noisy, companion) == want


# the reference parser's own copy of the header rules
REFERENCE_KEYWORDS = {"KIND", "T", "V", "K", "POINTS", "GROUP", "POINT", "CLASS", "SPECIAL",
                      "COMMON"}
REFERENCE_DESIGN_KINDS = {"SQS", "STS", "GDD", "TD", "RAW"}


def reference_header(tok, no):
    """The values of header line ``no``, ``tok``: KIND, T, V and POINT take
    exactly one, CLASS and SPECIAL none, and every other keyword one or
    more."""
    key, values = tok[0], tok[1:]
    if key in ("KIND", "T", "V", "POINT") and len(values) != 1:
        raise ParseError(f"{key} takes exactly one value", no)
    if key in ("CLASS", "SPECIAL") and values:
        raise ParseError(f"{key} takes no value", no)
    if key in ("K", "POINTS", "GROUP", "COMMON") and not values:
        raise ParseError(f"{key} needs at least one {'block size' if key == 'K' else 'label'}", no)
    return values


def reference_int(text, key, no):
    """A header integer: an optional "-", then ASCII digits only."""
    digits = text[1:] if text.startswith("-") else text
    if not digits or any(ch not in "0123456789" for ch in digits):
        raise ParseError(f"{key} value {text!r} is not an integer", no)
    return int(text)


def reference_parse_design(text):
    """The parser that read the header of a design file, its keyword lines
    before the first block line, checked it whole, and then read each line
    after it in file order (reference)."""
    lines = list(reference_tokens(text))
    at = next((i for i, (_, tok) in enumerate(lines) if tok[0] not in REFERENCE_KEYWORDS), len(lines))
    kind = None
    t = t_line = None
    v = v_line = None
    sizes = []
    labels = []
    groups = []
    header_lines = {}
    for no, tok in lines[:at]:
        key = tok[0]
        # a header is checked for a repeat, then for its count of values,
        # and only then for whether a design file may hold it
        if key in ("KIND", "T", "V", "K"):  # each at most once
            if key in header_lines:
                raise ParseError(f"duplicate {key} line", no)
            header_lines[key] = no
        values = reference_header(tok, no)
        if key not in ("KIND", "T", "V", "K", "POINTS", "GROUP"):
            raise ParseError(f"{key} not valid in a design file", no)
        if key == "KIND":
            kind = values[0]
            if kind not in REFERENCE_DESIGN_KINDS:
                raise ParseError(f"unknown design kind {kind!r}", no)
        elif key == "T":
            t, t_line = reference_int(values[0], key, no), no
            if t < 0:
                raise ParseError(f"T {t} is negative", no)
        elif key == "V":
            v, v_line = reference_int(values[0], key, no), no
        elif key == "K":
            sizes = [reference_int(x, key, no) for x in values]
            if min(sizes) < 1:
                raise ParseError(f"K size {min(sizes)} is below 1", no)
        elif key == "POINTS":
            for x in values:
                try:
                    labels.append(parse_label(x))
                except ValueError:
                    raise ParseError(f"malformed point label {x!r}", no) from None
            if len(set(labels)) != len(labels):
                raise ParseError("duplicate label in POINTS", no)
        else:
            groups.append((no, tuple(values)))
    if kind is None or t is None or not sizes or not labels:
        raise ParseError("missing KIND, T, K, or POINTS header", 1)
    if v is not None and v != len(labels):
        raise ParseError(f"V {v} does not match {len(labels)} labels", v_line)
    if t > max(sizes):
        raise ParseError(f"T {t} is above every block size in K={sizes}", t_line)
    index = {lab.text: i for i, lab in enumerate(labels)}
    id_blocks = []
    for no, tok in lines[at:]:
        key = tok[0]
        if key in REFERENCE_KEYWORDS:  # its repeat and values first, as for a header
            if key in ("KIND", "T", "V", "K") and key in header_lines:
                raise ParseError(f"duplicate {key} line", no)
            reference_header(tok, no)
            raise ParseError(f"{key} after a block line", no)
        try:
            ids = tuple(index[x] for x in tok)
        except KeyError as exc:
            raise ParseError(f"unknown label {exc.args[0]!r}", no) from None
        if len(set(ids)) != len(ids):
            raise ParseError("repeated point in block", no)
        if len(ids) not in sizes:
            raise ParseError(f"block size {len(ids)} not in K={sizes}", no)
        id_blocks.append(ids)
    design = make_design(t=t, sizes=sizes, labels=labels, blocks=id_blocks, kind=kind)
    if not groups:
        return design
    # the GROUP lines partition the POINTS labels, checked label by label
    # in file order; a label left out is named at the last GROUP line
    group_line = {}
    for no, cell in groups:
        for x in cell:
            if x not in index:
                raise ParseError(f"unknown label {x!r} in GROUP", no)
            if x in group_line:
                raise ParseError(f"label {x!r} is already in a GROUP", no)
            group_line[x] = no
    for lab in labels:
        if lab.text not in group_line:
            raise ParseError(f"label {lab.text!r} is in no GROUP", groups[-1][0])
    cells = [tuple(sorted(index[x] for x in cell)) for _, cell in groups]
    return Gdd(design=design, groups=tuple(sorted(cells)))


def _outcome(parse, text):
    """The parsed object, or the type and message of what parsing raised."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


# a replacement token: a label of the file, an unknown or malformed label,
# a keyword, or a non-integer header value
_ODD_TOKENS = ("99_9", "77", "07", "inf", "x", "-1", "0", "POINTS", "K", "GROUP", "CLASS", "SQS")


def _mutant(lines, rng):
    """1 to 3 seeded line mutations of a design file's lines; half of the
    picks land on a header line, where order matters most, and half of the
    lines inserted go into the header, before the first block line."""
    lines = list(lines)

    def pick():
        heads = [i for i, line in enumerate(lines) if line[:1].isupper()]
        return rng.choice(heads) if heads and rng.random() < 0.5 else rng.randrange(len(lines))

    def place(low=0):
        head = next((i for i, line in enumerate(lines) if not line[:1].isupper()), len(lines))
        return rng.randint(low, max(low, head)) if rng.random() < 0.5 else rng.randint(low, len(lines))

    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        op = rng.choice(("delete", "swap", "duplicate", "to_end", "corrupt", "split_points",
                         "first_token"))
        i = pick()
        if op == "delete":
            del lines[i]
        elif op == "swap":
            j = pick()
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "duplicate":
            lines.insert(place(), lines[i])
        elif op == "to_end":
            lines.append(lines.pop(i))
        elif op == "first_token":
            lines[i] = lines[i].split(" ")[0]
        elif op == "corrupt":
            tok = lines[i].split()
            j = rng.randrange(len(tok)) if tok else 0
            new = rng.choice(_ODD_TOKENS + tuple(" ".join(lines).split()[:40]))
            how = rng.choice(("replace", "drop", "add"))
            if how == "replace" and tok:
                tok[j] = new
            elif how == "drop" and tok:
                del tok[j]
            else:
                tok.insert(j, new)
            lines[i] = " ".join(tok)
        else:  # POINTS spread over two lines, the second one moved
            at = next((k for k, line in enumerate(lines) if line.startswith("POINTS ")), None)
            tok = lines[at].split() if at is not None else []
            if len(tok) > 2:
                cut = rng.randrange(2, len(tok))
                lines[at] = " ".join(tok[:cut])
                lines.insert(place(at + 1), " ".join(["POINTS"] + tok[cut:]))
    return lines


def test_parse_design_matches_the_reference_parser():
    rng = random.Random(20221013)
    bases = {name: emit_design(catalog.GENERATORS[name]()).splitlines()
             for name in ("sqs8", "sqs14", "sqs22", "rdgdd24")}
    sqs8 = bases["sqs8"]
    assert sqs8[3] == "K 4" and sqs8[4].startswith("POINTS ")
    first = sqs8[5].split()
    # a block with a repeated point before the K line: the header lacks it,
    # and that is the error reported
    repeated = sqs8[:3] + sqs8[4:5] + [f"{first[0]} {first[0]} {first[1]} {first[2]}", "K x"]
    # labels on a POINTS line after the blocks: the header has too few
    points = sqs8[4].split()[1:]
    late = sqs8[:4] + ["POINTS " + " ".join(points[:4])] + sqs8[5:] + ["POINTS " + " ".join(points[4:])]
    late_no_v = late[:2] + late[3:]
    # keyword lines after the blocks of a whole file
    after = {key: sqs8 + [line] for key, line in (("POINTS", "POINTS 99"), ("T", "T 3"),
                                                   ("CLASS", "CLASS"), ("GROUP", "GROUP 0"))}
    # an unknown GROUP label
    rdgdd = bases["rdgdd24"]
    group = rdgdd[:5] + [rdgdd[5].replace("0_0", "9_9")] + rdgdd[6:]
    # GROUP lines that do not partition the points: an empty one, one
    # repeated, one deleted, one after the blocks
    assert rdgdd[5:7] == ["GROUP 0_0 0_1 0_2", "GROUP 1_0 1_1 1_2"]
    group_empty = rdgdd[:5] + ["GROUP"] + rdgdd[5:]
    group_twice = rdgdd[:6] + rdgdd[5:]
    group_gone = rdgdd[:6] + rdgdd[7:]
    group_late = rdgdd[:6] + rdgdd[7:] + rdgdd[6:7]
    # each block is checked as it is read: the line named is the first
    # failing one in file order, and no ParameterError escapes
    assert sqs8[5] == "0 1 2 5" and "5" in points[4:]
    oversize = sqs8[:5] + ["0 1 2 5 6"] + sqs8[6:9] + ["0 0 1 2"] + sqs8[9:]
    unknown_before_late = sqs8 + ["0 1 2 99_9", "POINTS 99_9"]
    pinned = [
        (repeated, (ParseError, "line 1: missing KIND, T, K, or POINTS header")),
        (late, (ParseError, "line 3: V 8 does not match 4 labels")),
        (late_no_v, (ParseError, "line 5: unknown label '5'")),
        (after["POINTS"], (ParseError, "line 20: POINTS after a block line")),
        (after["T"], (ParseError, "line 20: duplicate T line")),
        (after["CLASS"], (ParseError, "line 20: CLASS after a block line")),
        (after["GROUP"], (ParseError, "line 20: GROUP after a block line")),
        (group, (ParseError, "line 6: unknown label '9_9' in GROUP")),
        (group_empty, (ParseError, "line 6: GROUP needs at least one label")),
        (group_twice, (ParseError, "line 7: label '0_0' is already in a GROUP")),
        (group_gone, (ParseError, "line 12: label '1_0' is in no GROUP")),
        (group_late, (ParseError, f"line {len(rdgdd)}: GROUP after a block line")),
        (oversize, (ParseError, "line 6: block size 5 not in K=[4]")),
        (unknown_before_late, (ParseError, "line 20: unknown label '99_9'")),
        (sqs8, catalog.sqs8()),
    ]
    for lines, expected in pinned:
        text = "\n".join(lines) + "\n"
        assert _outcome(parse_design, text) == _outcome(reference_parse_design, text) == expected
    corpus = [
        "\n".join(_mutant(bases[name], rng)) + "\n"
        for name in sorted(bases) for _ in range(250)
    ]
    outcomes = []
    for text in corpus:
        got, want = _outcome(parse_design, text), _outcome(reference_parse_design, text)
        assert got == want, text
        outcomes.append(want[1] if isinstance(want, tuple) else "parsed")
    # the corpus reaches accepted files, every per-block error, header errors
    # and GROUP lines that do not partition the points
    for needed in ("parsed", "unknown label", "repeated point", "block size", "K value", "POINTS",
                   "above every block size", "already in a GROUP", "in no GROUP",
                   "duplicate KIND line", "duplicate T line", "duplicate V line",
                   "duplicate K line", "POINTS needs at least one label", "takes exactly one value",
                   "K needs at least one block size", "is below 1", "does not match",
                   "unknown design kind", "malformed point label", "in GROUP", "after a block line"):
        assert any(needed in outcome for outcome in outcomes), needed


# ---------------------------------------------------------------------------
# the block-run fast path against the line reader


def _both_readers(parse, text, *args):
    """The outcome of ``parse`` as it reads, and with every run of block
    lines declined, so that ``_items`` gives each line as its tokens, as
    ``test_line_reader_matches_splitlines`` checks: the value, or a
    ParseError's (message, line)."""

    def outcome():
        try:
            return parse(text, *args)
        except ParseError as exc:
            return exc.message, exc.line

    fast = outcome()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(formats, "_run_blocks", lambda run, ids: None)
        slow = outcome()
    return fast, slow


def _blocks_in_runs(parse, text, *args):
    """How many blocks ``parse(text, *args)`` gets from ``_items`` as runs."""
    runs = []
    items = formats._items

    def counted(*a, **kw):
        for no, tok in items(*a, **kw):
            if type(tok[0]) is tuple:
                runs.append(len(tok))
            yield no, tok

    with pytest.MonkeyPatch.context() as m:
        m.setattr(formats, "_items", counted)
        parse(text, *args)
    return sum(runs)


def _same_by_both_readers(design_text, res_texts=()):
    """Parse a design text and its resolution texts both ways; every block
    of them must come through the fast path.  Returns the design."""
    design, slow = _both_readers(parse_design, design_text)
    assert design == slow and isinstance(design, formats.Design)
    assert _blocks_in_runs(parse_design, design_text) == len(design.blocks)
    for text in res_texts:
        sections, slow = _both_readers(parse_resolution, text, design)
        assert sections == slow and isinstance(sections, dict)
        blocks = sum(len(c) for classes in sections.values() for c in classes)
        assert _blocks_in_runs(parse_resolution, text, design) == blocks
    return design


@pytest.fixture(scope="module")
def construct_tree(assembly112):
    """The texts `construct` writes for the RDSQS(112): design.design, then
    each point file, as ``_point_job`` emits it."""
    d = assembly112.design
    return [emit_design(d)] + [
        emit_resolution(d, {d.labels[p].text: assembly112.point_resolution(p).classes})
        for p in range(d.v)
    ]


def test_the_fast_path_reads_the_construct_tree_as_the_line_reader_does(construct_tree):
    assert len(construct_tree) == 113
    design = _same_by_both_readers(construct_tree[0], construct_tree[1:])
    assert design.v == 112


def test_the_fast_path_reads_gen_output_as_the_line_reader_does(tmp_path):
    from quadsys.cli import main

    for name in sorted(catalog.GENERATORS):
        out = tmp_path / f"{name}.design"
        with redirect_stdout(io.StringIO()):
            assert main(["gen", name, "--out", str(out)]) == 0
        res = [out.with_suffix(".res").read_text()] if name in catalog.RESOLUTIONS else []
        _same_by_both_readers(out.read_text(), res)


def test_the_fast_path_reads_the_shipped_data_as_the_line_reader_does():
    _same_by_both_readers(read_data("sqs28_base.blocks"))
    for name in ("sqs22", "rdgdd24", "rdgdd42"):
        _same_by_both_readers(emit_design(catalog.GENERATORS[name]()),
                              [read_data(f"{name}_derived.res")])


def _point_file_mutants(text, other, rng):
    """(kind, text) of seeded mutations of the point file ``text``; ``other``
    is another point file of the same design."""
    lines = text.splitlines()
    blocks = [i for i, line in enumerate(lines) if line[:1].isdigit()]
    classes = [i for i, line in enumerate(lines) if line == "CLASS"]

    def at_block(change):
        i = rng.choice(blocks)
        return "\n".join(lines[:i] + [change(lines[i])] + lines[i + 1:]) + "\n"

    def swap_label(word, at=None):
        def change(line):
            tok = line.split(" ")
            tok[rng.randrange(len(tok)) if at is None else at] = word
            return " ".join(tok)
        return change

    yield "comment", at_block(lambda line: line + " # note")
    yield "comment line", at_block(lambda line: "# " + line)
    yield "double space", at_block(lambda line: line.replace(" ", "  ", 1))
    yield "leading space", at_block(lambda line: " " + line)
    yield "trailing space", at_block(lambda line: line + " ")
    yield "blank line", at_block(lambda line: line + "\n")
    yield "tab", at_block(lambda line: line.replace(" ", "\t", 1))
    yield "CRLF", text.replace("\n", "\r\n")
    for brk in ("\f", "\x1c", "\u2028"):  # line breaks of the line reader
        i = rng.choice(classes)
        yield f"{brk!r} after CLASS", "\n".join(lines[:i] + [lines[i] + brk + lines[i + 1]]
                                                + lines[i + 2:]) + "\n"
    yield "descending block", at_block(lambda line: " ".join(reversed(line.split(" "))))
    yield "unknown label", at_block(swap_label("99_9"))
    for word in ("POINT", "CLASS", "K"):
        yield f"keyword {word} as a label", at_block(swap_label(word))
        yield f"keyword {word} as the first label", at_block(swap_label(word, 0))
    yield "four labels", at_block(lambda line: line + " " + line.split(" ")[0])
    i = rng.choice([i for i in blocks if i + 1 in blocks])
    head, tail = lines[i + 1].split(" ", 1)
    yield "a label moved up a line", "\n".join(
        lines[:i] + [lines[i] + " " + head, tail] + lines[i + 2:]) + "\n"
    i = rng.choice(classes)
    yield "empty CLASS", "\n".join(lines[:i] + ["CLASS"] + lines[i:]) + "\n"
    yield "duplicate POINT", text + "\n".join(lines[1:]) + "\n"
    yield "no final newline", text[:-1]
    yield "two POINT sections", text + other.split("\n", 1)[1]
    # headers with a token too many or too few
    assert lines[0].startswith("KIND ") and lines[1].startswith("POINT ")
    yield "second KIND", "\n".join(lines[:2] + lines[:1] + lines[2:]) + "\n"
    yield "bare KIND", "\n".join(["KIND"] + lines[1:]) + "\n"
    yield "bare POINT", "\n".join(lines[:1] + ["POINT"] + lines[2:]) + "\n"
    yield "POINT with two values", "\n".join(lines[:1] + [lines[1] + " x"] + lines[2:]) + "\n"
    i = classes[len(classes) // 2]
    yield "CLASS with a value", "\n".join(lines[:i] + ["CLASS 5"] + lines[i + 1:]) + "\n"
    # mutations that parse and change what a section claims
    def replaced(changes):
        out = list(lines)
        for i, line in changes.items():
            out[i] = line
        return "\n".join(out) + "\n"

    spans = [range(c + 1, end) for c, end in zip(classes, classes[1:] + [len(lines)])]
    one, two = rng.sample(spans, 2)
    i, j = rng.choice(one), rng.choice(two)
    yield "a triple repeated over another", replaced({j: lines[i]})
    yield "two triples swapped between classes", replaced({i: lines[j], j: lines[i]})
    i, j = rng.sample(one, 2)
    (a, *bc), (d, *ef) = lines[i].split(" "), lines[j].split(" ")
    yield "a label swapped in a class", replaced({i: " ".join([d, *bc]), j: " ".join([a, *ef])})
    # another point's section relabelled by the transposition of the two
    # points: a resolution on the right ground, of the wrong triples
    x, y = lines[1].split()[1], other.split("\n", 2)[1].split()[1]
    swap = {x: y, y: x}
    yield "relabelled by a transposition", "".join(
        " ".join(swap.get(tok, tok) for tok in line.split(" ")) + "\n"
        for line in other.splitlines())
    # one triple moved to the next class: as many triples, ragged classes
    k = len(classes) // 2
    moved = lines[:classes[k] + 1] + lines[classes[k] + 2:]
    moved.insert(classes[k + 1], lines[classes[k] + 1])
    yield "a triple moved to the next class", "\n".join(moved) + "\n"
    yield "a comment line at the end", text + "# end\n"


def test_the_fast_path_matches_the_line_reader_on_mutated_point_files(construct_tree):
    rng = random.Random(20261019)
    design = parse_design(construct_tree[0])
    kinds = set()
    for _ in range(3):
        text, other = rng.sample(construct_tree[1:], 2)
        for kind, mutant in _point_file_mutants(text, other, rng):
            fast, slow = _both_readers(parse_resolution, mutant, design)
            assert fast == slow, kind
            kinds.add((kind, "parsed" if isinstance(fast, dict) else fast[0]))
    # the corpus reaches accepted files and each error of the reader
    outcomes = {outcome.split(" ")[0] for _, outcome in kinds}
    assert {"parsed", "unknown", "POINT", "empty", "duplicate"} <= outcomes, kinds
    messages = {outcome for _, outcome in kinds}
    assert {"duplicate KIND line", "KIND takes exactly one value", "POINT takes exactly one value",
            "CLASS takes no value"} <= messages, kinds


def test_the_owner_route_and_the_frame_route_agree_on_mutated_point_files(construct_tree):
    # the frame route proves a section against derived_frame's target; the
    # owner route by its ranks and the owner table: same verdict everywhere
    rng = random.Random(20261021)
    design = parse_design(construct_tree[0])
    owner = core.owner_table(design)
    verdicts = {}
    for _ in range(3):
        text, other = rng.sample(construct_tree[1:], 2)
        for kind, mutant in _point_file_mutants(text, other, rng):
            try:
                sections = parse_resolution(mutant, design)
            except ParseError:
                continue
            for point, classes in sections.items():
                x = design.label_index[point]
                ranks = core.class_ranks(design.v, x, classes)
                by_owner = ranks is not None and core.owns(owner, x, ranks)
                res = formats.resolution_for_point(design, point, classes)
                assert by_owner == core.verify_resolution(res).passed, (kind, point)
                verdicts.setdefault(kind, set()).add(by_owner)
    assert verdicts["comment"] == verdicts["two POINT sections"] == {True}
    for kind in ("four labels", "a label moved up a line", "a triple repeated over another",
                 "two triples swapped between classes", "a label swapped in a class",
                 "relabelled by a transposition"):
        assert verdicts[kind] == {False}, kind


def _reader_ranks(text, design):
    """(point, class count, ranks) of a point file as ``cli._ranked_file``
    reads it first: ``point_ids`` and ``section_ranks``; None where either
    declines."""
    read = formats.point_ids(text, design)
    if read is None:
        return None
    point, n, flat = read
    ranks = core.section_ranks(design.v, design.label_index[point], flat)
    return None if ranks is None else (point, n, sorted(ranks))


def _tuple_ranks(text, design):
    """(point, class count, ranks) of each section ``parse_resolution``
    reads, by ``class_ranks``; the ranks are None where it declines."""
    out = []
    for point, classes in parse_resolution(text, design).items():
        ranks = core.class_ranks(design.v, design.label_index[point], classes)
        out.append((point, len(classes), None if ranks is None else sorted(ranks)))
    return out


def test_the_point_file_reader_ranks_as_the_line_reader_and_the_tuple_path_do(construct_tree):
    design = parse_design(construct_tree[0])
    # every file of the construct tree takes the reader
    for text in construct_tree[1:]:
        got = _reader_ranks(text, design)
        assert got is not None and [got] == _tuple_ranks(text, design)
    rng = random.Random(20261022)
    taken = {}
    for _ in range(3):
        text, other = rng.sample(construct_tree[1:], 2)
        for kind, mutant in _point_file_mutants(text, other, rng):
            got = _reader_ranks(mutant, design)
            taken.setdefault(kind, set()).add(got is not None)
            if got is not None:  # then the line reader reads the same ranks
                assert [got] == _tuple_ranks(mutant, design), kind
    # it takes a section that ranks on the point's ground, though not of its
    # own triples, and declines every other mutant: text that is not
    # canonical or holds more than one section, a label the header lacks,
    # ragged classes, a triple whose ids do not ascend, and the rest
    assert {kind for kind, was in taken.items() if True in was} == {"a label swapped in a class"}
    assert {"CRLF", "comment", "a comment line at the end", "unknown label", "descending block",
            "a triple moved to the next class"} <= taken.keys()


def test_report_says_on_every_mutated_point_file_what_the_line_reader_alone_says(
    tmp_path, monkeypatch
):
    # report's workers try ``point_ids`` first; with it declining every file,
    # each is read by ``parse_resolution`` alone, as before the reader was
    # written: the same stdout, stderr and exit code on every mutant
    from contextlib import redirect_stderr

    from quadsys.cli import main

    d = catalog.sqs22()
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "design.design").write_text(emit_design(d))
    texts = {x: emit_resolution(d, {x: r.classes}) for x, r in catalog.sqs22_resolutions().items()}
    for x, text in texts.items():
        (out_dir / f"point_{x}.res").write_text(text)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0})

    def report(reader):
        out, err = io.StringIO(), io.StringIO()
        with monkeypatch.context() as m, redirect_stdout(out), redirect_stderr(err):
            m.setattr(formats, "point_ids", reader)
            code = main(["report", str(out_dir)])
        return code, out.getvalue(), err.getvalue()

    rng = random.Random(20261023)
    codes = set()
    for _ in range(2):
        x, y = rng.sample(sorted(texts), 2)
        for kind, mutant in _point_file_mutants(texts[x], texts[y], rng):
            (out_dir / f"point_{x}.res").write_text(mutant)
            got = report(formats.point_ids)
            assert got == report(lambda text, companion: None), kind
            codes.add(got[0])
        (out_dir / f"point_{x}.res").write_text(texts[x])
    assert codes == {0, 1, 2}


def _star_texts(tmp_path):
    """(design, star text) of ``gen sqs28``, and of the same relabelled by
    a seeded permutation of its point ids, as bench/rdsqs112.py writes it."""
    from quadsys.cli import main

    out = tmp_path / "sqs28.design"
    with redirect_stdout(io.StringIO()):
        assert main(["gen", "sqs28", "--out", str(out)]) == 0
    d, cert = parse_design(out.read_text()), catalog.sqs28_star()
    perm = list(range(d.v))
    random.Random("rdsqs112:7").shuffle(perm)

    def move(b):
        return tuple(sorted(perm[p] for p in b))

    moved = make_design(d.t, d.sizes, d.labels, [move(b) for b in d.blocks], d.kind)
    per_point = {
        d.labels[perm[x]].text: StarPointCertificate(
            point=perm[x],
            special=tuple(sorted(map(move, pc.special))),
            groups=tuple(StarGroup(common=move(g.common),
                                   classes=tuple(tuple(sorted(map(move, c))) for c in g.classes))
                         for g in pc.groups))
        for x, pc in sorted(cert.per_point.items(), key=lambda kv: perm[kv[0]])
    }
    return [(d, out.with_suffix(".star").read_text()), (moved, emit_star(moved, per_point))]


def test_every_star_triple_comes_through_a_run(tmp_path):
    for design, text in _star_texts(tmp_path):
        certs, slow = _both_readers(parse_star, text, design)
        assert certs == slow and len(certs) == 28
        triples = sum(len(c.special) + sum(len(k) for g in c.groups for k in g.classes)
                      for c in certs.values())
        assert _blocks_in_runs(parse_star, text, design) == triples == 28 * (9 + 27 * 9)


def test_parse_star_matches_the_line_reader_on_mutated_star_files(tmp_path):
    rng = random.Random(20261020)
    kinds = set()
    for design, text in _star_texts(tmp_path):
        # the first four POINT sections are a star file of their own
        lines = text.splitlines(keepends=True)
        heads = [i for i, line in enumerate(lines) if line.startswith("POINT ")]
        short, other = "".join(lines[:heads[4]]), "".join(lines[:1] + lines[heads[4]:heads[6]])
        commons = [i for i, line in enumerate(lines[:heads[4]]) if line.startswith("COMMON ")]
        i = rng.choice(commons)
        mutants = list(_point_file_mutants(short, other, rng))
        mutants.append(("dropped COMMON", "".join(lines[:i] + lines[i + 1:heads[4]])))
        # the star headers with a token too many or too few
        mutants.append(("bare COMMON", "".join(lines[:i] + ["COMMON\n"] + lines[i + 1:heads[4]])))
        mutants.append(("bare GROUP", "".join(lines[:i - 1] + ["GROUP\n"] + lines[i:heads[4]])))
        assert lines[2] == "SPECIAL\n" and lines[i - 1].startswith("GROUP ")
        mutants.append(("SPECIAL with a value",
                        "".join(lines[:2] + ["SPECIAL 1_0\n"] + lines[3:heads[4]])))
        for kind, mutant in mutants:
            fast, slow = _both_readers(parse_star, mutant, design)
            assert fast == slow, kind
            kinds.add((kind, "parsed" if isinstance(fast, dict) else fast[0]))
    outcomes = {outcome.split(" ")[0] for _, outcome in kinds}
    # accepted files, unknown labels, cut groups and classes, a CLASS with no
    # COMMON, a keyword line out of place and a duplicate POINT
    assert {"parsed", "unknown", "each", "class", "CLASS", "K", "duplicate"} <= outcomes, kinds
    # and each header with a token too many or too few
    messages = {outcome for _, outcome in kinds}
    assert {"duplicate KIND line", "KIND takes exactly one value", "POINT takes exactly one value",
            "CLASS takes no value", "SPECIAL takes no value", "COMMON needs at least one label",
            "GROUP needs at least one label"} <= messages, kinds


def test_parse_resolution_peak_stays_near_what_it_keeps():
    # each run is one class, mapped and regrouped on its own: the peak is
    # what is kept plus one class's labels, not the whole file's
    design = catalog.rdgdd42()
    text = read_data("rdgdd42_derived.res")
    parse_resolution(text, design)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sections = parse_resolution(text, design)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sections) == 42
    assert peak - base <= 2 * (kept - base)


def test_parse_resolution_rewrites_irregular_text_a_piece_at_a_time():
    # text with CRLF or bare CR line ends is rewritten to canonical lines a
    # piece at a time, so the bound of canonical text holds (1.6 and 1.75
    # times what is kept); a rewrite of the whole file at once reads 2.5 times
    design = catalog.rdgdd42()
    for brk in ("\r\n", "\r"):
        text = read_data("rdgdd42_derived.res").replace("\n", brk)
        assert len(text) > 2 * formats._LINE_CHUNK
        want = parse_resolution(text, design)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sections = parse_resolution(text, design)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sections == want and len(sections) == 42
        assert peak - base <= 2 * (kept - base), repr(brk)
        del text, want, sections  # so none is freed inside the next measure


def test_resolution_round_trip_is_byte_stable():
    d = catalog.sqs22()
    text = read_data("sqs22_derived.res")
    sections = parse_resolution(text, d)
    assert emit_resolution(d, sections) == text
    assert list(sections) == [lab.text for lab in d.labels]
    assert all(len(classes) == 10 for classes in sections.values())


def test_parse_resolution_rejects_bad_structure():
    d = catalog.sqs8()
    with pytest.raises(ParseError, match="line 1: KIND takes exactly one value"):
        parse_resolution("KIND\nPOINT 0\n", d)
    with pytest.raises(ParseError, match="unknown point"):
        parse_resolution("KIND RES\nPOINT zap\n", d)
    with pytest.raises(ParseError, match="line 3: empty CLASS"):
        parse_resolution("KIND RES\nPOINT 0\nCLASS\nCLASS\n1 2 3\n", d)
    with pytest.raises(ParseError, match="line 5: empty CLASS"):
        parse_resolution("KIND RES\nPOINT 0\nCLASS\n1 2 3\nCLASS\n", d)
    with pytest.raises(ParseError, match="line 5: ragged classes at POINT 1"):
        parse_resolution(
            "KIND RES\nPOINT 0\nCLASS\n1 2 3\nPOINT 1\nCLASS\n0 2 3\nCLASS\n0 2 3\n4 5 6\n",
            d,
        )
    with pytest.raises(ParseError, match="outside a CLASS"):
        parse_resolution("KIND RES\nPOINT 0\n1 2 3\n", d)
    with pytest.raises(ParseError, match="duplicate POINT"):
        parse_resolution(
            "KIND RES\nPOINT 0\nCLASS\n1 2 3\nPOINT 0\nCLASS\n1 2 3\n", d
        )


def test_star_round_trip_is_byte_stable():
    d = catalog.sqs28()
    text = read_data("sqs28_star.star")
    seeds = parse_star(text, d)
    assert list(seeds) == [lab.text for lab in d.labels]
    assert emit_star(d, seeds) == text


def test_star_seed_arities():
    d = catalog.sqs28()
    seeds = parse_star(read_data("sqs28_star.star"), d)
    for cert in seeds.values():
        assert len(cert.special) == 9
        assert len(cert.groups) == 9
        for grp in cert.groups:
            assert len(grp.classes) == 3
            assert all(len(cls) == 9 for cls in grp.classes)


def test_parse_star_rejects_wrong_group_arity():
    d = catalog.sqs28()
    text = read_data("sqs28_star.star")
    # drop one CLASS line block: remove the last CLASS section of the file
    idx = text.rstrip().rfind("CLASS")
    common = text[:idx].count("\n", 0, text.rfind("COMMON")) + 1
    with pytest.raises(ParseError, match=f"line {common}: each GROUP needs exactly 3 CLASS"):
        parse_star(text[:idx], d)


def test_parse_star_names_the_offending_header_line():
    d = catalog.sqs28()
    text = read_data("sqs28_star.star")
    lines = text.splitlines(keepends=True)
    second_point = next(i for i, line in enumerate(lines) if line == "POINT 0_1\n")
    with pytest.raises(ParseError, match=f"line {second_point + 1}: duplicate POINT 0_0"):
        parse_star(text.replace("POINT 0_1\n", "POINT 0_0\n"), d)
    short = "".join(lines[:3])  # KIND, POINT, SPECIAL and one triple
    with pytest.raises(ParseError, match="line 2: SPECIAL class needs 9 triples"):
        parse_star(short, d)
    first_class = lines.index("CLASS\n")
    cut = "".join(lines[:first_class + 2] + ["CLASS\n"] * 2)
    with pytest.raises(ParseError, match=f"line {first_class + 1}: class has 1 triples"):
        parse_star(cut, d)
    with pytest.raises(ParseError, match="line 2: COMMON before any POINT"):
        parse_star("KIND STAR\nCOMMON 0_0 0_1 0_2\n", d)


def test_a_second_special_class_at_a_point_is_a_parse_error(tmp_path, capsys):
    from quadsys.cli import main

    design = tmp_path / "sqs28.design"
    with redirect_stdout(io.StringIO()):
        assert main(["gen", "sqs28", "--out", str(design)]) == 0
    lines = design.with_suffix(".star").read_text().splitlines(keepends=True)
    assert lines[1:3] == ["POINT 0_0\n", "SPECIAL\n"]
    first_class = lines.index("CLASS\n")
    # a SPECIAL section of two triples of a class before the true one,
    # which now opens on line 6
    extra = lines[:2] + ["SPECIAL\n"] + lines[first_class + 1:first_class + 3] + lines[2:]
    with pytest.raises(ParseError, match=r"^line 6: second SPECIAL class in a POINT$"):
        parse_star("".join(extra), catalog.sqs28())
    star = tmp_path / "extra.star"
    star.write_text("".join(extra))
    capsys.readouterr()
    assert main(["verify", str(design), str(star)]) == 2
    assert capsys.readouterr() == ("", f"error: {star}: line 6: second SPECIAL class in a POINT\n")


def test_group_lines_are_optional_in_a_star_file():
    # a COMMON line opens each group; a GROUP line only ends one, and its
    # number is never read
    d = catalog.sqs28()
    text = read_data("sqs28_star.star")
    bare = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("GROUP"))
    assert len(bare.splitlines()) == len(text.splitlines()) - 28 * 9
    assert parse_star(bare, d) == parse_star(text, d)
    renumbered = text.replace("GROUP 1\n", "GROUP 7 x\n")
    assert renumbered != text and parse_star(renumbered, d) == parse_star(text, d)


@pytest.mark.parametrize(
    "text,message",
    [("KIND\n", "line 1: KIND takes"), ("KIND STAR\nPOINT\n", "line 2: POINT takes"),
     ("KIND STAR\nPOINT 0_0\nGROUP\n", "line 3: GROUP needs at least one label"),
     ("KIND STAR\nPOINT 0_0\nCOMMON\n", "line 3: COMMON needs at least one label")],
)
def test_parse_star_rejects_header_without_value(text, message):
    with pytest.raises(ParseError, match=message):
        parse_star(text, catalog.sqs28())


def test_comments_and_blank_lines_are_ignored():
    d = catalog.sqs8()
    text = emit_design(d)
    noisy = "# generated file\n\n" + text.replace("KIND SQS", "KIND SQS  # kind")
    assert parse_design(noisy).blocks == d.blocks


def test_data_dir_override(tmp_path, monkeypatch):
    from quadsys.formats import data_dir

    original = read_data("sqs22_derived.res")
    alt = tmp_path / "data"
    alt.mkdir()
    (alt / "sqs22_derived.res").write_text(original.replace("POINT 0", "POINT 1", 1))
    monkeypatch.setenv("DESIGN_DATA_DIR", str(alt))
    assert data_dir() == alt
    assert read_data("sqs22_derived.res") == original.replace("POINT 0", "POINT 1", 1)
    monkeypatch.delenv("DESIGN_DATA_DIR")
    assert read_data("sqs22_derived.res") == original
