import io
import pickle
import random
import tracemalloc
from contextlib import redirect_stdout

import pytest

from quadsys import Gdd, catalog, formats
from quadsys.core import make_design, parse_label
from quadsys.formats import (
    _DESIGN_KINDS,
    _KEYWORDS,
    ParseError,
    _int,
    _tokenized,
    _value,
    emit_design,
    emit_resolution,
    emit_star,
    parse_design,
    parse_resolution,
    parse_star,
    read_data,
)


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


def test_line_reader_matches_splitlines(monkeypatch):
    rng = random.Random(20261018)
    words = ["", "", "a", "0 1 2 3", "KIND SQS", " # note", "\t"]
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
    for size in (1, 2, 3, 5):
        monkeypatch.setattr(formats, "_LINE_CHUNK", size)
        for text in corpus:
            want = list(enumerate(text.splitlines(), 1))
            assert list(formats._numbered_lines(text)) == want, (size, text)


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


def reference_parse_design(text):
    """The parser that read every block line as label tokens and mapped
    them to ids only once the whole file was read (reference)."""
    kind = None
    t = t_line = None
    v = v_line = None
    sizes = []
    labels = []
    groups = []
    blocks = []
    block_lines = []
    for no, tok in _tokenized(text):
        key = tok[0]
        if key == "KIND":
            kind = _value(tok, no)
            if kind not in _DESIGN_KINDS:
                raise ParseError(f"unknown design kind {kind!r}", no)
        elif key == "T":
            t, t_line = _int(_value(tok, no), key, no), no
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
        elif key == "GROUP":
            groups.append((no, tuple(tok[1:])))
        elif key in _KEYWORDS:
            raise ParseError(f"{key} not valid in a design file", no)
        else:
            blocks.append(tuple(tok))
            block_lines.append(no)
    if kind is None or t is None or not sizes or not labels:
        raise ParseError("missing KIND, T, K, or POINTS header", 1)
    if v is not None and v != len(labels):
        raise ParseError(f"V {v} does not match {len(labels)} labels", v_line)
    if t > max(sizes):
        raise ParseError(f"T {t} is above every block size in K={sizes}", t_line)
    index = {lab.text: i for i, lab in enumerate(labels)}
    id_blocks = []
    for tok, no in zip(blocks, block_lines):
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
        if not cell:
            raise ParseError("GROUP needs at least one label", no)
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
    picks land on a header line, where order matters most."""
    lines = list(lines)

    def pick():
        heads = [i for i, line in enumerate(lines) if line[:1].isupper()]
        return rng.choice(heads) if heads and rng.random() < 0.5 else rng.randrange(len(lines))

    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        op = rng.choice(("delete", "swap", "duplicate", "to_end", "corrupt", "split_points"))
        i = pick()
        if op == "delete":
            del lines[i]
        elif op == "swap":
            j = pick()
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "duplicate":
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif op == "to_end":
            lines.append(lines.pop(i))
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
                lines.insert(rng.randrange(at + 1, len(lines) + 1), " ".join(["POINTS"] + tok[cut:]))
    return lines


def test_parse_design_matches_the_reference_parser():
    rng = random.Random(20221013)
    bases = {name: emit_design(catalog.GENERATORS[name]()).splitlines()
             for name in ("sqs8", "sqs14", "sqs22", "rdgdd24")}
    sqs8 = bases["sqs8"]
    assert sqs8[3] == "K 4" and sqs8[4].startswith("POINTS ")
    first = sqs8[5].split()
    # a block with a repeated point before a malformed K line: the header
    # error is the one reported
    repeated = sqs8[:3] + sqs8[4:5] + [f"{first[0]} {first[0]} {first[1]} {first[2]}", "K x"]
    # blocks whose labels come from a later POINTS line
    points = sqs8[4].split()[1:]
    late = sqs8[:4] + ["POINTS " + " ".join(points[:4])] + sqs8[5:] + ["POINTS " + " ".join(points[4:])]
    # an unknown GROUP label
    rdgdd = bases["rdgdd24"]
    group = rdgdd[:5] + [rdgdd[5].replace("0_0", "9_9")] + rdgdd[6:]
    # GROUP lines that do not partition the points: an empty one, one
    # repeated, one deleted
    assert rdgdd[5:7] == ["GROUP 0_0 0_1 0_2", "GROUP 1_0 1_1 1_2"]
    group_empty = rdgdd[:5] + ["GROUP"] + rdgdd[5:]
    group_twice = rdgdd[:6] + rdgdd[5:]
    group_gone = rdgdd[:6] + rdgdd[7:]
    # make_design checks every block; the line named is still the first
    # failing one in file order, and no ParameterError escapes
    assert sqs8[5] == "0 1 2 5" and "5" in points[4:]
    oversize = sqs8[:5] + ["0 1 2 5 6"] + sqs8[6:9] + ["0 0 1 2"] + sqs8[9:]
    # the late block is resolved after the whole file is read, yet the
    # oversized block before it is the one reported
    oversize_late = sqs8[:4] + ["POINTS " + " ".join(points[:4]), "0 1 2 3 4", "0 1 2 99_9"]
    oversize_late += sqs8[5:] + ["POINTS " + " ".join(points[4:])]
    every_late = sqs8[:4] + sqs8[5:] + sqs8[4:5]
    unknown_after_late = late[:6] + ["0 1 2 99_9"] + late[6:]
    repeat_after_late = late[:7] + ["0 1 1 2"] + late[7:] + ["0 1 2 99_9"]
    pinned = [
        (repeated, (ParseError, "line 6: K value 'x' is not an integer")),
        (late, catalog.sqs8()),
        (group, (ParseError, "line 6: unknown label '9_9' in GROUP")),
        (group_empty, (ParseError, "line 6: GROUP needs at least one label")),
        (group_twice, (ParseError, "line 7: label '0_0' is already in a GROUP")),
        (group_gone, (ParseError, "line 12: label '1_0' is in no GROUP")),
        (oversize, (ParseError, "line 6: block size 5 not in K=[4]")),
        (oversize_late, (ParseError, "line 6: block size 5 not in K=[4]")),
        (every_late, catalog.sqs8()),
        (unknown_after_late, (ParseError, "line 7: unknown label '99_9'")),
        (repeat_after_late, (ParseError, "line 8: repeated point in block")),
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
                   "above every block size", "already in a GROUP", "in no GROUP"):
        assert any(needed in outcome for outcome in outcomes), needed


# ---------------------------------------------------------------------------
# the block-run fast path against the line reader


def _both_readers(parse, text, *args):
    """The outcome of ``parse`` as it reads, and with the line reader
    alone: the value, or a ParseError's (message, line)."""

    def outcome():
        try:
            return parse(text, *args)
        except ParseError as exc:
            return exc.message, exc.line

    fast = outcome()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(formats, "_items", lambda text, ids, ascending=False: _tokenized(text))
        slow = outcome()
    return fast, slow


def _blocks_in_runs(text, design, ascending):
    """How many blocks of ``text`` the fast path reads as runs."""
    ids = {lab.text: i for i, lab in enumerate(design.labels)}.__getitem__
    return sum(len(tok) for _, tok in formats._items(text, ids, ascending) if type(tok[0]) is tuple)


def _same_by_both_readers(design_text, res_texts=()):
    """Parse a design text and its resolution texts both ways; every block
    of them must come through the fast path.  Returns the design."""
    design, slow = _both_readers(parse_design, design_text)
    assert design == slow and isinstance(design, formats.Design)
    assert _blocks_in_runs(design_text, design, False) == len(design.blocks)
    for text in res_texts:
        sections, slow = _both_readers(parse_resolution, text, design)
        assert sections == slow and isinstance(sections, dict)
        blocks = sum(len(c) for classes in sections.values() for c in classes)
        assert _blocks_in_runs(text, design, True) == blocks
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


def test_the_fast_path_matches_the_line_reader_on_mutated_point_files(construct_tree):
    rng = random.Random(20261019)
    design = parse_design(construct_tree[0])
    kinds = set()
    for _ in range(3):
        text, other = rng.sample(construct_tree[1:], 2)
        for kind, mutant in _point_file_mutants(text, other, rng):
            fast, slow = _both_readers(parse_resolution, mutant, design)
            assert fast == slow, kind
            kinds.add((kind, "parsed" if isinstance(fast, dict) else fast[0].split(" ")[0]))
    # the corpus reaches accepted files and each error of the reader
    outcomes = {outcome for _, outcome in kinds}
    assert {"parsed", "unknown", "POINT", "empty", "duplicate"} <= outcomes, kinds


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


@pytest.mark.parametrize(
    "text,message",
    [("KIND\n", "line 1: KIND takes"), ("KIND STAR\nPOINT\n", "line 2: POINT takes")],
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
