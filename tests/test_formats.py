import pytest

from quadsys import Gdd, catalog
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


def test_design_round_trip_is_byte_stable():
    for name in ("sqs8", "sqs22", "rdgdd24"):
        text = emit_design(catalog.GENERATORS[name]())
        assert emit_design(parse_design(text)) == text


def test_parse_design_recovers_structure():
    d = parse_design(emit_design(catalog.sqs22()))
    assert d.v == 22 and d.t == 3 and len(d.blocks) == 385
    g = parse_design(emit_design(catalog.rdgdd24()))
    assert isinstance(g, Gdd)
    assert g.type_multiset == (3,) * 8
    assert g.design.blocks == catalog.rdgdd24().design.blocks


def test_sqs16_file_round_trip_keeps_field_labels():
    text = emit_design(catalog.sqs16())
    assert "a^14" in text
    assert emit_design(parse_design(text)) == text


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


def test_parse_design_requires_headers():
    with pytest.raises(ParseError):
        parse_design("0 1 2\n")


def test_resolution_round_trip_is_byte_stable():
    d = catalog.sqs22()
    text = read_data("sqs22_derived.res")
    sections = parse_resolution(text, d)
    assert emit_resolution(d, sections) == text
    assert set(sections) == {"inf_0", "0"}
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
    assert sorted(seeds) == ["0_0", "0_1", "0_2", "0_3"]
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
    assert "POINT 1" in read_data("sqs22_derived.res")
    monkeypatch.delenv("DESIGN_DATA_DIR")
    assert read_data("sqs22_derived.res") == original
