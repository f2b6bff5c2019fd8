from quadsys import gf16


def test_alpha_satisfies_defining_polynomial():
    # a^4 = a + 1
    assert gf16.alpha_power(4) == gf16.add(gf16.ALPHA, 1)


def test_alpha_is_primitive():
    powers = {gf16.alpha_power(k) for k in range(15)}
    assert len(powers) == 15
    assert gf16._mul_slow(gf16.alpha_power(14), gf16.ALPHA) == 1


def test_addition_is_characteristic_two():
    for a in range(16):
        assert gf16.add(a, a) == 0
        assert gf16.add(0, a) == a
    assert gf16.add(gf16.ALPHA, 1) == gf16.alpha_power(4)


def test_text_forms():
    assert gf16.text(0) == "0"
    assert gf16.text(1) == "1"
    assert gf16.text(gf16.ALPHA) == "a^1"
    assert gf16.text(gf16.alpha_power(14)) == "a^14"
    assert {gf16.text(a) for a in range(16)} == {"0", "1"} | {
        f"a^{k}" for k in range(1, 15)
    }
