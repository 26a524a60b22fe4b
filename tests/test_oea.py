"""Unit tests for the parity-split stream cipher and its framing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pioucrypt import _text
from pioucrypt.errors import (
    EmptyKey,
    KeyMismatch,
    MalformedCipher,
    NonByteValue,
    OverflowGuard,
    ParseError,
)
from pioucrypt.oea import (
    OeaCipher,
    _parse_int_line,
    _redundancy,
    key_weight,
    master_key,
    oea_decrypt,
    oea_encrypt,
    parse_oea,
    serialize_oea,
)


def test_key_weight_examples():
    assert key_weight(b"A") == 65
    assert key_weight(b"AA") == 130
    assert key_weight(b" ") == 32


def test_key_weight_rejects_empty():
    with pytest.raises(EmptyKey):
        key_weight(b"")
    with pytest.raises(EmptyKey):
        oea_encrypt(b"abc", b"")


def test_master_key_and_overflow_guard():
    assert master_key(key_weight(b"A"), 2) == 130
    assert master_key(key_weight(b"A"), 0) == 0
    with pytest.raises(OverflowGuard):
        master_key(key_weight(b"\xff" * 1000), 2**55)


def test_hand_traced_vector():
    cipher = oea_encrypt(b"Hi", b"A")
    assert cipher.sc == "01"
    assert cipher.se == [-188]
    assert cipher.so == [105]
    assert cipher.red1 == "00000"
    assert cipher.red2 == [195, 195, 195, 195, 195]
    assert oea_decrypt(cipher, b"A") == b"Hi"


def test_empty_plaintext():
    cipher = oea_encrypt(b"", b"A")
    assert cipher.sc == "" and cipher.se == [] and cipher.so == []
    assert cipher.red1 == "00000"
    assert cipher.red2 == [65] * 5
    assert oea_decrypt(cipher, b"A") == b""


def test_weight_multiple_of_ten_gives_empty_redundancy():
    key = b"2"  # byte 50
    assert key_weight(key) % 10 == 0
    cipher = oea_encrypt(b"hello", key)
    assert cipher.red1 == "" and cipher.red2 == []
    assert oea_decrypt(cipher, key) == b"hello"


def test_red1_bit_rule_inverted_from_marker():
    # even key byte -> '1', odd -> '0'
    cipher = oea_encrypt(b"", bytes([2, 3, 5]))  # weight 10 % 10 = 0 -> avoid
    assert cipher.red1 == ""
    cipher = oea_encrypt(b"", bytes([2, 3, 4]))  # weight 9 -> nine bits
    assert cipher.red1 == "101101101"


def test_marker_records_byte_parity():
    plaintext = bytes(range(16))
    cipher = oea_encrypt(plaintext, b"key")
    assert cipher.sc == "".join(str(b % 2) for b in plaintext)
    assert len(cipher.se) == sum(1 for b in plaintext if b % 2 == 0)
    assert len(cipher.so) == sum(1 for b in plaintext if b % 2 == 1)


def test_round_trip_random_pairs():
    rng = random.Random(2024)
    for _ in range(300):
        key = bytes(rng.randrange(256) for _ in range(rng.randint(1, 60)))
        plaintext = bytes(rng.randrange(256) for _ in range(rng.randint(0, 400)))
        cipher = oea_encrypt(plaintext, key)
        weight = key_weight(key)
        assert len(cipher.sc) == len(plaintext)
        assert len(cipher.se) + len(cipher.so) == len(plaintext)
        assert len(cipher.red1) == len(cipher.red2) == weight % 10
        assert oea_decrypt(cipher, key) == plaintext


def test_round_trip_parity_extremes():
    key = b"paritykey"
    all_even = bytes([0, 2, 4, 200, 254] * 10)
    all_odd = bytes([1, 3, 251, 255] * 10)
    assert oea_decrypt(oea_encrypt(all_even, key), key) == all_even
    assert oea_decrypt(oea_encrypt(all_odd, key), key) == all_odd
    single = bytes([7])
    assert oea_decrypt(oea_encrypt(single, key), key) == single


def test_all_zero_key_round_trips():
    key = bytes(3)  # weight 0: no redundancy, master key 0
    plaintext = b"\x00\x01\x02still works"
    assert oea_decrypt(oea_encrypt(plaintext, key), key) == plaintext


def test_intermediate_values_bounded():
    # every transformed value stays within 2*master_key + 255*len, well
    # inside signed 64-bit range under the overflow guard
    rng = random.Random(99)
    for _ in range(200):
        key = bytes(rng.randrange(256) for _ in range(rng.randint(1, 50)))
        plaintext = bytes(rng.randrange(256) for _ in range(rng.randint(1, 300)))
        cipher = oea_encrypt(plaintext, key)
        bound = 2 * master_key(key_weight(key), len(plaintext)) + 255 * len(plaintext)
        values = cipher.se + cipher.so + cipher.red2
        assert all(abs(v) <= bound for v in values)


def test_tampered_red2_raises_key_mismatch():
    cipher = oea_encrypt(b"Hi", b"A")
    cipher.red2[0] += 1
    with pytest.raises(KeyMismatch):
        oea_decrypt(cipher, b"A")


def test_tampered_red1_raises_key_mismatch():
    cipher = oea_encrypt(b"Hi", b"A")
    cipher.red1 = "10000"
    with pytest.raises(KeyMismatch):
        oea_decrypt(cipher, b"A")


def test_wrong_key_weight_raises_key_mismatch():
    cipher = oea_encrypt(b"payload", b"correct key")
    with pytest.raises(KeyMismatch):
        oea_decrypt(cipher, b"correct keX")
    with pytest.raises(KeyMismatch):
        oea_decrypt(cipher, b"B")


def test_same_weight_different_bytes_in_red_window():
    key = b"AB"  # weight 131 -> red length 1, checks key byte 0
    cipher = oea_encrypt(b"text", key)
    with pytest.raises(KeyMismatch):
        oea_decrypt(cipher, b"BA")  # same weight, different first byte


def test_structural_validation():
    with pytest.raises(MalformedCipher):
        OeaCipher("0x", "01", [1], [2], [3, 4])
    with pytest.raises(MalformedCipher):
        OeaCipher("", "021", [1], [2], [])
    with pytest.raises(MalformedCipher):
        OeaCipher("", "1x", [1], [2], [])  # a non-bit marker with matching lengths
    with pytest.raises(MalformedCipher):
        OeaCipher("", "01", [1, 2], [3], [])  # lengths disagree with marker
    with pytest.raises(MalformedCipher):
        OeaCipher("", "01", [1], [2], [9])  # red lengths differ
    with pytest.raises(MalformedCipher):
        OeaCipher("", "0110", [1, 2, 3], [4], [])  # bit counts off


def test_mutated_cipher_detected_at_decrypt():
    cipher = oea_encrypt(b"Hi", b"A")
    cipher.sc = "11"
    with pytest.raises(MalformedCipher):
        oea_decrypt(cipher, b"A")
    cipher = oea_encrypt(b"Hi", b"A")
    cipher.red1 = "0000x"
    with pytest.raises(MalformedCipher):
        oea_decrypt(cipher, b"A")


def test_out_of_range_recovered_value():
    cipher = oea_encrypt(b"Hi", b"A")
    cipher.se[0] += 256
    with pytest.raises(NonByteValue):
        oea_decrypt(cipher, b"A")


def test_serialize_hand_traced_vector():
    cipher = oea_encrypt(b"Hi", b"A")
    text = serialize_oea(cipher)
    assert text == "PIOU2 5 2 1 1 5\n00000\n01\n-188\n105\n195 195 195 195 195\n"


def test_serialize_empty_plaintext_header():
    text = serialize_oea(oea_encrypt(b"", b"A"))
    assert text.splitlines()[0] == "PIOU2 5 0 0 0 5"
    assert text.count("\n") == 6


def test_serialization_round_trip_random():
    rng = random.Random(7)
    for _ in range(100):
        key = bytes(rng.randrange(256) for _ in range(rng.randint(1, 40)))
        plaintext = bytes(rng.randrange(256) for _ in range(rng.randint(0, 200)))
        cipher = oea_encrypt(plaintext, key)
        parsed = parse_oea(serialize_oea(cipher))
        assert parsed == cipher
        assert oea_decrypt(parsed, key) == plaintext


@pytest.mark.parametrize("length", ["+5", "05"])
def test_parse_rejects_non_canonical_header_lengths(length):
    good = serialize_oea(oea_encrypt(b"Hi", b"A"))
    assert good.startswith("PIOU2 5 ")
    with pytest.raises(ParseError) as excinfo:
        parse_oea(good.replace("PIOU2 5 ", f"PIOU2 {length} ", 1))
    assert excinfo.value.line == 1


def test_parse_errors_name_sections():
    good = serialize_oea(oea_encrypt(b"Hi", b"A"))

    truncated = "\n".join(good.splitlines()[:4]) + "\n"
    with pytest.raises(ParseError) as excinfo:
        parse_oea(truncated)
    assert "so" in str(excinfo.value)

    with pytest.raises(ParseError):
        parse_oea(good[:-1])  # missing final newline

    with pytest.raises(ParseError) as excinfo:
        parse_oea(good.replace("PIOU2", "PIOUX"))
    assert excinfo.value.line == 1

    short_se = good.replace("\n-188\n", "\n\n")
    with pytest.raises(ParseError) as excinfo:
        parse_oea(short_se)
    assert "se" in str(excinfo.value)

    bad_bits = good.replace("\n01\n", "\n02\n")
    with pytest.raises(ParseError) as excinfo:
        parse_oea(bad_bits)
    assert "sc" in str(excinfo.value)


# The per-token loops that the array code replaced, kept as oracles.


def loop_redundancy(key, mk, length):
    bits = "".join("1" if key[i % len(key)] % 2 == 0 else "0" for i in range(length))
    values = [key[i % len(key)] + mk for i in range(length)]
    return bits, values


def loop_oea_encrypt(plaintext, key):
    weight = key_weight(key)
    mk = master_key(weight, len(plaintext))
    se, so, sc_bits = [], [], []
    for byte in plaintext:
        if byte % 2 == 1:
            so.append(byte)
            sc_bits.append("1")
        else:
            se.append(byte)
            sc_bits.append("0")
    if se:
        se[0] -= mk
        for i in range(1, len(se)):
            se[i] += se[i - 1]
        se[-1] -= mk
    if so:
        so[0] -= mk
        for i in range(1, len(so)):
            so[i] += so[i - 1]
        so[-1] += mk
    red1, red2 = loop_redundancy(key, mk, weight % 10)
    return OeaCipher(red1, "".join(sc_bits), se, so, red2)


def loop_oea_decrypt(cipher, key):
    cipher.validate()
    weight = key_weight(key)
    mk = master_key(weight, len(cipher.sc))
    expected_red1, expected_red2 = loop_redundancy(key, mk, weight % 10)
    if (
        len(cipher.red1) != weight % 10
        or cipher.red1 != expected_red1
        or cipher.red2 != expected_red2
    ):
        raise KeyMismatch("redundancy sections do not match the supplied key")
    se = list(cipher.se)
    if se:
        se[-1] += mk
        for i in range(len(se) - 1, 0, -1):
            se[i] -= se[i - 1]
        se[0] += mk
    so = list(cipher.so)
    if so:
        so[-1] -= mk
        for i in range(len(so) - 1, 0, -1):
            so[i] -= so[i - 1]
        so[0] += mk
    out = bytearray()
    even_iter, odd_iter = iter(se), iter(so)
    for bit in cipher.sc:
        value = next(odd_iter) if bit == "1" else next(even_iter)
        if not 0 <= value <= 255:
            raise NonByteValue(f"recovered value {value} outside [0, 255]")
        out.append(value)
    return bytes(out)


def loop_parse_int_line(line, count, section, line_no):
    """The token loop, plus the rule that a value outside int64 is refused."""
    tokens = line.split(" ") if line else []
    if len(tokens) != count:
        raise ParseError(
            f"{section} section: expected {count} values, found {len(tokens)}", line_no
        )
    values = _text.canon_ints(tokens, f"{section} section", line_no)
    for token, value in zip(tokens, values):
        if not -(2**63) <= value < 2**63:
            raise ParseError(
                f"{section} section: {token!r} is outside the 64-bit integer range", line_no
            )
    return values


def outcome(fn, *args):
    """The result of a call, or its exception class and message."""
    try:
        return fn(*args)
    except Exception as exc:  # compared as (class, message)
        return type(exc), str(exc)


keys = st.binary(min_size=1, max_size=40)
INT64_EDGES = [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**62, -(2**62), 2**70, -(2**70)]


@settings(deadline=None)
@given(keys, st.integers(0, 2**62 - 1), st.integers(0, 30))
def test_redundancy_matches_loop(key, mk, length):
    assert _redundancy(key, mk, length) == loop_redundancy(key, mk, length)


@settings(deadline=None)
@given(st.binary(max_size=300), keys)
def test_encrypt_matches_loop(plaintext, key):
    cipher = oea_encrypt(plaintext, key)
    assert cipher == loop_oea_encrypt(plaintext, key)
    assert all(type(v) is int for v in cipher.se + cipher.so + cipher.red2)


@settings(deadline=None)
@given(
    st.binary(max_size=200),
    keys,
    st.lists(
        st.tuples(
            st.sampled_from(["se", "so"]),
            st.integers(0, 10**6),
            st.one_of(st.integers(-300, 300), st.sampled_from(INT64_EDGES)),
        ),
        max_size=3,
    ),
    st.booleans(),
)
def test_decrypt_matches_loop_on_edited_ciphers(plaintext, key, edits, set_value):
    cipher = oea_encrypt(plaintext, key)
    for section, where, value in edits:
        stream = getattr(cipher, section)
        if stream:
            at = where % len(stream)
            stream[at] = value if set_value else stream[at] + value
    assert outcome(oea_decrypt, cipher, key) == outcome(loop_oea_decrypt, cipher, key)


@pytest.mark.parametrize("value", INT64_EDGES)
@pytest.mark.parametrize(
    "section,where", [("se", 0), ("se", 1), ("se", -1), ("so", 0), ("so", -1)]
)
def test_decrypt_matches_loop_at_int64_edges(value, section, where):
    key = b"edge key"
    cipher = oea_encrypt(bytes(range(40)), key)
    getattr(cipher, section)[where] = value
    assert outcome(oea_decrypt, cipher, key) == outcome(loop_oea_decrypt, cipher, key)


@settings(deadline=None)
@given(st.binary(max_size=100), keys, keys)
def test_decrypt_matches_loop_under_other_keys(plaintext, key, other):
    cipher = oea_encrypt(plaintext, key)
    assert outcome(oea_decrypt, cipher, other) == outcome(loop_oea_decrypt, cipher, other)


tokens = st.one_of(
    st.integers(-(2**66), 2**66).map(str),
    st.sampled_from(INT64_EDGES).map(str),
    st.sampled_from(
        ["+5", "05", "-0", "00", "", "1_0", "\u0663", "\t1", "1.0", "x", "- 1", "1\r"]
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(tokens, max_size=8), st.integers(-1, 1))
def test_int_line_parse_matches_loop(token_list, count_offset):
    line = " ".join(token_list)
    count = (line.count(" ") + 1 if line else 0) + count_offset
    assert outcome(_parse_int_line, line, count, "se", 4) == outcome(
        loop_parse_int_line, line, count, "se", 4
    )


def one_value_text(section_line):
    """A PIOU2 text whose only value sits in the se section."""
    return f"PIOU2 0 1 1 0 0\n\n0\n{section_line}\n\n\n"


@pytest.mark.parametrize("value", [2**63 - 1, -(2**63)])
def test_parse_accepts_int64_ends(value):
    assert parse_oea(one_value_text(str(value))).se == [value]


@pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
def test_parse_rejects_values_outside_int64(value):
    with pytest.raises(ParseError) as excinfo:
        parse_oea(one_value_text(str(value)))
    assert excinfo.value.line == 4
    assert "se section" in str(excinfo.value)


LONG = "9" * 5000  # longer than int() converts by default (4,300 digits)


@pytest.mark.parametrize(
    "line",
    [LONG, "-" + LONG, f"1 {LONG} 2", f"{2**63} -{LONG}", f"{2**63 - 1} {LONG}"],
    ids=["long", "negative-long", "long-in-middle", "after-out-of-range", "after-int64-max"],
)
def test_token_too_long_for_int_is_parse_error(line):
    count = line.count(" ") + 1
    expected = outcome(loop_parse_int_line, line, count, "se", 4)
    assert outcome(_parse_int_line, line, count, "se", 4) == expected
    with pytest.raises(ParseError) as excinfo:
        parse_oea(f"PIOU2 0 {count} {count} 0 0\n\n{'0' * count}\n{line}\n\n\n")
    assert excinfo.value.line == 4
    assert str(excinfo.value) == expected[1]


def test_value_outside_int64_set_by_hand_is_non_byte_value():
    cipher = oea_encrypt(b"Hi", b"A")
    cipher.se[0] = 2**70
    with pytest.raises(NonByteValue) as excinfo:
        oea_decrypt(cipher, b"A")
    assert str(excinfo.value) == outcome(loop_oea_decrypt, cipher, b"A")[1]
