"""Unit tests for the parity-split stream cipher and its framing."""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_oea_decrypt, loop_oea_encrypt, loop_parse_int_line, loop_redundancy
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
    assert cipher.sc == b"01"
    assert cipher.se.tolist() == [-188]
    assert cipher.so.tolist() == [105]
    assert cipher.red1 == b"00000"
    assert cipher.red2.tolist() == [195, 195, 195, 195, 195]
    assert oea_decrypt(cipher, b"A") == b"Hi"


def test_empty_plaintext():
    cipher = oea_encrypt(b"", b"A")
    assert cipher.sc == b"" and cipher.se.size == 0 and cipher.so.size == 0
    assert cipher.red1 == b"00000"
    assert cipher.red2.tolist() == [65] * 5
    assert oea_decrypt(cipher, b"A") == b""


def test_weight_multiple_of_ten_gives_empty_redundancy():
    key = b"2"  # byte 50
    assert key_weight(key) % 10 == 0
    cipher = oea_encrypt(b"hello", key)
    assert cipher.red1 == b"" and cipher.red2.size == 0
    assert oea_decrypt(cipher, key) == b"hello"


def test_red1_bit_rule_inverted_from_marker():
    # even key byte -> '1', odd -> '0'
    cipher = oea_encrypt(b"", bytes([2, 3, 5]))  # weight 10 % 10 = 0 -> avoid
    assert cipher.red1 == b""
    cipher = oea_encrypt(b"", bytes([2, 3, 4]))  # weight 9 -> nine bits
    assert cipher.red1 == b"101101101"


def test_marker_records_byte_parity():
    plaintext = bytes(range(16))
    cipher = oea_encrypt(plaintext, b"key")
    assert cipher.sc == "".join(str(b % 2) for b in plaintext).encode("ascii")
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
        values = np.concatenate((cipher.se, cipher.so, cipher.red2))
        assert np.all(np.abs(values) <= bound)


def test_tampered_red2_raises_key_mismatch():
    cipher = oea_encrypt(b"Hi", b"A")
    cipher.red2[0] += 1
    with pytest.raises(KeyMismatch):
        oea_decrypt(cipher, b"A")


def test_tampered_red1_raises_key_mismatch():
    cipher = replace(oea_encrypt(b"Hi", b"A"), red1=b"10000")
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


def ints(*values):
    return np.array(values, np.int64)


def test_structural_validation():
    with pytest.raises(MalformedCipher):
        OeaCipher(b"0x", b"01", ints(1), ints(2), ints(3, 4))
    with pytest.raises(MalformedCipher):
        OeaCipher(b"", b"021", ints(1), ints(2), ints())
    with pytest.raises(MalformedCipher):
        OeaCipher(b"", b"1x", ints(1), ints(2), ints())  # a non-bit marker with matching lengths
    with pytest.raises(MalformedCipher):
        OeaCipher(b"", b"01", ints(1, 2), ints(3), ints())  # lengths disagree with marker
    with pytest.raises(MalformedCipher):
        OeaCipher(b"", b"01", ints(1), ints(2), ints(9))  # red lengths differ
    with pytest.raises(MalformedCipher):
        OeaCipher(b"", b"0110", ints(1, 2, 3), ints(4), ints())  # bit counts off
    for red1, sc in (("", b"10"), (b"", "10")):  # text where bytes belong
        with pytest.raises(MalformedCipher, match="must be bytes"):
            OeaCipher(red1, sc, ints(2), ints(1), ints())
    assert OeaCipher(b"", b"10", ints(2), ints(1), ints()).sc == b"10"


def test_mutated_cipher_detected_at_decrypt():
    cipher = oea_encrypt(b"Hi", b"A")
    with pytest.raises(MalformedCipher):
        oea_decrypt(replace(cipher, sc=b"11"), b"A")
    with pytest.raises(MalformedCipher):
        oea_decrypt(replace(cipher, red1=b"0000x"), b"A")


def test_out_of_range_recovered_value():
    cipher = oea_encrypt(b"Hi", b"A")
    cipher.se[0] += 256
    with pytest.raises(NonByteValue):
        oea_decrypt(cipher, b"A")


def test_serialize_hand_traced_vector():
    cipher = oea_encrypt(b"Hi", b"A")
    text = serialize_oea(cipher)
    assert text == b"PIOU2 5 2 1 1 5\n00000\n01\n-188\n105\n195 195 195 195 195\n"


def test_serialize_sections_over_several_format_blocks():
    # 3 blocks of FORMAT_BLOCK_ROWS values and one more, in each section
    count = 3 * _text.FORMAT_BLOCK_ROWS + 1
    rng = np.random.default_rng(8)
    values = [rng.integers(-(2**62), 2**62, count) for _ in range(3)]
    cipher = OeaCipher(b"0" * count, b"0" * count + b"1" * count, *values)
    lines = serialize_oea(cipher).split(b"\n")
    assert lines[3:] == [" ".join(map(str, section.tolist())).encode("ascii") for section in values] + [b""]
    assert parse_oea(serialize_oea(cipher)).se.tolist() == values[0].tolist()


def test_serialize_empty_plaintext_header():
    text = serialize_oea(oea_encrypt(b"", b"A"))
    assert text.splitlines()[0] == b"PIOU2 5 0 0 0 5"
    assert text.count(b"\n") == 6


def test_serialization_round_trip_random():
    rng = random.Random(7)
    for _ in range(100):
        key = bytes(rng.randrange(256) for _ in range(rng.randint(1, 40)))
        plaintext = bytes(rng.randrange(256) for _ in range(rng.randint(0, 200)))
        cipher = oea_encrypt(plaintext, key)
        parsed = parse_oea(serialize_oea(cipher))
        assert sections(parsed) == sections(cipher)
        assert oea_decrypt(parsed, key) == plaintext


@pytest.mark.parametrize("length", ["+5", "05"])
def test_parse_rejects_non_canonical_header_lengths(length):
    good = serialize_oea(oea_encrypt(b"Hi", b"A"))
    assert good.startswith(b"PIOU2 5 ")
    with pytest.raises(ParseError) as excinfo:
        parse_oea(good.replace(b"PIOU2 5 ", f"PIOU2 {length} ".encode("ascii"), 1))
    assert excinfo.value.line == 1


def test_parse_rejects_negative_header_length():
    with pytest.raises(ParseError, match="header lengths must be >= 0") as excinfo:
        parse_oea(b"PIOU2 -1 0 0 0 0\n" + b"\n" * 5)
    assert excinfo.value.line == 1


def test_parse_errors_name_sections():
    good = serialize_oea(oea_encrypt(b"Hi", b"A"))

    truncated = b"\n".join(good.splitlines()[:4]) + b"\n"
    with pytest.raises(ParseError) as excinfo:
        parse_oea(truncated)
    assert "so" in str(excinfo.value)

    with pytest.raises(ParseError):
        parse_oea(good[:-1])  # missing final newline

    with pytest.raises(ParseError) as excinfo:
        parse_oea(good.replace(b"PIOU2", b"PIOUX"))
    assert excinfo.value.line == 1

    short_se = good.replace(b"\n-188\n", b"\n\n")
    with pytest.raises(ParseError) as excinfo:
        parse_oea(short_se)
    assert "se" in str(excinfo.value)

    bad_bits = good.replace(b"\n01\n", b"\n02\n")
    with pytest.raises(ParseError) as excinfo:
        parse_oea(bad_bits)
    assert "sc" in str(excinfo.value)


def sections(cipher):
    """The five sections of a cipher as bytes and lists of Python ints."""
    return cipher.red1, cipher.sc, cipher.se.tolist(), cipher.so.tolist(), cipher.red2.tolist()


def outcome(fn, *args):
    """The result of a call, or its exception class and message."""
    try:
        return fn(*args)
    except Exception as exc:  # compared as (class, message)
        return type(exc), str(exc)


keys = st.binary(min_size=1, max_size=40)
INT64_EDGES = [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**62, -(2**62), 2**70, -(2**70)]
IN_INT64 = range(-(2**63), 2**63)


@settings(deadline=None)
@given(keys, st.integers(0, 2**62 - 1), st.integers(0, 30))
def test_redundancy_matches_loop(key, mk, length):
    bits, values = _redundancy(key, mk, length)
    assert values.dtype == np.int64
    assert (bits, values.tolist()) == loop_redundancy(key, mk, length)


@settings(deadline=None)
@given(st.binary(max_size=300), keys)
def test_encrypt_matches_loop(plaintext, key):
    cipher = oea_encrypt(plaintext, key)
    assert sections(cipher) == loop_oea_encrypt(plaintext, key)
    assert cipher.se.dtype == cipher.so.dtype == cipher.red2.dtype == np.int64


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
        if stream.size:
            at = where % len(stream)
            new = value if set_value else int(stream[at]) + value
            if new in IN_INT64:  # no section can hold another value
                stream[at] = new
    assert outcome(oea_decrypt, cipher, key) == outcome(loop_oea_decrypt, cipher, key)


@pytest.mark.parametrize("value", INT64_EDGES)
@pytest.mark.parametrize(
    "section,where", [("se", 0), ("se", 1), ("se", -1), ("so", 0), ("so", -1)]
)
def test_decrypt_matches_loop_at_int64_edges(value, section, where):
    """Decrypt agrees with the oracle at every edge a section can hold; a
    section given a value outside int64 is refused when the cipher is built."""
    key = b"edge key"
    cipher = oea_encrypt(bytes(range(40)), key)
    if value not in IN_INT64:
        edited = getattr(cipher, section).astype(object)
        edited[where] = value
        with pytest.raises(MalformedCipher):
            replace(cipher, **{section: edited})
        return
    getattr(cipher, section)[where] = value
    assert outcome(oea_decrypt, cipher, key) == outcome(loop_oea_decrypt, cipher, key)


def test_decrypt_leaves_the_cipher_unchanged():
    key = b"edge key"
    cipher = oea_encrypt(bytes(range(40)), key)
    before = sections(cipher)
    assert oea_decrypt(cipher, key) == bytes(range(40))
    assert sections(cipher) == before
    # a value this large takes the Python-integer path
    cipher.se[-1] = 2**62
    before = sections(cipher)
    with pytest.raises(NonByteValue):
        oea_decrypt(cipher, key)
    assert sections(cipher) == before


@settings(deadline=None)
@given(st.binary(max_size=100), keys, keys)
def test_decrypt_matches_loop_under_other_keys(plaintext, key, other):
    cipher = oea_encrypt(plaintext, key)
    assert outcome(oea_decrypt, cipher, other) == outcome(loop_oea_decrypt, cipher, other)


# Each token as the UTF-8 bytes a file would hold: "\u0663", an Arabic-Indic
# digit, becomes two non-ASCII bytes.
tokens = st.one_of(
    st.integers(-(2**66), 2**66).map(str),
    st.sampled_from(INT64_EDGES).map(str),
    st.sampled_from(
        ["+5", "05", "-0", "00", "", "1_0", "\u0663", "\t1", "1.0", "x", "- 1", "1\r"]
    ),
).map(str.encode)


def parsed_int_line(line, count, section, line_no):
    values = _parse_int_line(line, count, section, line_no)
    assert values.dtype == np.int64 and values.ndim == 1
    return values.tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(tokens, max_size=8), st.integers(-1, 1))
def test_int_line_parse_matches_loop(token_list, count_offset):
    line = b" ".join(token_list)
    count = (line.count(b" ") + 1 if line else 0) + count_offset
    assert outcome(parsed_int_line, line, count, "se", 4) == outcome(
        loop_parse_int_line, line, count, "se", 4
    )


def one_value_text(section_line):
    """A PIOU2 text whose only value sits in the se section."""
    return f"PIOU2 0 1 1 0 0\n\n0\n{section_line}\n\n\n".encode("ascii")


@pytest.mark.parametrize("value", [2**63 - 1, -(2**63)])
def test_parse_accepts_int64_ends(value):
    assert parse_oea(one_value_text(str(value))).se.tolist() == [value]


@pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
def test_parse_rejects_values_outside_int64(value):
    with pytest.raises(ParseError) as excinfo:
        parse_oea(one_value_text(str(value)))
    assert excinfo.value.line == 4
    assert "se section" in str(excinfo.value)


LONG = b"9" * 5000  # longer than int() converts by default (4,300 digits)


@pytest.mark.parametrize(
    "line",
    [LONG, b"-" + LONG, b"1 %s 2" % LONG, b"%d -%s" % (2**63, LONG), b"%d %s" % (2**63 - 1, LONG)],
    ids=["long", "negative-long", "long-in-middle", "after-out-of-range", "after-int64-max"],
)
def test_token_too_long_for_int_is_parse_error(line):
    count = line.count(b" ") + 1
    expected = outcome(loop_parse_int_line, line, count, "se", 4)
    assert outcome(parsed_int_line, line, count, "se", 4) == expected
    with pytest.raises(ParseError) as excinfo:
        parse_oea(b"PIOU2 0 %d %d 0 0\n\n%s\n%s\n\n\n" % (count, count, b"0" * count, line))
    assert excinfo.value.line == 4
    assert str(excinfo.value) == expected[1]


def test_value_outside_int64_is_malformed_cipher():
    """A section is a 1-D int64 array and nothing else is coerced into one,
    so no section can hold a value outside int64."""
    cipher = oea_encrypt(b"Hi", b"A")
    for section in ("se", "so", "red2"):
        values = getattr(cipher, section)
        too_big = values.astype(object)
        too_big[0] = 2**63
        far_too_big = values.astype(object)
        far_too_big[0] = 2**70
        for bad in (
            too_big,
            far_too_big,
            values.tolist(),
            values.astype(np.int32),
            values.reshape(1, -1),
            values.astype(object),
        ):
            with pytest.raises(MalformedCipher, match="1-D int64 array"):
                replace(cipher, **{section: bad})
    assert oea_decrypt(cipher, b"A") == b"Hi"
