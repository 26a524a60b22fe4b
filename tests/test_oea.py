"""Unit tests for the parity-split stream cipher and its framing."""

import random

import pytest

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
