import pytest

from dynpdt.core import (
    Config,
    ContractViolation,
    CorruptionError,
    InvalidKeyword,
    NO_VALUE,
    decode_symbol,
    encode_symbol,
    validate_keyword,
)


def test_validate_appends_terminator():
    assert validate_keyword(b"abc") == b"abc\x00"
    assert validate_keyword(bytearray(b"x")) == b"x\x00"
    assert validate_keyword(memoryview(b"hi")) == b"hi\x00"
    assert validate_keyword(bytes(range(1, 256))) == bytes(range(1, 256)) + b"\x00"


@pytest.mark.parametrize("bad", [b"", b"a\x00b", b"\x00", "text", 7, None])
def test_validate_rejects(bad):
    with pytest.raises(InvalidKeyword):
        validate_keyword(bad)


def test_symbol_round_trip():
    lam = 16
    for char in (0, 1, 65, 255):
        for off in (0, 1, lam - 1):
            code = encode_symbol(char, off, lam)
            assert code == char * lam + off
            assert decode_symbol(code, lam) == (char, off)


def test_step_marker_encoding():
    lam = 64
    step = encode_symbol(None, 0, lam)
    assert step == 256 * lam
    assert decode_symbol(step, lam) == (None, 0)
    # the marker sorts above every regular code
    assert step > encode_symbol(255, lam - 1, lam)
    with pytest.raises(ContractViolation):
        encode_symbol(None, 1, lam)


def test_symbol_range_checks():
    with pytest.raises(ContractViolation):
        encode_symbol(256, 0, 8)
    with pytest.raises(ContractViolation):
        encode_symbol(-1, 0, 8)
    with pytest.raises(ContractViolation):
        encode_symbol(10, 8, 8)
    with pytest.raises(CorruptionError):
        decode_symbol(256 * 8 + 1, 8)
    with pytest.raises(CorruptionError):
        decode_symbol(-1, 8)


def test_config_defaults_and_derived():
    cfg = Config()
    assert cfg.trie_repr == "cbt" and cfg.label_map == "slm"
    assert cfg.offset_limit == 64
    assert cfg.step_code == 256 * 64
    assert cfg.symbol_space == 512 * 64  # power of two, one spare half
    assert cfg.symbol_space == 1 << cfg.symbol_bits


@pytest.mark.parametrize("kwargs", [
    {"trie_repr": "xxx"},
    {"label_map": "xxx"},
    {"offset_limit": 3},       # not a power of two
    {"offset_limit": 2},       # below the minimum
    {"group_size": 12},
    {"initial_capacity": 100},
    {"initial_capacity": 8},
])
def test_config_rejects(kwargs):
    with pytest.raises((ContractViolation, ValueError)):
        Config(**kwargs)


def test_no_value_is_reserved():
    assert NO_VALUE == 0xFFFFFFFF
