import pytest

from dynpdt.core import (
    Config,
    ContractViolation,
    InvalidKeyword,
    NO_VALUE,
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


def test_validate_names_accepted_types():
    with pytest.raises(InvalidKeyword, match="bytes, bytearray or memoryview, got str"):
        validate_keyword("text")


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
    {"offset_limit": 1 << 56},  # packed (node, code) keys would exceed 64 bits
    {"group_size": 16.0},       # sizes are ints, even when the value is listed
    {"initial_capacity": 16.0},
    {"offset_limit": 64.0},
    {"offset_limit": "64"},
])
def test_config_rejects(kwargs):
    with pytest.raises((ContractViolation, ValueError)):
        Config(**kwargs)


def test_no_value_is_reserved():
    assert NO_VALUE == 0xFFFFFFFF
