"""Unit + property tests for the binary instruction encoding."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import instructions as ins
from repro.isa.encoding import (
    DecodeError,
    decode,
    decode_all,
    decodes,
    encode,
    encode_all,
    unpack_uops,
)
from repro.isa.instructions import IMM_MAX, IMM_MIN, INSTRUCTION_SIZE, Instruction
from repro.isa.opcodes import Opcode

_OPCODES = list(Opcode)

instruction_strategy = st.builds(
    Instruction,
    opcode=st.sampled_from(_OPCODES),
    rd=st.integers(0, 31),
    rs1=st.integers(0, 31),
    rs2=st.integers(0, 31),
    imm=st.integers(IMM_MIN, IMM_MAX),
)


class TestEncode:
    def test_fixed_width(self):
        assert len(encode(ins.nop())) == INSTRUCTION_SIZE
        assert len(encode(ins.movi(5, -123456))) == INSTRUCTION_SIZE

    def test_layout(self):
        raw = encode(Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3, imm=0))
        assert raw[0] == int(Opcode.ADD)
        assert raw[1:4] == bytes([1, 2, 3])

    def test_encode_all_concatenates(self):
        code = encode_all([ins.nop(), ins.ret()])
        assert len(code) == 2 * INSTRUCTION_SIZE


class TestDecode:
    def test_roundtrip_simple(self):
        inst = ins.addi(3, 4, -77)
        assert decode(encode(inst)) == inst

    def test_offset(self):
        blob = encode(ins.nop()) + encode(ins.ret())
        assert decode(blob, INSTRUCTION_SIZE) == ins.ret()

    def test_truncated(self):
        with pytest.raises(DecodeError):
            decode(b"\x01\x02\x03")

    def test_illegal_opcode(self):
        raw = bytearray(encode(ins.nop()))
        raw[0] = 0xEE
        with pytest.raises(DecodeError):
            decode(bytes(raw))

    def test_illegal_register(self):
        raw = bytearray(encode(ins.nop()))
        raw[1] = 200
        with pytest.raises(DecodeError):
            decode(bytes(raw))

    def test_decode_all_alignment(self):
        with pytest.raises(DecodeError):
            decode_all(b"\x00" * (INSTRUCTION_SIZE + 1))

    def test_decode_all_roundtrip(self):
        program = [ins.movi(1, 1), ins.add(1, 1, 1), ins.halt()]
        assert decode_all(encode_all(program)) == program


class TestEncodingProperties:
    @given(instruction_strategy)
    def test_roundtrip(self, inst):
        assert decode(encode(inst)) == inst

    @given(st.lists(instruction_strategy, max_size=40))
    def test_roundtrip_sequences(self, program):
        blob = encode_all(program)
        assert len(blob) == INSTRUCTION_SIZE * len(program)
        assert decode_all(blob) == program

    @given(instruction_strategy, instruction_strategy)
    def test_injective(self, a, b):
        if a != b:
            assert encode(a) != encode(b)

    @given(
        st.lists(instruction_strategy, max_size=12),
        st.binary(max_size=24),
        st.integers(0, 1000),
    )
    def test_decodes_agrees_with_decode_all(self, program, noise, at):
        """``decodes`` accepts exactly what ``decode_all`` decodes, and
        ``unpack_uops`` then returns its instructions' tuples."""
        blob = bytearray(encode_all(program))
        # Overwrite a few bytes anywhere, or append a partial word.
        start = at % (len(blob) + 1)
        blob[start:start + len(noise)] = noise
        blob = bytes(blob)
        try:
            reference = [inst.as_tuple() for inst in decode_all(blob)]
        except DecodeError:
            assert not decodes(blob)
        else:
            assert decodes(blob)
            assert unpack_uops(blob) == reference


class TestTableDecode:
    """``decode`` builds instructions from its opcode table without
    ``Instruction.__post_init__``: the result must be indistinguishable
    from a constructed instruction, and every rejection must read as
    the constructor's would."""

    @staticmethod
    def fresh_decode(raw):
        """Decode ``raw`` past the content-keyed decode memo."""
        from repro.isa import encoding

        encoding._DECODE_MEMO.pop(bytes(raw), None)
        return decode(bytes(raw))

    @pytest.mark.parametrize("opcode", _OPCODES, ids=lambda op: op.name)
    def test_matches_the_constructor(self, opcode):
        built = Instruction(opcode, rd=31, rs1=7, rs2=0, imm=IMM_MIN)
        decoded = self.fresh_decode(encode(built))
        assert type(decoded) is Instruction
        assert type(decoded.opcode) is Opcode
        assert decoded == built
        assert hash(decoded) == hash(built)
        assert repr(decoded) == repr(built)
        assert vars(decoded) == vars(built)
        with pytest.raises(AttributeError):
            decoded.rd = 1

    def test_illegal_opcode_message(self):
        raw = bytearray(encode(ins.nop()) * 2)
        raw[INSTRUCTION_SIZE] = 0xEE
        message = "^illegal opcode 0xee at offset 8$"
        with pytest.raises(DecodeError, match=message):
            decode(bytes(raw), INSTRUCTION_SIZE)

    @pytest.mark.parametrize("fields,bad", [
        ((32, 0, 0), 32),
        ((0, 200, 0), 200),
        ((0, 0, 255), 255),
        ((40, 41, 42), 40),     # rd is checked first,
        ((0, 41, 42), 41),      # then rs1, then rs2
    ])
    def test_register_message_names_the_first_bad_field(self, fields, bad):
        raw = bytearray(encode(ins.nop()))
        raw[1:4] = bytes(fields)
        message = "^register out of range: %d$" % bad
        with pytest.raises(DecodeError, match=message):
            self.fresh_decode(raw)
