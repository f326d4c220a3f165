import pytest

from repro.common import AccessType, AluOp, DType, Interval, MemOp


def test_access_type_write_flag():
    assert AccessType.STORE.is_write
    assert AccessType.RMW.is_write
    assert not AccessType.LOAD.is_write
    assert not AccessType.PREFETCH.is_write


def test_alu_op_classes():
    assert AluOp.LT.is_comparison
    assert not AluOp.ADD.is_comparison
    # Only associative+commutative ops are legal for IRMW (Section 3.1).
    assert AluOp.ADD.is_commutative_associative
    assert AluOp.MAX.is_commutative_associative
    assert not AluOp.SUB.is_commutative_associative
    assert not AluOp.SHL.is_commutative_associative


def test_dtype_sizes():
    assert DType.U32.nbytes == 4
    assert DType.F64.nbytes == 8
    assert DType.I32.numpy_name == "int32"


def test_interval_overlap():
    a = Interval(0, 100)
    assert a.overlaps(Interval(50, 150))
    assert not a.overlaps(Interval(100, 200))
    assert a.contains(0) and not a.contains(100)
    with pytest.raises(ValueError):
        Interval(10, 5)


def test_memop_defaults():
    op = MemOp(AccessType.LOAD, addr=0x1000)
    assert op.deps == ()
    assert (op.size, op.extra_instrs, op.pc, op.tag) == (8, 0, 0, -1)
    assert not op.atomic
