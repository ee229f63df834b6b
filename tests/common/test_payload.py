"""Unit and property tests for the payload algebra and sparse files."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import OutOfRangeError
from repro.common.payload import EMPTY, BytesAtom, OpaqueAtom, Payload, SparseFile, ZeroAtom


class TestConstruction:
    def test_from_bytes(self):
        p = Payload.from_bytes(b"hello")
        assert p.size == 5
        assert p.to_bytes() == b"hello"

    def test_zeros(self):
        p = Payload.zeros(4)
        assert p.size == 4
        assert p.to_bytes() == b"\x00" * 4

    def test_opaque(self):
        p = Payload.opaque("img", 100, offset=10)
        assert p.size == 100
        assert not p.is_materialized()

    def test_empty(self):
        assert EMPTY.size == 0
        assert EMPTY.to_bytes() == b""

    def test_opaque_to_bytes_raises(self):
        with pytest.raises(ValueError):
            Payload.opaque("img", 10).to_bytes()

    def test_zero_sized_atoms_dropped(self):
        p = Payload.concat([Payload.from_bytes(b""), Payload.zeros(0)])
        assert p == EMPTY


class TestSliceConcat:
    def test_slice_bytes(self):
        p = Payload.from_bytes(b"abcdef")
        assert p.slice(1, 4).to_bytes() == b"bcd"

    def test_getitem(self):
        p = Payload.from_bytes(b"abcdef")
        assert p[2:5].to_bytes() == b"cde"
        assert p[:].to_bytes() == b"abcdef"

    def test_slice_across_atoms(self):
        p = Payload.from_bytes(b"abc") + Payload.zeros(3) + Payload.from_bytes(b"xyz")
        assert p.slice(2, 8).to_bytes() == b"c\x00\x00\x00xy"

    def test_slice_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            Payload.from_bytes(b"abc").slice(0, 4)

    def test_opaque_slice_window_arithmetic(self):
        p = Payload.opaque("img", 100, offset=50)
        sub = p.slice(10, 30)
        (atom,) = sub.atoms
        assert (atom.tag, atom.offset, atom.nbytes) == ("img", 60, 20)

    def test_adjacent_opaque_windows_merge(self):
        a = Payload.opaque("img", 10, offset=0)
        b = Payload.opaque("img", 10, offset=10)
        assert len((a + b).atoms) == 1
        assert (a + b).size == 20

    def test_nonadjacent_opaque_do_not_merge(self):
        a = Payload.opaque("img", 10, offset=0)
        b = Payload.opaque("img", 10, offset=11)
        assert len((a + b).atoms) == 2

    def test_different_tags_do_not_merge(self):
        a = Payload.opaque("img1", 10, offset=0)
        b = Payload.opaque("img2", 10, offset=10)
        assert len((a + b).atoms) == 2

    def test_equality_normalized(self):
        a = Payload.from_bytes(b"ab") + Payload.from_bytes(b"cd")
        b = Payload.from_bytes(b"abcd")
        assert a == b
        assert hash(a) == hash(b)

    def test_opaque_identity_survives_split_rejoin(self):
        p = Payload.opaque("img", 1000)
        rejoined = Payload.concat([p.slice(0, 400), p.slice(400, 1000)])
        assert rejoined == p

    def test_empty_slice_is_empty(self):
        assert Payload.opaque("img", 100).slice(5, 5) == EMPTY
        assert SparseFile(10, base=Payload.zeros(10)).read(4, 0) == EMPTY

    def test_many_byte_parts_join_once(self):
        # 4,096 parts of 4 KiB: pairwise concatenation is quadratic (~20 s)
        parts = [Payload.from_bytes(bytes([k % 251]) * 4096) for k in range(4096)]
        p = Payload.concat(parts + [Payload.zeros(8)] + parts[:3])
        assert p.to_bytes() == b"".join(x.to_bytes() for x in parts) + bytes(8) + b"".join(
            x.to_bytes() for x in parts[:3]
        )
        assert len(p.atoms) == 3
        assert p.size == 4099 * 4096 + 8


class TestPickle:
    """Atoms are frozen slotted dataclasses; payloads cross process pools."""

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize("value", [
        BytesAtom(b"abc"),
        ZeroAtom(7),
        OpaqueAtom("img", 3, 9),
        Payload.from_bytes(b"ab") + Payload.zeros(4) + Payload.opaque("img", 5, offset=2),
        EMPTY,
    ], ids=["bytes", "zero", "opaque", "payload", "empty"])
    def test_roundtrip(self, value, protocol):
        back = pickle.loads(pickle.dumps(value, protocol=protocol))
        assert back == value and hash(back) == hash(value)
        assert type(back) is type(value)
        if isinstance(value, Payload):
            assert back.atoms == value.atoms and back.size == value.size


@settings(max_examples=150)
@given(st.binary(max_size=64), st.data())
def test_slice_concat_roundtrip(data, draw):
    p = Payload.from_bytes(data)
    cut = draw.draw(st.integers(0, len(data)))
    assert (p.slice(0, cut) + p.slice(cut, p.size)).to_bytes() == data


@settings(max_examples=150)
@given(
    st.lists(
        st.one_of(
            st.binary(min_size=1, max_size=16).map(Payload.from_bytes),
            st.integers(1, 16).map(Payload.zeros),
        ),
        max_size=8,
    ),
    st.data(),
)
def test_any_window_matches_bytes(parts, draw):
    p = Payload.concat(parts)
    ref = p.to_bytes()
    lo = draw.draw(st.integers(0, p.size))
    hi = draw.draw(st.integers(lo, p.size))
    assert p.slice(lo, hi).to_bytes() == ref[lo:hi]


class TestSparseFile:
    def test_reads_zero_when_fresh(self):
        f = SparseFile(10)
        assert f.read(0, 10).to_bytes() == b"\x00" * 10

    def test_write_read_back(self):
        f = SparseFile(10)
        f.write(3, Payload.from_bytes(b"abc"))
        assert f.read(0, 10).to_bytes() == b"\x00" * 3 + b"abc" + b"\x00" * 4

    def test_overwrite_middle(self):
        f = SparseFile(10, base=Payload.from_bytes(b"0123456789"))
        f.write(4, Payload.from_bytes(b"XY"))
        assert f.read(0, 10).to_bytes() == b"0123XY6789"

    def test_write_spanning_segments(self):
        f = SparseFile(12)
        f.write(0, Payload.from_bytes(b"aaa"))
        f.write(9, Payload.from_bytes(b"bbb"))
        f.write(2, Payload.from_bytes(b"XXXXXXXX"))
        assert f.read(0, 12).to_bytes() == b"aaXXXXXXXXbb"

    def test_out_of_range(self):
        f = SparseFile(4)
        with pytest.raises(OutOfRangeError):
            f.write(2, Payload.from_bytes(b"abc"))
        with pytest.raises(OutOfRangeError):
            f.read(0, 5)

    def test_written_bytes_tracks_footprint(self):
        f = SparseFile(100)
        f.write(0, Payload.from_bytes(b"ab"))
        f.write(50, Payload.from_bytes(b"cd"))
        assert f.written_bytes() == 4
        f.write(1, Payload.from_bytes(b"zz"))  # overlap extends by 1
        assert f.written_bytes() == 5

    def test_base_payload_must_match_size(self):
        with pytest.raises(OutOfRangeError):
            SparseFile(5, base=Payload.from_bytes(b"abc"))

    def test_opaque_base_with_byte_overlay(self):
        f = SparseFile(100, base=Payload.opaque("img", 100))
        f.write(10, Payload.from_bytes(b"mod"))
        got = f.read(5, 20)
        assert got.size == 20
        # window [5,10) opaque, [10,13) bytes, [13,25) opaque
        assert got.atoms[0].tag == "img" and got.atoms[0].offset == 5
        assert got.atoms[1].data == b"mod"
        assert got.atoms[2].offset == 13


@settings(max_examples=150)
@given(
    st.lists(
        st.tuples(st.integers(0, 48), st.binary(min_size=1, max_size=16)),
        max_size=12,
    )
)
def test_sparsefile_matches_bytearray_model(writes):
    SIZE = 64
    f = SparseFile(SIZE)
    model = bytearray(SIZE)
    for off, data in writes:
        data = data[: SIZE - off]
        if not data:
            continue
        f.write(off, Payload.from_bytes(data))
        model[off : off + len(data)] = data
    assert f.read(0, SIZE).to_bytes() == bytes(model)
