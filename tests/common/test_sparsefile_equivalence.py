"""``SparseFile`` against a flat per-byte reference, and its segment rule.

The reference is a list with one content token per byte: ``("b", value)``
for a real byte, ``("z",)`` for a zero byte and ``(tag, offset)`` for byte
``offset`` of an opaque source. Random writes of real bytes, zeros and
opaque windows go to both; after every write each read of the sparse file
must equal the payload rebuilt from the reference tokens (which
``Payload`` normalizes into the canonical atom sequence), and the written
footprint must match. Separately: touching fills of one source coalesce
into one segment whatever their order, and byte segments never merge.
"""

import random

import pytest

from repro.common.payload import (
    BytesAtom,
    OpaqueAtom,
    Payload,
    SparseFile,
    ZeroAtom,
)

SIZE = 600


def _tokens(payload: Payload) -> list:
    out = []
    for atom in payload.atoms:
        if isinstance(atom, BytesAtom):
            out.extend(("b", v) for v in atom.data)
        elif isinstance(atom, ZeroAtom):
            out.extend([("z",)] * atom.nbytes)
        else:
            out.extend((atom.tag, atom.offset + k) for k in range(atom.nbytes))
    return out


def _payload(tokens: list) -> Payload:
    atoms = []
    for tok in tokens:
        if tok[0] == "b":
            atoms.append(BytesAtom(bytes([tok[1]])))
        elif tok[0] == "z":
            atoms.append(ZeroAtom(1))
        else:
            atoms.append(OpaqueAtom(tok[0], tok[1], 1))
    return Payload(atoms)


def _rand_payload(rng: random.Random, n: int, lo: int) -> Payload:
    kind = rng.choice(("bytes", "zero", "opaque", "opaque-aligned", "mixed"))
    if kind == "bytes":
        return Payload.from_bytes(bytes(rng.randrange(256) for _ in range(n)))
    if kind == "zero":
        return Payload.zeros(n)
    if kind == "opaque":
        return Payload.opaque(rng.choice(("img", "vm")), n, offset=rng.randrange(50))
    if kind == "opaque-aligned":
        # image content at its own offset: touching fills form one run
        return Payload.opaque("img", n, offset=lo)
    cut = rng.randint(0, n)
    return Payload.concat([Payload.opaque("img", cut, offset=lo), Payload.zeros(n - cut)])


@pytest.mark.parametrize("seed", range(30))
def test_reads_match_flat_reference(seed):
    rng = random.Random(seed)
    sf = SparseFile(SIZE)
    flat = [("z",)] * SIZE
    written = [False] * SIZE
    for step in range(60):
        lo = rng.randrange(SIZE)
        n = rng.randint(0, min(SIZE - lo, rng.choice((4, 40, 200))))
        payload = _rand_payload(rng, n, lo)
        sf.write(lo, payload)
        flat[lo:lo + n] = _tokens(payload)
        written[lo:lo + n] = [True] * n
        assert sf.read(0, SIZE) == _payload(flat), f"seed {seed} step {step}"
        for _ in range(3):
            r_lo = rng.randrange(SIZE)
            r_hi = rng.randint(r_lo, SIZE)
            assert sf.read(r_lo, r_hi - r_lo) == _payload(flat[r_lo:r_hi])
        assert sf.written_bytes() == sum(written)
        segs = sf._segments
        assert all(a[1] <= b[0] for a, b in zip(segs, segs[1:]))
        assert all(hi - lo == pl.size for lo, hi, pl in segs)


def test_materialized_reads_match_bytes():
    rng = random.Random(7)
    sf = SparseFile(SIZE)
    flat = bytearray(SIZE)
    for _ in range(80):
        lo = rng.randrange(SIZE)
        data = bytes(rng.randrange(256) for _ in range(rng.randint(0, min(64, SIZE - lo))))
        if rng.random() < 0.3:
            data = bytes(len(data))
            sf.write(lo, Payload.zeros(len(data)))
        else:
            sf.write(lo, Payload.from_bytes(data))
        flat[lo:lo + len(data)] = data
        assert sf.snapshot_payload().to_bytes() == bytes(flat)


@pytest.mark.parametrize("seed", range(5))
def test_touching_fills_end_as_one_segment(seed):
    n, step = 12, 50
    order = list(range(n))
    random.Random(seed).shuffle(order)
    sf = SparseFile(n * step)
    for k in order:
        sf.write(k * step, Payload.opaque("img", step, offset=k * step))
    assert len(sf._segments) == 1
    assert sf.read(0, n * step) == Payload.opaque("img", n * step)
    zeros = SparseFile(n * step)
    for k in order:
        zeros.write(k * step, Payload.zeros(step))
    assert len(zeros._segments) == 1


def test_byte_segments_never_merge():
    sf = SparseFile(100)
    for k in range(10):
        sf.write(k * 10, Payload.from_bytes(bytes([k]) * 10))
    assert len(sf._segments) == 10
    assert sf.read(0, 100) == Payload.from_bytes(b"".join(bytes([k]) * 10 for k in range(10)))


def test_non_contiguous_opaque_fills_stay_apart():
    sf = SparseFile(200)
    sf.write(0, Payload.opaque("img", 100))
    sf.write(100, Payload.opaque("img", 100))  # same source, restarts at 0
    sf.write(0, Payload.opaque("img", 100))
    assert len(sf._segments) == 2
    sf.write(100, Payload.opaque("other", 100, offset=100))
    assert len(sf._segments) == 2
