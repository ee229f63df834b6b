"""Payload algebra: the content model for every byte moved by the system.

The reproduction moves both *real* data (unit and integration tests verify
end-to-end content equality on megabyte-scale images) and *virtual* data
(benchmarks deploy 2 GB images to a hundred simulated nodes — materializing
those would be pointless). A :class:`Payload` is a size-exact, sliceable,
concatenable description of byte content built from three kinds of atoms:

``BytesAtom``
    literal bytes (used by tests and by small VM writes),
``ZeroAtom``
    a run of zero bytes (sparse-file holes),
``OpaqueAtom``
    a window ``[offset, offset+size)`` into an abstract content source
    identified by a string tag (e.g. ``"debian-sid-image"``). Slicing keeps
    the window arithmetic exact, so content *identity* remains checkable
    without content *materialization*.

Two payloads compare equal iff their normalized atom sequences are equal.
Within one experiment a given opaque tag always denotes the same underlying
content, so this equality is sound; the test-suite additionally checks the
real-bytes path against flat reference buffers.

:class:`SparseFile` is a writable sparse byte space assembled from payloads.
It backs the local-mirror file, the simulated local file systems and the
chunk stores.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple, Union

from .errors import OutOfRangeError


# --------------------------------------------------------------------------- #
# atoms
# --------------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class BytesAtom:
    data: bytes

    @property
    def size(self) -> int:
        return len(self.data)

    def window(self, lo: int, hi: int) -> "BytesAtom":
        if lo == 0 and hi == len(self.data):
            return self  # whole-atom window: no byte copy (atoms are immutable)
        return BytesAtom(self.data[lo:hi])


@dataclass(frozen=True, slots=True)
class ZeroAtom:
    nbytes: int

    @property
    def size(self) -> int:
        return self.nbytes

    def window(self, lo: int, hi: int) -> "ZeroAtom":
        return ZeroAtom(hi - lo)


@dataclass(frozen=True, slots=True)
class OpaqueAtom:
    tag: str
    offset: int
    nbytes: int

    @property
    def size(self) -> int:
        return self.nbytes

    def window(self, lo: int, hi: int) -> "OpaqueAtom":
        return OpaqueAtom(self.tag, self.offset + lo, hi - lo)


Atom = Union[BytesAtom, ZeroAtom, OpaqueAtom]


def _merge(a: Atom, b: Atom) -> Atom | None:
    """Coalesce two adjacent atoms into one when they form a contiguous run
    that needs no byte copy: zero with zero, or one opaque window followed by
    the next window of the same source. Byte atoms are joined elsewhere."""
    if isinstance(a, ZeroAtom) and isinstance(b, ZeroAtom):
        return ZeroAtom(a.nbytes + b.nbytes)
    if (
        isinstance(a, OpaqueAtom)
        and isinstance(b, OpaqueAtom)
        and a.tag == b.tag
        and a.offset + a.nbytes == b.offset
    ):
        return OpaqueAtom(a.tag, a.offset, a.nbytes + b.nbytes)
    return None


def _join_bytes(run: List[BytesAtom]) -> BytesAtom:
    """One atom for a run of adjacent byte atoms: a single join, not a
    pairwise concatenation that copies the growing prefix each time."""
    if len(run) == 1:
        return run[0]
    return BytesAtom(b"".join(a.data for a in run))


def _coalesce(a: Payload, b: Payload) -> Payload | None:
    """``a + b`` as one atom when each is one atom and :func:`_merge` joins
    them without a byte copy; ``None`` otherwise."""
    if len(a._atoms) != 1 or len(b._atoms) != 1:
        return None
    merged = _merge(a._atoms[0], b._atoms[0])
    if merged is None:
        return None
    return Payload._from_normalized((merged,), merged.size)


# --------------------------------------------------------------------------- #
# payload
# --------------------------------------------------------------------------- #
class Payload:
    """An immutable sequence of content atoms with exact size accounting."""

    __slots__ = ("_atoms", "_size")

    def __init__(self, atoms: Iterable[Atom] = ()):
        normalized: List[Atom] = []
        run: List[BytesAtom] = []  # adjacent byte atoms, joined once
        for atom in atoms:
            if atom.size == 0:
                continue
            if isinstance(atom, BytesAtom):
                run.append(atom)
                continue
            if run:
                normalized.append(_join_bytes(run))
                run = []
            elif normalized:
                merged = _merge(normalized[-1], atom)
                if merged is not None:
                    normalized[-1] = merged
                    continue
            normalized.append(atom)
        if run:
            normalized.append(_join_bytes(run))
        self._atoms: Tuple[Atom, ...] = tuple(normalized)
        self._size = sum(a.size for a in self._atoms)

    # ---- constructors ---------------------------------------------------- #
    @classmethod
    def _from_normalized(cls, atoms: Iterable[Atom], size: int) -> "Payload":
        """Build a payload from an already-normalized atom run (no re-merge).

        Used by :meth:`slice`: windows of a normalized sequence stay
        normalized (trimming an atom cannot make it mergeable with an
        interior neighbour), so the O(atoms) normalization pass is skipped.
        """
        p = object.__new__(cls)
        p._atoms = tuple(atoms)
        p._size = size
        return p

    @staticmethod
    def from_bytes(data: bytes) -> "Payload":
        return Payload([BytesAtom(bytes(data))])

    @staticmethod
    def zeros(nbytes: int) -> "Payload":
        return Payload([ZeroAtom(int(nbytes))])

    @staticmethod
    def opaque(tag: str, nbytes: int, offset: int = 0) -> "Payload":
        atom = OpaqueAtom(tag, int(offset), int(nbytes))
        if atom.nbytes == 0:
            return Payload()
        # one atom is already normalized (hot: one per guest write)
        return Payload._from_normalized((atom,), atom.nbytes)

    @staticmethod
    def concat(parts: Sequence["Payload"]) -> "Payload":
        if len(parts) == 1:
            return parts[0]  # immutable, so share it
        atoms: List[Atom] = []
        for part in parts:
            atoms.extend(part._atoms)
        return Payload(atoms)

    # ---- queries --------------------------------------------------------- #
    @property
    def size(self) -> int:
        return self._size

    @property
    def atoms(self) -> Tuple[Atom, ...]:
        return self._atoms

    def is_materialized(self) -> bool:
        """True iff the payload contains no opaque atoms (bytes recoverable)."""
        return all(not isinstance(a, OpaqueAtom) for a in self._atoms)

    def to_bytes(self) -> bytes:
        """Materialize to real bytes; raises on opaque content."""
        chunks: List[bytes] = []
        for atom in self._atoms:
            if isinstance(atom, BytesAtom):
                chunks.append(atom.data)
            elif isinstance(atom, ZeroAtom):
                chunks.append(b"\x00" * atom.nbytes)
            else:
                raise ValueError(
                    f"cannot materialize opaque content {atom.tag!r}"
                    f"[{atom.offset}:{atom.offset + atom.nbytes}]"
                )
        return b"".join(chunks)

    def slice(self, lo: int, hi: int) -> "Payload":
        """Return the payload window ``[lo, hi)``; bounds must be in range."""
        if lo < 0 or hi > self._size or lo > hi:
            raise OutOfRangeError(f"slice [{lo},{hi}) of payload size {self._size}")
        if lo == 0 and hi == self._size:
            return self  # whole-payload slice: immutable, so share it
        if lo == hi:
            return EMPTY  # not a zero-size window, which would compare unequal
        atoms = self._atoms
        if len(atoms) == 1:
            # Single-atom payloads (one opaque chunk, one zero run) dominate
            # the fetch paths; window them without the scan below.
            return Payload._from_normalized((atoms[0].window(lo, hi),), hi - lo)
        out: List[Atom] = []
        cursor = 0
        for atom in self._atoms:
            a_lo, a_hi = cursor, cursor + atom.size
            w_lo, w_hi = max(lo, a_lo), min(hi, a_hi)
            if w_lo < w_hi:
                out.append(atom.window(w_lo - a_lo, w_hi - a_lo))
            cursor = a_hi
            if cursor >= hi:
                break
        return Payload._from_normalized(out, hi - lo)

    def __getitem__(self, key: slice) -> "Payload":
        if not isinstance(key, slice) or key.step not in (None, 1):
            raise TypeError("Payload supports contiguous slicing only")
        lo = 0 if key.start is None else key.start
        hi = self._size if key.stop is None else key.stop
        return self.slice(lo, hi)

    def __add__(self, other: "Payload") -> "Payload":
        return Payload.concat([self, other])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Payload):
            return NotImplemented
        return self._atoms == other._atoms

    def __hash__(self) -> int:
        return hash(self._atoms)

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        parts = []
        for atom in self._atoms[:4]:
            if isinstance(atom, BytesAtom):
                parts.append(f"bytes[{atom.size}]")
            elif isinstance(atom, ZeroAtom):
                parts.append(f"zero[{atom.size}]")
            else:
                parts.append(f"{atom.tag}@{atom.offset}+{atom.nbytes}")
        if len(self._atoms) > 4:
            parts.append("...")
        return f"Payload({', '.join(parts)}, size={self._size})"


#: The canonical empty payload.
EMPTY = Payload()


# --------------------------------------------------------------------------- #
# sparse writable byte space
# --------------------------------------------------------------------------- #
class SparseFile:
    """A fixed-size sparse byte space; unwritten regions read as zeros.

    Segments are kept as a sorted list of ``(lo, hi, payload)`` triples with
    no overlaps; writes splice, reads stitch payload windows together with
    zero-fill for holes. A write coalesces with a segment it touches when
    both are single atoms that :func:`_merge` joins (contiguous windows of
    one opaque source, or zeros), so a run of fills from one chunk source
    is one segment; byte atoms never coalesce, since that would copy them.
    Reads return normalized payloads, so coalescing is invisible to them.
    Used for local-disk files, chunk stores, and the mirror file.
    """

    __slots__ = ("size", "_segments")

    def __init__(self, size: int, base: Payload | None = None):
        self.size = int(size)
        self._segments: List[Tuple[int, int, Payload]] = []
        if base is not None:
            if base.size != size:
                raise OutOfRangeError("base payload size mismatch")
            self._segments.append((0, size, base))

    def _overlap_window(self, lo: int, hi: int) -> Tuple[int, int]:
        """Index range ``[i, j)`` of segments overlapping ``[lo, hi)``.

        Comparison probes like ``(lo,)`` sort strictly before any segment
        triple sharing the same start, so payloads are never compared.
        """
        segments = self._segments
        k = bisect_left(segments, (lo,))
        i = k - 1 if k > 0 and segments[k - 1][1] > lo else k
        j = bisect_left(segments, (hi,), i)
        return i, j

    def write(self, offset: int, payload: Payload) -> None:
        lo, hi = offset, offset + payload.size
        if lo < 0 or hi > self.size:
            raise OutOfRangeError(f"write [{lo},{hi}) beyond size {self.size}")
        if lo == hi:
            return
        # Bisect to the overlapped segment window and splice in place rather
        # than rebuilding the whole segment list per write.
        segments = self._segments
        i, j = self._overlap_window(lo, hi)
        left = right = None
        if i < j:
            s_lo, s_hi, s_pl = segments[i]
            if s_lo < lo:
                left = (s_lo, lo, s_pl.slice(0, lo - s_lo))
            s_lo, s_hi, s_pl = segments[j - 1]
            if s_hi > hi:
                right = (hi, s_hi, s_pl.slice(hi - s_lo, s_hi - s_lo))
        # A neighbour that only touches [lo, hi) joins the splice, so that
        # touching fills of one source end as one segment.
        if left is None and i > 0 and segments[i - 1][1] == lo:
            i -= 1
            left = segments[i]
        if right is None and j < len(segments) and segments[j][0] == hi:
            right = segments[j]
            j += 1
        repl: List[Tuple[int, int, Payload]] = []
        for seg in (left, (lo, hi, payload), right):
            if seg is None:
                continue
            if repl:
                p_lo, _, p_pl = repl[-1]
                joined = _coalesce(p_pl, seg[2])
                if joined is not None:
                    repl[-1] = (p_lo, seg[1], joined)
                    continue
            repl.append(seg)
        segments[i:j] = repl

    def read(self, offset: int, nbytes: int) -> Payload:
        lo, hi = offset, offset + nbytes
        if lo < 0 or hi > self.size:
            raise OutOfRangeError(f"read [{lo},{hi}) beyond size {self.size}")
        segments = self._segments
        i, j = self._overlap_window(lo, hi)
        if i == j:
            return Payload.zeros(hi - lo) if hi > lo else EMPTY
        parts: List[Payload] = []
        cursor = lo
        for s_lo, s_hi, s_pl in segments[i:j]:
            if s_lo > cursor:
                parts.append(Payload.zeros(s_lo - cursor))
                cursor = s_lo
            w_hi = min(s_hi, hi)
            parts.append(s_pl.slice(cursor - s_lo, w_hi - s_lo))
            cursor = w_hi
        if cursor < hi:
            parts.append(Payload.zeros(hi - cursor))
        return Payload.concat(parts)

    def written_bytes(self) -> int:
        """Bytes covered by explicit segments (the file's physical footprint)."""
        return sum(hi - lo for lo, hi, _ in self._segments)

    def snapshot_payload(self) -> Payload:
        """The whole file content as one payload (zero-filled holes)."""
        return self.read(0, self.size)
