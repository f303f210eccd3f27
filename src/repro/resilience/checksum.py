"""CRC32C-checksummed frames over any storage backend.

The iVA-file's no-false-negative guarantees (paper §III-B/III-C) only
hold over *uncorrupted* vectors — a flipped bit in a signature silently
widens or narrows a lower bound and the top-k answer is wrong with no
error anywhere.  This module closes that hole at the layer the scalar
(``move_to``) and v3 (``decode_segment``) scan paths share: every decode
funnels through ``BufferedReader`` → ``backend.read``, so verifying
frames inside ``read()`` covers the vector lists, the tuple list, and
the attribute list for *both* codec families without touching any wire
format offsets.

Wire format (version 1): each data file ``f`` gains a sidecar
``f + ".crc"`` on the same backend::

    magic   7 bytes  b"IVACRC\\0"
    version u8       1
    frame   u32 LE   frame size in bytes (4096)
    crcs    u32 LE   one CRC32C (Castagnoli) per frame; the final
                     partial frame's CRC covers only the bytes present

A file without a sidecar is *legacy*: reads pass through unverified
(read-back compatibility for snapshots taken before this layer existed)
and the file is adopted — sidecar computed from current content — on its
first write through the wrapper.  Sidecars are ordinary backend files,
so disk snapshots (:mod:`repro.storage.snapshot`) carry them for free.

CRCs are always computed from the *intended* payload (the in-memory tail
of the last frame is authoritative), never from read-back after a write
— which is what makes torn writes underneath this layer detectable.
The one deliberate exception is ``truncate``, which re-blesses the cut
frame from read-back; truncation only happens in tests and repair.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional

from repro.errors import ChecksumError, StorageError
from repro.obs.metrics import get_registry
from repro.resilience._delegate import DelegatingBackend

#: Bytes covered by one CRC frame.
FRAME_BYTES = 4096
#: Suffix of the per-file checksum sidecar.
SIDECAR_SUFFIX = ".crc"

_MAGIC = b"IVACRC\x00"
_VERSION = 1
_HEADER = struct.Struct("<7sBI")
_CRC = struct.Struct("<I")


# ------------------------------------------------------------------ crc32c


def _make_table() -> List[int]:
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ 0x82F63B78 if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE = _make_table()


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C (Castagnoli) — the polynomial storage systems checksum with.

    ``zlib.crc32`` implements the IEEE polynomial, so this is a
    table-driven pure-Python implementation (check value:
    ``crc32c(b"123456789") == 0xE3069283``).
    """
    crc ^= 0xFFFFFFFF
    table = _TABLE
    for byte in data:
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


# ------------------------------------------------------------------ backend


def is_sidecar(name: str) -> bool:
    return name.endswith(SIDECAR_SUFFIX)


class ChecksummedBackend(DelegatingBackend):
    """Verify CRC32C frames on every read; maintain sidecars on write.

    The in-memory CRC list and tail-frame bytes are authoritative: they
    are loaded once from existing sidecars at construction and owned by
    this wrapper afterwards, so corruption injected *below* (a fault
    layer or a real bad disk) cannot re-bless itself through the sidecar.
    """

    def __init__(self, inner, *, frame_bytes: int = FRAME_BYTES, registry=None) -> None:
        super().__init__(inner)
        if frame_bytes <= 0:
            raise StorageError(f"frame_bytes must be positive, got {frame_bytes}")
        self.frame_bytes = frame_bytes
        self._frames: Dict[str, List[int]] = {}
        #: Intended bytes of the final partial frame; ``None`` marks a
        #: tail that failed verification at load (appends refuse until
        #: the file is rebuilt).
        self._tails: Dict[str, Optional[bytearray]] = {}
        self._sizes: Dict[str, int] = {}
        self._failures = (registry or get_registry()).counter(
            "repro_checksum_failures_total",
            help="Frame reads whose CRC32C disagreed with the sidecar.",
        )
        self._load_existing()

    # ------------------------------------------------------------ state

    def _load_existing(self) -> None:
        for name in self.inner.list_files():
            if is_sidecar(name) or not self.inner.exists(name + SIDECAR_SUFFIX):
                continue
            self._load_sidecar(name)

    def _load_sidecar(self, name: str) -> None:
        sidecar = name + SIDECAR_SUFFIX
        raw = self.inner.read(sidecar, 0, self.inner.size(sidecar))
        if len(raw) < _HEADER.size:
            raise ChecksumError(f"checksum sidecar {sidecar!r} is too short")
        magic, version, frame_bytes = _HEADER.unpack_from(raw)
        if magic != _MAGIC:
            raise ChecksumError(f"checksum sidecar {sidecar!r} has a bad magic")
        if version != _VERSION:
            raise ChecksumError(
                f"checksum sidecar {sidecar!r} is version {version}, "
                f"this build reads version {_VERSION}"
            )
        if frame_bytes != self.frame_bytes:
            raise ChecksumError(
                f"checksum sidecar {sidecar!r} uses {frame_bytes}-byte frames, "
                f"expected {self.frame_bytes}"
            )
        body = raw[_HEADER.size :]
        frames = [_CRC.unpack_from(body, i)[0] for i in range(0, len(body), _CRC.size)]
        size = self.inner.size(name)
        self._frames[name] = frames
        self._sizes[name] = size
        rest = size % self.frame_bytes
        tail: Optional[bytearray] = bytearray()
        if rest:
            content = self.inner.read(name, size - rest, rest)
            if frames and crc32c(content) == frames[-1]:
                tail = bytearray(content)
            else:
                # Poisoned tail (e.g. a torn final append): reads keep
                # failing against the recorded CRC; appends refuse.
                tail = None
        self._tails[name] = tail

    def _store_frame(self, name: str, idx: int, crc: int) -> None:
        frames = self._frames[name]
        sidecar = name + SIDECAR_SUFFIX
        packed = _CRC.pack(crc)
        if idx == len(frames):
            frames.append(crc)
            self.inner.append(sidecar, packed)
        elif idx < len(frames):
            frames[idx] = crc
            self.inner.write(sidecar, _HEADER.size + idx * _CRC.size, packed)
        else:  # pragma: no cover - frames always grow contiguously
            raise StorageError(f"frame {idx} of {name!r} stored out of order")

    def _rewrite_sidecar(self, name: str) -> None:
        sidecar = name + SIDECAR_SUFFIX
        self.inner.create(sidecar, overwrite=True)
        body = b"".join(_CRC.pack(c) for c in self._frames[name])
        self.inner.append(
            sidecar, _HEADER.pack(_MAGIC, _VERSION, self.frame_bytes) + body
        )

    def _adopt(self, name: str) -> None:
        """Start checksumming a legacy file from its current content."""
        size = self.inner.size(name)
        content = self.inner.read(name, 0, size) if size else b""
        frame = self.frame_bytes
        self._frames[name] = [
            crc32c(content[i : i + frame]) for i in range(0, size, frame)
        ]
        self._sizes[name] = size
        rest = size % frame
        self._tails[name] = bytearray(content[size - rest :]) if rest else bytearray()
        self._rewrite_sidecar(name)

    def tracked(self, name: str) -> bool:
        """True when *name* has frame checksums (not a legacy file)."""
        return name in self._frames

    # ------------------------------------------------------- lifecycle

    def create(self, name: str, *, overwrite: bool = False) -> None:
        self.inner.create(name, overwrite=overwrite)
        if is_sidecar(name):
            return
        self._frames[name] = []
        self._tails[name] = bytearray()
        self._sizes[name] = 0
        sidecar = name + SIDECAR_SUFFIX
        self.inner.create(sidecar, overwrite=True)
        self.inner.append(sidecar, _HEADER.pack(_MAGIC, _VERSION, self.frame_bytes))

    def delete(self, name: str) -> None:
        self.inner.delete(name)
        if name in self._frames:
            del self._frames[name], self._tails[name], self._sizes[name]
            if self.inner.exists(name + SIDECAR_SUFFIX):
                self.inner.delete(name + SIDECAR_SUFFIX)

    def rename(self, old: str, new: str) -> None:
        self.inner.rename(old, new)
        if new in self._frames and old not in self._frames:
            # Renaming a legacy file over a tracked one: the stale
            # sidecar no longer describes the content.
            del self._frames[new], self._tails[new], self._sizes[new]
            if self.inner.exists(new + SIDECAR_SUFFIX):
                self.inner.delete(new + SIDECAR_SUFFIX)
        if old in self._frames:
            self._frames[new] = self._frames.pop(old)
            self._tails[new] = self._tails.pop(old)
            self._sizes[new] = self._sizes.pop(old)
            self.inner.rename(old + SIDECAR_SUFFIX, new + SIDECAR_SUFFIX)

    def truncate(self, name: str, size: int) -> None:
        self.inner.truncate(name, size)
        if name not in self._frames:
            return
        frame = self.frame_bytes
        count = -(-size // frame)  # ceil
        del self._frames[name][count:]
        self._sizes[name] = size
        rest = size % frame
        if rest:
            # Deliberate re-bless from read-back: the cut frame's old CRC
            # covered bytes that no longer exist.
            content = self.inner.read(name, size - rest, rest)
            self._frames[name][count - 1] = crc32c(bytes(content))
            self._tails[name] = bytearray(content)
        else:
            self._tails[name] = bytearray()
        self._rewrite_sidecar(name)

    # ------------------------------------------------------------- I/O

    def read(self, name: str, offset: int, length: int) -> bytes:
        frames = self._frames.get(name)
        if frames is None or length <= 0:
            return self.inner.read(name, offset, length)
        size = self._sizes[name]
        if offset < 0 or offset + length > size:
            return self.inner.read(name, offset, length)  # let inner raise
        frame = self.frame_bytes
        first = offset // frame
        last = (offset + length - 1) // frame
        astart = first * frame
        aend = min((last + 1) * frame, size)
        blob = self.inner.read(name, astart, aend - astart)
        for idx in range(first, last + 1):
            lo = idx * frame - astart
            piece = blob[lo : lo + frame]
            if idx >= len(frames) or crc32c(piece) != frames[idx]:
                self._failures.inc()
                raise ChecksumError(
                    f"checksum mismatch in {name!r}: frame {idx} "
                    f"(bytes {astart + lo}..{astart + lo + len(piece)})"
                )
        return blob[offset - astart : offset - astart + length]

    def append(self, name: str, payload: bytes) -> int:
        if is_sidecar(name):
            return self.inner.append(name, payload)
        if name not in self._frames:
            if not self.inner.exists(name):
                raise StorageError(f"cannot append to unknown file {name!r}")
            self._adopt(name)
        tail = self._tails[name]
        if tail is None:
            raise ChecksumError(
                f"cannot extend {name!r}: its final frame failed verification"
            )
        offset = self.inner.append(name, payload)
        frame = self.frame_bytes
        full = len(self._frames[name]) - (1 if tail else 0)
        buf = bytes(tail) + payload
        pos, idx = 0, full
        while len(buf) - pos >= frame:
            self._store_frame(name, idx, crc32c(buf[pos : pos + frame]))
            pos += frame
            idx += 1
        rest = buf[pos:]
        if rest:
            self._store_frame(name, idx, crc32c(rest))
        self._tails[name] = bytearray(rest)
        self._sizes[name] += len(payload)
        return offset

    def write(self, name: str, offset: int, payload: bytes) -> None:
        if is_sidecar(name):
            self.inner.write(name, offset, payload)
            return
        if name not in self._frames:
            if not self.inner.exists(name):
                raise StorageError(f"cannot write to unknown file {name!r}")
            self._adopt(name)
        if not payload:
            self.inner.write(name, offset, payload)
            return
        size = self._sizes[name]
        new_size = max(size, offset + len(payload))
        frame = self.frame_bytes
        first = offset // frame
        last = (offset + len(payload) - 1) // frame
        # Capture (and verify) the affected frames' intended pre-images
        # before the inner write replaces them.
        pre_images = {
            idx: self._frame_pre_image(name, idx, size)
            for idx in range(first, last + 1)
        }
        self.inner.write(name, offset, payload)  # raises on holes
        for idx in range(first, last + 1):
            fstart = idx * frame
            content = bytearray(pre_images[idx])
            lo = max(offset, fstart)
            hi = min(offset + len(payload), fstart + frame)
            rel = lo - fstart
            if len(content) < rel:  # pragma: no cover - inner rejects holes
                raise StorageError(f"write to {name!r} left a hole at {lo}")
            content[rel : rel + (hi - lo)] = payload[lo - offset : hi - offset]
            self._store_frame(name, idx, crc32c(bytes(content)))
            if fstart + len(content) >= new_size and len(content) < frame:
                self._tails[name] = content
        if new_size % frame == 0:
            self._tails[name] = bytearray()
        self._sizes[name] = new_size

    def _frame_pre_image(self, name: str, idx: int, size: int) -> bytes:
        """Intended content of frame *idx* before an in-place write."""
        frames = self._frames[name]
        frame = self.frame_bytes
        fstart = idx * frame
        if fstart >= size or idx >= len(frames):
            return b""
        tail = self._tails[name]
        if fstart + frame > size:  # the partial tail frame
            if tail is None:
                raise ChecksumError(
                    f"cannot overwrite {name!r}: its final frame failed "
                    f"verification"
                )
            return bytes(tail)
        content = self.inner.read(name, fstart, frame)
        if crc32c(content) != frames[idx]:
            # Refuse to splice into a corrupt frame — recomputing its CRC
            # here would silently bless the corruption.
            self._failures.inc()
            raise ChecksumError(
                f"checksum mismatch in {name!r}: frame {idx} "
                f"(bytes {fstart}..{fstart + len(content)})"
            )
        return content

    # ------------------------------------------------------------ fsck

    def verify_file(self, name: str) -> List[str]:
        """Re-read *name* end to end; return problem strings (fsck hook)."""
        frames = self._frames.get(name)
        if frames is None:
            return []
        problems = []
        size = self.inner.size(name)
        frame = self.frame_bytes
        expected = -(-size // frame)
        if self._sizes[name] != size:
            problems.append(
                f"file is {size} bytes on disk, checksummed length is "
                f"{self._sizes[name]}"
            )
        if len(frames) != expected:
            problems.append(
                f"sidecar records {len(frames)} frames, file has {expected}"
            )
        for idx in range(min(len(frames), expected)):
            lo = idx * frame
            content = self.inner.read(name, lo, min(frame, size - lo))
            if crc32c(content) != frames[idx]:
                self._failures.inc()
                problems.append(
                    f"CRC32C mismatch in frame {idx} "
                    f"(bytes {lo}..{lo + len(content)})"
                )
        return problems
