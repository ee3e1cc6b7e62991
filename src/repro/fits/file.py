"""Whole-file FITS reading and writing, with gzip support.

RHESSI raw-data units are FITS files compressed with gnu-zip (paper §2.1);
:func:`write` and :func:`read` transparently handle a ``.gz`` suffix.
"""

from __future__ import annotations

import gzip
import zlib
from pathlib import Path
from typing import Sequence, Union

from .cards import FitsError, Header
from .hdu import BinTableHDU, PrimaryHDU

Hdu = Union[PrimaryHDU, BinTableHDU]


class FitsFile:
    """An ordered list of HDUs; the first must be a :class:`PrimaryHDU`."""

    def __init__(self, hdus: Sequence[Hdu] = ()):
        self.hdus: list[Hdu] = list(hdus)
        if self.hdus and not isinstance(self.hdus[0], PrimaryHDU):
            raise FitsError("first HDU must be the primary HDU")

    @property
    def primary(self) -> PrimaryHDU:
        if not self.hdus:
            raise FitsError("empty FITS file")
        return self.hdus[0]  # type: ignore[return-value]

    def tables(self) -> list[BinTableHDU]:
        return [hdu for hdu in self.hdus if isinstance(hdu, BinTableHDU)]

    def table(self, name: str) -> BinTableHDU:
        for hdu in self.tables():
            if hdu.name == name:
                return hdu
        raise FitsError(f"no table extension named {name!r}")

    def append(self, hdu: Hdu) -> None:
        if not self.hdus and not isinstance(hdu, PrimaryHDU):
            raise FitsError("first HDU must be the primary HDU")
        self.hdus.append(hdu)

    def to_bytes(self) -> bytes:
        if not self.hdus:
            raise FitsError("cannot serialize an empty FITS file")
        return b"".join(hdu.to_bytes() for hdu in self.hdus)

    @classmethod
    def from_bytes(cls, data: bytes) -> "FitsFile":
        hdus: list[Hdu] = []
        primary, position = PrimaryHDU.from_bytes(data, 0)
        hdus.append(primary)
        while position < len(data):
            # Peek at the extension type.
            header, _end = Header.from_bytes(data, position)
            xtension = str(header.get("XTENSION", "")).strip()
            if xtension == "BINTABLE":
                table, position = BinTableHDU.from_bytes(data, position)
                hdus.append(table)
            else:
                raise FitsError(f"unsupported extension {xtension!r}")
        return cls(hdus)


def write(path: Union[str, Path], fits_file: FitsFile) -> int:
    """Write (optionally gzip-compressing); returns bytes written on disk."""
    path = Path(path)
    payload = fits_file.to_bytes()
    if path.suffix == ".gz":
        # mtime=0 keeps output deterministic for checksum-based tests.
        payload = gzip.compress(payload, mtime=0)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(payload)
    return len(payload)


def read(path: Union[str, Path]) -> FitsFile:
    """Read a FITS file, transparently decompressing ``.gz``."""
    path = Path(path)
    payload = path.read_bytes()
    if path.suffix == ".gz" or payload[:2] == b"\x1f\x8b":
        try:
            payload = gzip.decompress(payload)
        except (OSError, EOFError, zlib.error) as exc:
            raise FitsError(f"{path} is not a readable gzip stream: {exc}") from exc
    return FitsFile.from_bytes(payload)
