"""FITS HDUs: primary image HDU and binary-table extension.

Implements the parts of the FITS standard RHESSI data needs:

* :class:`PrimaryHDU` — n-dimensional numeric array (BITPIX 8/16/32/64/
  -32/-64), big-endian on disk, data padded to 2880-byte blocks.
* :class:`BinTableHDU` — XTENSION='BINTABLE' with TFORM codes ``J`` (int32),
  ``K`` (int64), ``E`` (float32), ``D`` (float64) and ``rA`` (fixed-width
  ASCII), one element per cell.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .cards import BLOCK_LENGTH, FitsError, Header

_BITPIX_TO_DTYPE = {
    8: np.dtype(">u1"),
    16: np.dtype(">i2"),
    32: np.dtype(">i4"),
    64: np.dtype(">i8"),
    -32: np.dtype(">f4"),
    -64: np.dtype(">f8"),
}
_DTYPE_TO_BITPIX = {
    np.dtype("uint8"): 8,
    np.dtype("int16"): 16,
    np.dtype("int32"): 32,
    np.dtype("int64"): 64,
    np.dtype("float32"): -32,
    np.dtype("float64"): -64,
}


def _size_card(header: Header, keyword: str) -> int:
    """A count or length card: a non-negative integer."""
    value = header.require(keyword, int)
    if value < 0:
        raise FitsError(f"negative {keyword}: {value}")
    return value


def _pad(data: bytes) -> bytes:
    padding = (-len(data)) % BLOCK_LENGTH
    return data + b"\x00" * padding


class PrimaryHDU:
    """The primary header-data unit (an optional n-d numeric array)."""

    def __init__(self, data: Optional[np.ndarray] = None, header: Optional[Header] = None):
        self.data = data
        self.header = header or Header()

    def to_bytes(self) -> bytes:
        header = Header()
        header.set("SIMPLE", True, "conforms to FITS standard")
        if self.data is None:
            header.set("BITPIX", 8)
            header.set("NAXIS", 0)
        else:
            native = self.data
            bitpix = _DTYPE_TO_BITPIX.get(np.dtype(native.dtype.name))
            if bitpix is None:
                raise FitsError(f"unsupported array dtype {native.dtype}")
            header.set("BITPIX", bitpix)
            header.set("NAXIS", native.ndim)
            # FITS axis order is Fortran-style: NAXIS1 varies fastest.
            for axis_index, length in enumerate(reversed(native.shape)):
                header.set(f"NAXIS{axis_index + 1}", int(length))
        for keyword, value, comment in self.header:
            if keyword not in ("SIMPLE", "BITPIX", "NAXIS") and not keyword.startswith("NAXIS"):
                header._cards.append((keyword, value, comment))
        out = header.to_bytes()
        if self.data is not None:
            disk_dtype = _BITPIX_TO_DTYPE[_DTYPE_TO_BITPIX[np.dtype(self.data.dtype.name)]]
            out += _pad(np.ascontiguousarray(self.data, dtype=disk_dtype).tobytes())
        return out

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> tuple["PrimaryHDU", int]:
        header, position = Header.from_bytes(data, offset)
        if header.get("SIMPLE") is not True:
            raise FitsError("primary HDU must begin with SIMPLE = T")
        naxis = _size_card(header, "NAXIS")
        array: Optional[np.ndarray] = None
        if naxis:
            bitpix = header.require("BITPIX", int)
            dtype = _BITPIX_TO_DTYPE.get(bitpix)
            if dtype is None:
                raise FitsError(f"unsupported BITPIX {bitpix}")
            if naxis > 999:
                raise FitsError(f"NAXIS out of range: {naxis}")
            shape = tuple(
                _size_card(header, f"NAXIS{axis_index}") for axis_index in range(naxis, 0, -1)
            )
            nbytes = math.prod(shape) * dtype.itemsize
            raw = data[position:position + nbytes]
            if len(raw) < nbytes:
                raise FitsError("truncated primary data")
            array = np.frombuffer(raw, dtype=dtype).reshape(shape).astype(dtype.newbyteorder("="))
            position += nbytes + ((-nbytes) % BLOCK_LENGTH)
        hdu = cls(array)
        hdu.header = header
        return hdu, position


_TFORM_DTYPES = {
    "J": np.dtype(">i4"),
    "K": np.dtype(">i8"),
    "E": np.dtype(">f4"),
    "D": np.dtype(">f8"),
}


class BinTableHDU:
    """A binary table: named columns of equal length."""

    def __init__(
        self,
        names: Sequence[str],
        columns: Sequence[np.ndarray],
        name: str = "",
        header: Optional[Header] = None,
    ):
        if len(names) != len(columns):
            raise FitsError("names/columns length mismatch")
        lengths = {len(column) for column in columns}
        if len(lengths) > 1:
            raise FitsError(f"columns have differing lengths: {sorted(lengths)}")
        self.names = list(names)
        self.columns = [np.asarray(column) for column in columns]
        self.name = name
        self.header = header or Header()

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[self.names.index(name)]
        except ValueError as exc:
            raise FitsError(f"no column named {name!r}") from exc

    def _tforms(self) -> list[tuple[str, np.dtype, int]]:
        """(tform, disk dtype, width) per column."""
        specs = []
        for column in self.columns:
            kind = column.dtype.kind
            if kind in ("U", "S"):
                width = int(column.dtype.itemsize if kind == "S" else column.dtype.itemsize // 4)
                specs.append((f"{width}A", np.dtype(f"S{width}"), width))
            elif kind == "i" and column.dtype.itemsize <= 4:
                specs.append(("J", _TFORM_DTYPES["J"], 4))
            elif kind == "i":
                specs.append(("K", _TFORM_DTYPES["K"], 8))
            elif kind == "f" and column.dtype.itemsize <= 4:
                specs.append(("E", _TFORM_DTYPES["E"], 4))
            elif kind == "f":
                specs.append(("D", _TFORM_DTYPES["D"], 8))
            else:
                raise FitsError(f"unsupported column dtype {column.dtype}")
        return specs

    def to_bytes(self) -> bytes:
        specs = self._tforms()
        row_width = sum(width for _tform, _dtype, width in specs)
        header = Header()
        header.set("XTENSION", "BINTABLE", "binary table extension")
        header.set("BITPIX", 8)
        header.set("NAXIS", 2)
        header.set("NAXIS1", row_width, "bytes per row")
        header.set("NAXIS2", len(self), "number of rows")
        header.set("PCOUNT", 0)
        header.set("GCOUNT", 1)
        header.set("TFIELDS", len(self.columns))
        if self.name:
            header.set("EXTNAME", self.name)
        for column_index, (column_name, (tform, _dtype, _width)) in enumerate(
            zip(self.names, specs), start=1
        ):
            header.set(f"TTYPE{column_index}", column_name)
            header.set(f"TFORM{column_index}", tform)
        for keyword, value, comment in self.header:
            header._cards.append((keyword, value, comment))
        # Build a structured record array and serialize row-major.
        record_dtype = np.dtype(
            [(name_, spec[1]) for name_, spec in zip(self.names, specs)]
        )
        records = np.zeros(len(self), dtype=record_dtype)
        for column_name, column, (tform, dtype, _width) in zip(self.names, self.columns, specs):
            if dtype.kind == "S":
                records[column_name] = np.char.encode(column.astype("U"), "ascii")
            else:
                records[column_name] = column
        return header.to_bytes() + _pad(records.tobytes())

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> tuple["BinTableHDU", int]:
        header, position = Header.from_bytes(data, offset)
        if str(header.get("XTENSION", "")).strip() != "BINTABLE":
            raise FitsError("not a BINTABLE extension")
        row_width = _size_card(header, "NAXIS1")
        nrows = _size_card(header, "NAXIS2")
        nfields = _size_card(header, "TFIELDS")
        if nfields > 999:
            raise FitsError(f"TFIELDS out of range: {nfields}")
        fields: list[tuple[str, np.dtype]] = []
        for column_index in range(1, nfields + 1):
            column_name = header.require(f"TTYPE{column_index}", str).strip()
            if not column_name:
                raise FitsError(f"TTYPE{column_index} names no column")
            tform = header.require(f"TFORM{column_index}", str).strip()
            if tform.endswith("A"):
                width = tform[:-1] or "1"
                if not (width.isascii() and width.isdigit() and 0 < int(width) <= row_width):
                    raise FitsError(f"unsupported TFORM {tform!r}")
                fields.append((column_name, np.dtype(f"S{int(width)}")))
            elif tform in _TFORM_DTYPES:
                fields.append((column_name, _TFORM_DTYPES[tform]))
            else:
                raise FitsError(f"unsupported TFORM {tform!r}")
        try:
            record_dtype = np.dtype(fields)
        except ValueError as exc:  # a repeated column name
            raise FitsError(f"unusable column names: {exc}") from exc
        if record_dtype.itemsize != row_width:
            raise FitsError(
                f"row width mismatch: NAXIS1={row_width}, fields={record_dtype.itemsize}"
            )
        nbytes = row_width * nrows
        raw = data[position:position + nbytes]
        if len(raw) < nbytes:
            raise FitsError("truncated table data")
        records = np.frombuffer(raw, dtype=record_dtype)
        position += nbytes + ((-nbytes) % BLOCK_LENGTH)
        names = [field_name for field_name, _dtype in fields]
        columns = []
        for field_name, dtype in fields:
            column = records[field_name]
            if dtype.kind == "S":
                try:
                    columns.append(np.char.decode(column, "ascii"))
                except UnicodeDecodeError as exc:
                    raise FitsError(f"non-ASCII text in column {field_name!r}") from exc
            else:
                columns.append(column.astype(dtype.newbyteorder("=")))
        table = cls(names, columns, name=str(header.get("EXTNAME", "")).strip())
        table.header = header
        return table, position
