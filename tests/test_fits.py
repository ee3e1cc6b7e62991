"""Tests for the FITS subset: cards, HDUs, files, gzip."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fits import (
    BLOCK_LENGTH,
    BinTableHDU,
    CARD_LENGTH,
    FitsError,
    FitsFile,
    Header,
    PrimaryHDU,
    format_card,
    parse_card,
    read,
    write,
)
from repro.rhessi import PhotonList


class TestCards:
    def test_card_is_80_chars(self):
        assert len(format_card("SIMPLE", True)) == CARD_LENGTH
        assert len(format_card("END")) == CARD_LENGTH

    def test_value_round_trips(self):
        for value in (True, False, 42, -17, 3.5, 1.5e-9, "RHESSI", "it's"):
            keyword, parsed, _comment = parse_card(format_card("KEY", value))
            assert keyword == "KEY"
            if isinstance(value, float):
                assert parsed == pytest.approx(value)
            else:
                assert parsed == value

    def test_comment_round_trips(self):
        _kw, _value, comment = parse_card(format_card("NAXIS", 2, "number of axes"))
        assert comment == "number of axes"

    def test_long_keyword_rejected(self):
        with pytest.raises(FitsError):
            format_card("TOOLONGKEYWORD", 1)

    def test_wrong_card_length_rejected(self):
        with pytest.raises(FitsError):
            parse_card("SHORT")

    def test_fortran_double_exponent_parsed(self):
        card = ("BSCALE  = 1.5D3").ljust(80)
        _kw, value, _c = parse_card(card)
        assert value == 1500.0


class TestHeader:
    def test_set_replaces_existing_keyword(self):
        header = Header()
        header.set("TELESCOP", "A")
        header.set("TELESCOP", "B")
        assert header["TELESCOP"] == "B"
        assert len(header) == 1

    def test_comments_and_history_accumulate(self):
        header = Header()
        header.add_comment("one")
        header.add_comment("two")
        header.add_history("made by tests")
        assert header.comments() == ["one", "two"]
        assert header.history() == ["made by tests"]

    def test_getitem_raises_on_missing(self):
        with pytest.raises(KeyError):
            Header()["MISSING"]

    def test_serialized_header_is_block_aligned(self):
        header = Header()
        for index in range(50):  # force multiple blocks
            header.set(f"KEY{index}", index)
        payload = header.to_bytes()
        assert len(payload) % BLOCK_LENGTH == 0
        restored, offset = Header.from_bytes(payload)
        assert offset == len(payload)
        assert restored["KEY49"] == 49

    def test_truncated_header_rejected(self):
        with pytest.raises(FitsError):
            Header.from_bytes(b" " * 100)


class TestPrimaryHDU:
    @pytest.mark.parametrize("dtype", ["uint8", "int16", "int32", "int64", "float32", "float64"])
    def test_array_round_trip_all_dtypes(self, dtype):
        array = np.arange(24, dtype=dtype).reshape(4, 6)
        payload = PrimaryHDU(array).to_bytes()
        assert len(payload) % BLOCK_LENGTH == 0
        restored, _offset = PrimaryHDU.from_bytes(payload)
        assert restored.data.shape == (4, 6)
        assert np.array_equal(restored.data, array)

    def test_dataless_primary(self):
        payload = PrimaryHDU().to_bytes()
        restored, offset = PrimaryHDU.from_bytes(payload)
        assert restored.data is None
        assert offset == len(payload)

    def test_3d_array(self):
        array = np.arange(60, dtype=np.float32).reshape(3, 4, 5)
        restored, _offset = PrimaryHDU.from_bytes(PrimaryHDU(array).to_bytes())
        assert restored.data.shape == (3, 4, 5)
        assert np.allclose(restored.data, array)

    def test_extra_header_cards_survive(self):
        hdu = PrimaryHDU(np.zeros((2, 2), dtype=np.int32))
        hdu.header.set("TELESCOP", "RHESSI", "instrument name")
        restored, _offset = PrimaryHDU.from_bytes(hdu.to_bytes())
        assert restored.header["TELESCOP"] == "RHESSI"

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(FitsError):
            PrimaryHDU(np.zeros(4, dtype=np.complex64)).to_bytes()


class TestBinTable:
    def test_mixed_column_round_trip(self):
        table = BinTableHDU(
            ["t", "e", "d", "label"],
            [
                np.linspace(0, 1, 7),
                np.arange(7, dtype=np.float32),
                np.arange(7, dtype=np.int32),
                np.array(["a", "bb", "ccc", "d", "e", "f", "g"]),
            ],
            name="PHOTONS",
        )
        restored, _offset = BinTableHDU.from_bytes(table.to_bytes())
        assert restored.name == "PHOTONS"
        assert np.allclose(restored.column("t"), table.column("t"))
        assert restored.column("d").dtype.kind == "i"
        assert list(restored.column("label")) == ["a", "bb", "ccc", "d", "e", "f", "g"]

    def test_int64_column(self):
        table = BinTableHDU(["big"], [np.array([2**40, -2**40])])
        restored, _offset = BinTableHDU.from_bytes(table.to_bytes())
        assert list(restored.column("big")) == [2**40, -2**40]

    def test_empty_table(self):
        table = BinTableHDU(["x"], [np.array([], dtype=np.float64)])
        restored, _offset = BinTableHDU.from_bytes(table.to_bytes())
        assert len(restored) == 0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(FitsError):
            BinTableHDU(["a", "b"], [np.zeros(2), np.zeros(3)])

    def test_unknown_column_name_rejected(self):
        table = BinTableHDU(["a"], [np.zeros(2)])
        with pytest.raises(FitsError):
            table.column("missing")


class TestFitsFile:
    def test_multi_hdu_round_trip(self):
        image = PrimaryHDU(np.ones((3, 3), dtype=np.float32))
        table = BinTableHDU(["x"], [np.arange(5, dtype=np.int32)], name="DATA")
        fits_file = FitsFile([image, table])
        restored = FitsFile.from_bytes(fits_file.to_bytes())
        assert len(restored.hdus) == 2
        assert np.allclose(restored.primary.data, 1.0)
        assert list(restored.table("DATA").column("x")) == [0, 1, 2, 3, 4]

    def test_first_hdu_must_be_primary(self):
        table = BinTableHDU(["x"], [np.arange(2)])
        with pytest.raises(FitsError):
            FitsFile([table])

    def test_missing_table_name_raises(self):
        fits_file = FitsFile([PrimaryHDU()])
        with pytest.raises(FitsError):
            fits_file.table("NOPE")

    def test_gzip_write_read(self, tmp_path):
        fits_file = FitsFile([PrimaryHDU(np.arange(100, dtype=np.float64).reshape(10, 10))])
        plain_path = tmp_path / "plain.fits"
        gz_path = tmp_path / "packed.fits.gz"
        plain_size = write(plain_path, fits_file)
        gz_size = write(gz_path, fits_file)
        assert gz_size < plain_size
        assert np.allclose(read(gz_path).primary.data, read(plain_path).primary.data)

    def test_gzip_write_is_deterministic(self, tmp_path):
        fits_file = FitsFile([PrimaryHDU(np.zeros((4, 4), dtype=np.int32))])
        write(tmp_path / "a.fits.gz", fits_file)
        write(tmp_path / "b.fits.gz", fits_file)
        assert (tmp_path / "a.fits.gz").read_bytes() == (tmp_path / "b.fits.gz").read_bytes()


class TestFitsProperties:
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=64
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_float64_table_column_exact_round_trip(self, values):
        table = BinTableHDU(["v"], [np.array(values, dtype=np.float64)])
        restored, _offset = BinTableHDU.from_bytes(table.to_bytes())
        assert np.array_equal(restored.column("v"), np.array(values))

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_image_shape_preserved(self, rows, columns):
        array = np.random.default_rng(0).integers(0, 255, size=(rows, columns)).astype(np.int32)
        restored, _offset = PrimaryHDU.from_bytes(PrimaryHDU(array).to_bytes())
        assert restored.data.shape == (rows, columns)
        assert np.array_equal(restored.data, array)


def _photon_file() -> bytes:
    rng = np.random.default_rng(5)
    photons = PhotonList(np.sort(rng.uniform(0.0, 100.0, 850)),
                         rng.uniform(3.0, 100.0, 850), rng.integers(1, 10, 850))
    return photons.to_fits().to_bytes()


PHOTON_FILE = _photon_file()                       # 14 KB of data after two header blocks
N_HEADER_CARDS = 2 * BLOCK_LENGTH // CARD_LENGTH   # primary header, table header

truncations = st.builds(lambda cut: PHOTON_FILE[:cut], st.integers(0, len(PHOTON_FILE) - 1))


@st.composite
def flipped_header_bytes(draw):
    damaged = bytearray(PHOTON_FILE)
    for _flip in range(draw(st.integers(1, 5))):
        damaged[draw(st.integers(0, 2 * BLOCK_LENGTH - 1))] = draw(st.integers(0, 255))
    return bytes(damaged)


@st.composite
def blanked_card(draw):
    card = draw(st.integers(0, N_HEADER_CARDS - 1)) * CARD_LENGTH
    return PHOTON_FILE[:card] + b" " * CARD_LENGTH + PHOTON_FILE[card + CARD_LENGTH:]


@st.composite
def rewritten_value(draw):
    """One card's value field holding something else: a number of the
    wrong sign or size, a string where a count belongs, noise."""
    card = draw(st.integers(0, N_HEADER_CARDS - 1)) * CARD_LENGTH
    value = draw(st.one_of(
        st.integers(-10**12, 10**12).map(str),
        st.sampled_from(["T", "F", "1E99", "-1.5", "NAN", "INF", "'J'", "'0A'", "'99999A'",
                         "'time'", "'BINTABLE'", "''", "'"]),
        st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=20),
    ))
    field = value.rjust(20)[:70].ljust(70).encode("ascii")
    return PHOTON_FILE[:card + 10] + field + PHOTON_FILE[card + CARD_LENGTH:]


class TestReaderFailsTyped:
    """Whatever arrives, ``FitsFile.from_bytes`` and
    ``PhotonList.from_fits`` parse it or raise :class:`FitsError`."""

    @given(st.one_of(truncations, flipped_header_bytes(), blanked_card(), rewritten_value()))
    @settings(max_examples=600, deadline=None)
    def test_mutated_photon_file_parses_or_raises_fits_error(self, data):
        try:
            photons = PhotonList.from_fits(FitsFile.from_bytes(data))
        except FitsError:
            return
        assert len(photons.times) == len(photons.energies) == len(photons.detectors)

    def test_the_intact_file_parses(self):
        assert len(PhotonList.from_fits(FitsFile.from_bytes(PHOTON_FILE))) == 850

    @pytest.mark.parametrize("damage", ["truncated", "not gzip", "flipped"])
    def test_bad_gzip_stream_is_a_fits_error(self, tmp_path, damage):
        path = tmp_path / "unit.fits.gz"
        write(path, FitsFile.from_bytes(PHOTON_FILE))
        packed = bytearray(path.read_bytes())
        if damage == "truncated":
            packed = packed[:len(packed) // 2]
        elif damage == "not gzip":
            packed = bytearray(b"plainly not a gzip stream")
        else:
            packed[len(packed) // 2] ^= 0xFF
        path.write_bytes(bytes(packed))
        with pytest.raises(FitsError):
            read(path)
