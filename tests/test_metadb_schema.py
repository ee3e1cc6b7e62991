"""Unit tests for metadb types and table schemas."""

import datetime as dt

import pytest

from repro.metadb import Column, ColumnType, ForeignKey, IntegrityError, SchemaError, TableSchema, coerce


class TestCoercion:
    def test_integer_accepts_int_and_integral_float(self):
        assert coerce(5, ColumnType.INTEGER) == 5
        assert coerce(5.0, ColumnType.INTEGER) == 5
        assert coerce("7", ColumnType.INTEGER) == 7

    def test_integer_rejects_fractional_float(self):
        with pytest.raises(TypeError):
            coerce(5.5, ColumnType.INTEGER)

    def test_real_accepts_numbers_and_numeric_strings(self):
        assert coerce(3, ColumnType.REAL) == 3.0
        assert coerce("2.5", ColumnType.REAL) == 2.5

    def test_real_rejects_boolean(self):
        with pytest.raises(TypeError):
            coerce(True, ColumnType.REAL)

    def test_text_only_accepts_strings(self):
        assert coerce("hello", ColumnType.TEXT) == "hello"
        with pytest.raises(TypeError):
            coerce(5, ColumnType.TEXT)

    def test_boolean_accepts_bool_and_binary_int(self):
        assert coerce(True, ColumnType.BOOLEAN) is True
        assert coerce(0, ColumnType.BOOLEAN) is False
        with pytest.raises(TypeError):
            coerce(2, ColumnType.BOOLEAN)

    def test_timestamp_accepts_float_datetime_and_iso_string(self):
        assert coerce(100.5, ColumnType.TIMESTAMP) == 100.5
        epoch = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)
        assert coerce(epoch, ColumnType.TIMESTAMP) == 0.0
        assert coerce("1970-01-01T00:01:00+00:00", ColumnType.TIMESTAMP) == 60.0

    def test_timestamp_naive_datetime_treated_as_utc(self):
        assert coerce(dt.datetime(1970, 1, 2), ColumnType.TIMESTAMP) == 86_400.0

    def test_blob_accepts_bytes(self):
        assert coerce(b"\x00\x01", ColumnType.BLOB) == b"\x00\x01"
        with pytest.raises(TypeError):
            coerce("text", ColumnType.BLOB)

    def test_none_passes_through_all_types(self):
        for column_type in ColumnType:
            assert coerce(None, column_type) is None


def _user_schema() -> TableSchema:
    return TableSchema(
        "users",
        [
            Column("user_id", ColumnType.INTEGER, nullable=False),
            Column("login", ColumnType.TEXT, nullable=False),
            Column("age", ColumnType.INTEGER),
            Column("active", ColumnType.BOOLEAN, default=True),
        ],
        primary_key="user_id",
        unique=[("login",)],
    )


class TestTableSchema:
    def test_rejects_duplicate_columns(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", ColumnType.INTEGER)] * 2)

    def test_rejects_unknown_primary_key(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", ColumnType.INTEGER)], primary_key="b")

    def test_rejects_nullable_primary_key(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "t", [Column("a", ColumnType.INTEGER, nullable=True)], primary_key="a"
            )

    def test_rejects_uppercase_column_names(self):
        with pytest.raises(SchemaError):
            Column("BadName", ColumnType.TEXT)

    def test_rejects_unknown_unique_and_index_columns(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", ColumnType.INTEGER)], unique=[("b",)])
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", ColumnType.INTEGER)], indexes=[("b",)])

    def test_normalize_applies_defaults_on_insert(self):
        schema = _user_schema()
        row = schema.normalize_row({"user_id": 1, "login": "ada"})
        assert row["active"] is True
        assert row["age"] is None

    def test_normalize_enforces_not_null(self):
        schema = _user_schema()
        with pytest.raises(IntegrityError):
            schema.normalize_row({"user_id": 1})  # login missing

    def test_normalize_enforces_types(self):
        schema = _user_schema()
        with pytest.raises(IntegrityError):
            schema.normalize_row({"user_id": 1, "login": "ada", "age": "old"})

    def test_normalize_rejects_unknown_columns(self):
        schema = _user_schema()
        with pytest.raises(SchemaError):
            schema.normalize_row({"user_id": 1, "login": "ada", "nope": 1})

    def test_normalize_for_update_checks_only_provided(self):
        schema = _user_schema()
        row = schema.normalize_row({"age": 30}, for_update=True)
        assert row == {"age": 30}

    def test_callable_default_evaluated_per_row(self):
        counter = {"n": 0}

        def next_value():
            counter["n"] += 1
            return counter["n"]

        schema = TableSchema(
            "t",
            [Column("id", ColumnType.INTEGER, nullable=False),
             Column("seq", ColumnType.INTEGER, default=next_value)],
            primary_key="id",
        )
        assert schema.normalize_row({"id": 1})["seq"] == 1
        assert schema.normalize_row({"id": 2})["seq"] == 2

    def test_round_trip_through_dict(self):
        schema = TableSchema(
            "t",
            [Column("id", ColumnType.INTEGER, nullable=False),
             Column("ref", ColumnType.INTEGER)],
            primary_key="id",
            unique=[("ref",)],
            foreign_keys=[ForeignKey("ref", "other", "id")],
            indexes=[("ref",)],
        )
        restored = TableSchema.from_dict(schema.to_dict())
        assert restored.name == "t"
        assert restored.primary_key == "id"
        assert restored.unique == [("ref",)]
        assert restored.indexes == [("ref",)]
        assert restored.foreign_keys[0].ref_table == "other"
