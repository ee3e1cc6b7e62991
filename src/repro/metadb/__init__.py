"""An embedded relational database for HEDC metadata.

Plays the role Oracle 8.1.7 plays in the paper: it stores the metadata
(never the bulk science data), offers indexes and a declarative query
interface, and sits behind the DM's database adapter.
"""

from .api import DatabaseApi
from .columnar import SEGMENT_ROWS, ColumnarStore
from .database import Database, DatabaseStats
from .errors import (
    ClosedError,
    DatabaseError,
    IntegrityError,
    LockTimeout,
    QueryError,
    SchemaError,
    TransactionError,
)
from .pool import Connection, ConnectionPool, PoolSet
from .predicate import (
    ALWAYS,
    And,
    Between,
    Comparison,
    In,
    IsNull,
    Like,
    Not,
    Or,
    Predicate,
)
from .query import Aggregate, Delete, Explain, Insert, Join, Plan, Select, Update
from .schema import (
    BROADCAST,
    LOCAL,
    Column,
    ForeignKey,
    Placement,
    TableSchema,
    follows,
    follows_item,
    partitioned,
)
from .storage import TableStats
from .sql import PreparedStatement, parse, prepare, to_sql
from .types import ColumnType, coerce

__all__ = [
    "ALWAYS",
    "BROADCAST",
    "LOCAL",
    "Aggregate",
    "And",
    "Between",
    "ClosedError",
    "Column",
    "ColumnType",
    "ColumnarStore",
    "SEGMENT_ROWS",
    "Comparison",
    "Connection",
    "ConnectionPool",
    "Database",
    "DatabaseApi",
    "DatabaseError",
    "DatabaseStats",
    "Delete",
    "Explain",
    "ForeignKey",
    "In",
    "Insert",
    "IntegrityError",
    "IsNull",
    "Join",
    "Like",
    "LockTimeout",
    "Not",
    "Or",
    "Placement",
    "Plan",
    "PoolSet",
    "Predicate",
    "PreparedStatement",
    "QueryError",
    "SchemaError",
    "Select",
    "TableSchema",
    "TableStats",
    "TransactionError",
    "Update",
    "coerce",
    "follows",
    "follows_item",
    "parse",
    "partitioned",
    "prepare",
    "to_sql",
]
