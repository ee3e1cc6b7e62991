"""Catalog sharding: time-range partitions behind the database API.

Scaling past the paper's single shared catalog (§7.3 stops at replicated
DMs over one database): the metadata tier itself partitions by
observation time, queries route to only the shards their predicates can
touch, and a dead shard costs one time range instead of the archive.
"""

from .merge import prepare_scatter
from .partition import (
    ShardError,
    ShardMap,
    ShardSpec,
    ShardUnavailable,
)
from .router import RouteDecision, route_keyed, route_partitioned
from .sharded import PartialResult, ShardedDatabase
from .split import rebalance, split_shard

__all__ = [
    "PartialResult",
    "RouteDecision",
    "ShardError",
    "ShardMap",
    "ShardSpec",
    "ShardUnavailable",
    "ShardedDatabase",
    "prepare_scatter",
    "rebalance",
    "route_keyed",
    "route_partitioned",
    "split_shard",
]
