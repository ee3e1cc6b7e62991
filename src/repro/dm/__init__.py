"""The Data Management (DM) component: I/O, semantic and process layers,
sessions and name mapping (paper §4-§5)."""

from .dm import DataManager, HlePage
from .io_layer import IoLayer, IoStats
from .maintenance import MaintenanceService, PurgeReport, PurgeRule
from .naming import NameMapper, NameMappingError, ResolvedName
from .process import LoadReport, ProcessLayer, WorkflowError
from .reports import PredefinedQueries, Reports, UnknownQuery
from .semantic import EntityNotFound, SemanticLayer
from .sessions import SESSION_KINDS, Session, SessionCache

__all__ = [
    "DataManager",
    "EntityNotFound",
    "HlePage",
    "IoLayer",
    "IoStats",
    "LoadReport",
    "MaintenanceService",
    "NameMapper",
    "NameMappingError",
    "PredefinedQueries",
    "ProcessLayer",
    "PurgeReport",
    "PurgeRule",
    "Reports",
    "ResolvedName",
    "SESSION_KINDS",
    "SemanticLayer",
    "Session",
    "SessionCache",
    "UnknownQuery",
    "WorkflowError",
]
