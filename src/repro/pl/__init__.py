"""The Processing Logic (PL) component (paper §5.1): frontend, IDL server
manager, global directory, and the four-phase request/strategy framework."""

from .animation import AnimationStrategy
from .directory import GlobalDirectory, ServiceRecord
from .routines import Routine, RoutineLibrary, RoutineRejected, UserRoutineStrategy
from .frontend import Frontend, UnknownRequestType
from .manager import IdlServerManager, NoServerAvailable
from .product_cache import CachedProduct, ProductCache, fingerprint
from .requests import (
    DEFAULT_STRATEGIES,
    AnalysisRequest,
    AnalysisStrategy,
    ExecutionPlan,
    ParameterError,
    Phase,
    RequestCancelled,
    RequestFailed,
    RoutineStrategy,
    StrategyContext,
)

__all__ = [
    "AnalysisRequest",
    "AnimationStrategy",
    "AnalysisStrategy",
    "CachedProduct",
    "DEFAULT_STRATEGIES",
    "ProductCache",
    "fingerprint",
    "ExecutionPlan",
    "Frontend",
    "GlobalDirectory",
    "IdlServerManager",
    "NoServerAvailable",
    "ParameterError",
    "Phase",
    "RequestCancelled",
    "RequestFailed",
    "Routine",
    "RoutineLibrary",
    "RoutineRejected",
    "RoutineStrategy",
    "ServiceRecord",
    "UserRoutineStrategy",
    "StrategyContext",
    "UnknownRequestType",
]
