"""Presentation tier: templates, servlets, web server and thin client
(paper §6.1)."""

from .http import HttpRequest, HttpResponse, Router
from .pages import build_registry
from .scheduler import (
    CLASS_ANALYSIS,
    CLASS_BROWSE,
    CLASS_BULK,
    AdmissionController,
    ScheduledRequest,
    SynchronousExecutor,
    WorkerPoolExecutor,
    classify_route,
)
from .server import BrowseResult, ThinClient, WebServer
from .servlets import SESSION_COOKIE, Servlets
from .templates import Template, TemplateError, TemplateRegistry

__all__ = [
    "AdmissionController",
    "BrowseResult",
    "CLASS_ANALYSIS",
    "CLASS_BROWSE",
    "CLASS_BULK",
    "HttpRequest",
    "HttpResponse",
    "Router",
    "SESSION_COOKIE",
    "ScheduledRequest",
    "Servlets",
    "SynchronousExecutor",
    "Template",
    "TemplateError",
    "TemplateRegistry",
    "ThinClient",
    "WebServer",
    "WorkerPoolExecutor",
    "classify_route",
    "build_registry",
]
