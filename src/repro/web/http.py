"""In-process HTTP request/response model.

The evaluation measures servlet page generation, not socket handling, so
requests and responses are plain objects routed in-process; persistent
("keep-alive") connections are modelled by a per-client connection object
that counts requests (paper §7.2 sets Keep-Alive to unlimited).
"""

from __future__ import annotations

import urllib.parse
from dataclasses import dataclass, field
from html import escape
from typing import Callable, Optional


@dataclass
class HttpRequest:
    method: str
    path: str
    params: dict[str, str] = field(default_factory=dict)
    cookies: dict[str, str] = field(default_factory=dict)
    client_ip: str = "127.0.0.1"
    body: bytes = b""
    headers: dict[str, str] = field(default_factory=dict)

    @classmethod
    def get(cls, url: str, cookies: Optional[dict[str, str]] = None,
            client_ip: str = "127.0.0.1",
            headers: Optional[dict[str, str]] = None) -> "HttpRequest":
        parsed = urllib.parse.urlsplit(url)
        params = {key: values[-1] for key, values in
                  urllib.parse.parse_qs(parsed.query).items()}
        return cls("GET", parsed.path, params, dict(cookies or {}), client_ip,
                   headers=dict(headers or {}))

    @classmethod
    def post(cls, url: str, params: Optional[dict[str, str]] = None,
             cookies: Optional[dict[str, str]] = None,
             client_ip: str = "127.0.0.1",
             headers: Optional[dict[str, str]] = None) -> "HttpRequest":
        parsed = urllib.parse.urlsplit(url)
        merged = {key: values[-1] for key, values in
                  urllib.parse.parse_qs(parsed.query).items()}
        merged.update(params or {})
        return cls("POST", parsed.path, merged, dict(cookies or {}), client_ip,
                   headers=dict(headers or {}))


@dataclass
class HttpResponse:
    status: int = 200
    body: bytes = b""
    content_type: str = "text/html"
    set_cookies: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)

    @classmethod
    def html(cls, text: str, status: int = 200) -> "HttpResponse":
        return cls(status=status, body=text.encode("utf-8"))

    @classmethod
    def image(cls, payload: bytes, content_type: str = "image/x-portable-graymap") -> "HttpResponse":
        return cls(body=payload, content_type=content_type)

    @classmethod
    def error(cls, status: int, message: str) -> "HttpResponse":
        """An error page.  Messages quote request text and exception text:
        escaped here, once, so no caller can forget."""
        return cls.html(
            f"<html><body><h1>{status}</h1><p>{escape(message)}</p></body></html>", status)

    @classmethod
    def redirect(cls, location: str) -> "HttpResponse":
        response = cls(status=302)
        response.headers["Location"] = location
        return response

    @classmethod
    def not_modified(cls, etag: str) -> "HttpResponse":
        """304: the client's cached copy (``If-None-Match``) is current."""
        response = cls(status=304)
        response.headers["ETag"] = etag
        return response

    @property
    def size(self) -> int:
        return len(self.body)

    @property
    def text(self) -> str:
        return self.body.decode("utf-8", errors="replace")


Handler = Callable[[HttpRequest], HttpResponse]


class Router:
    """Exact-prefix path routing to servlet handlers."""

    def __init__(self) -> None:
        self._routes: list[tuple[str, Handler]] = []

    def add(self, prefix: str, handler: Handler) -> None:
        self._routes.append((prefix, handler))
        # Longest prefix first so /hedc/hle wins over /hedc.
        self._routes.sort(key=lambda route: -len(route[0]))

    def match(self, path: str) -> Optional[str]:
        """The route prefix that would serve ``path``, or ``None``."""
        for prefix, _handler in self._routes:
            if path == prefix or path.startswith(prefix.rstrip("/") + "/"):
                return prefix
        return None

    def dispatch(self, request: HttpRequest) -> HttpResponse:
        for prefix, handler in self._routes:
            if request.path == prefix or request.path.startswith(prefix.rstrip("/") + "/"):
                return handler(request)
        return HttpResponse.error(404, f"no route for {request.path}")
