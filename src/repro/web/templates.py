"""A small HTML template engine.

HEDC's web responses are built from "multiple HTML template files, which
are populated during query processing" (paper §6.1) — header/footer
templates plus one analysis template per ANA tuple.  The engine supports
``{{ expr }}`` substitution (dot access into dicts/attributes, with HTML
escaping), ``{% for x in expr %}``, ``{% if expr %}/{% else %}`` and
``{% include name %}`` over a template registry.

A template is compiled when it is constructed (for the servlets: at
``TemplateRegistry.register``) into closures ``emit(context, registry,
append)`` that write to one output list.  What an expression *is* —
literal, integer, or dotted path — is decided then; what it resolves to,
and which template an include names, at each render.
"""

from __future__ import annotations

import re
from html import escape
from typing import Any, Callable, Optional

Getter = Callable[[dict[str, Any]], Any]
Emit = Callable[[dict[str, Any], "TemplateRegistry", Callable[[str], None]], None]


class TemplateError(Exception):
    """Malformed template or unresolvable expression."""


_TAG_RE = re.compile(r"({{.*?}}|{%.*?%})", re.DOTALL)
_MISSING = object()


def _step(value: Any, part: str, head: str) -> Any:
    """One ``.part`` of a path: a key of a dict, an attribute of the rest."""
    if isinstance(value, dict):
        if part not in value:
            raise TemplateError(f"no key {part!r} in {head!r}")
        return value[part]
    value = getattr(value, part, _MISSING)
    if value is _MISSING:
        raise TemplateError(f"no attribute {part!r} on {head!r}")
    return value


def _getter(expression: str) -> Getter:
    """``context -> value`` for a literal or a dotted ``a.b.c`` path."""
    expression = expression.strip()
    if expression.startswith(("'", '"')) and expression.endswith(expression[0]):
        literal: Any = expression[1:-1]
        return lambda context: literal
    try:
        literal = int(expression)
        return lambda context: literal
    except ValueError:
        pass
    head, *rest = expression.split(".")

    def get_name(context):
        if head not in context:
            raise TemplateError(f"unknown template variable {head!r}")
        return context[head]

    if not rest:
        return get_name
    if len(rest) == 1:
        part = rest[0]

        def get_member(context):
            if head not in context:
                raise TemplateError(f"unknown template variable {head!r}")
            value = context[head]
            if type(value) is dict and part in value:
                return value[part]
            return _step(value, part, head)

        return get_member

    def get_path(context):
        value = get_name(context)
        for part in rest:
            value = _step(value, part, head)
        return value

    return get_path


def _text(text: str) -> Emit:
    return lambda context, registry, append: append(text)


def _expr(get: Getter, escaped: bool) -> Emit:
    """Emit one value: ``None`` as nothing, floats as ``.6g``, the rest
    through ``str``; escaped unless ``|safe``.  Exact ``int`` and ``float``
    print no character that escaping would change."""

    def emit(context, registry, append):
        value = get(context)
        kind = type(value)
        if kind is str:
            append(escape(value) if escaped else value)
        elif kind is int:
            append(str(value))
        elif kind is float:
            append(f"{value:.6g}")
        elif value is not None:
            text = f"{value:.6g}" if isinstance(value, float) else str(value)
            append(escape(text) if escaped else text)

    return emit


def _for(variable: str, get: Getter, body: Emit) -> Emit:
    def emit(context, registry, append):
        items = get(context)
        # One scope per loop, not per row: nothing in a body can write to
        # it but an inner loop, which copies it again.
        scope = dict(context)
        for item in items:
            scope[variable] = item
            body(scope, registry, append)

    return emit


def _if(get: Getter, then_body: Emit, else_body: Emit) -> Emit:
    def emit(context, registry, append):
        try:
            branch = then_body if get(context) else else_body
        except TemplateError:
            branch = else_body
        branch(context, registry, append)

    return emit


def _include(name: str) -> Emit:
    # The name is looked up at render time: an include may be registered
    # after its includer, and re-registered.
    return lambda context, registry, append: append(registry.render(name, context))


def _block(nodes: list[Emit]) -> Emit:
    if len(nodes) == 1:
        return nodes[0]
    body = tuple(nodes)

    def emit(context, registry, append):
        for node in body:
            node(context, registry, append)

    return emit


class Template:
    """A compiled template."""

    def __init__(self, source: str):
        self._emit = self._parse(iter(_TAG_RE.split(source)), terminators=())[0]

    def _parse(self, pieces, terminators) -> tuple[Emit, Optional[str]]:
        nodes: list[Emit] = []
        for piece in pieces:
            if not piece:
                continue
            if piece.startswith("{{"):
                inner = piece[2:-2].strip()
                escaped = True
                if inner.endswith("|safe"):
                    inner = inner[:-5].strip()
                    escaped = False
                nodes.append(_expr(_getter(inner), escaped))
            elif piece.startswith("{%"):
                tag = piece[2:-2].strip()
                if tag in terminators:
                    return _block(nodes), tag
                if tag.startswith("for "):
                    match = re.match(r"for\s+(\w+)\s+in\s+(.+)", tag)
                    if not match:
                        raise TemplateError(f"bad for tag: {tag!r}")
                    body, terminator = self._parse(pieces, ("endfor",))
                    nodes.append(_for(match.group(1), _getter(match.group(2)), body))
                elif tag.startswith("if "):
                    then_body, terminator = self._parse(pieces, ("else", "endif"))
                    else_body = _block([])
                    if terminator == "else":
                        else_body, _terminator = self._parse(pieces, ("endif",))
                    nodes.append(_if(_getter(tag[3:]), then_body, else_body))
                elif tag.startswith("include "):
                    nodes.append(_include(tag[8:].strip()))
                else:
                    raise TemplateError(f"unknown tag {tag!r}")
            else:
                nodes.append(_text(piece))
        if terminators:
            raise TemplateError(f"missing {'/'.join(terminators)}")
        return _block(nodes), None

    def render(self, context: dict[str, Any], registry: Optional["TemplateRegistry"] = None) -> str:
        out: list[str] = []
        self._emit(context, registry or TemplateRegistry(), out.append)
        return "".join(out)


class TemplateRegistry:
    """Named templates so pages can be assembled from parts (§6.1)."""

    def __init__(self) -> None:
        self._templates: dict[str, Template] = {}

    def register(self, name: str, source: str) -> None:
        self._templates[name] = Template(source)

    def render(self, name: str, context: dict[str, Any]) -> str:
        if name not in self._templates:
            raise TemplateError(f"unknown template {name!r}")
        return self._templates[name].render(context, self)

    def __contains__(self, name: str) -> bool:
        return name in self._templates
