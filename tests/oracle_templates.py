"""The differential oracle for the template engine.

The tree interpreter ``repro.web.templates`` rendered pages with before
templates were compiled into closures at registration (commit 9db3b2d),
copied unchanged but for two things: ``interpreted_pages`` at the end,
and ``_resolve`` taking a key of any ``Mapping``, since a database row is
a read-only view, not a dict.  ``_resolve`` re-reads each expression on every render, ``_For`` copies
the context per row, blocks join their children's strings.  ``TemplateError`` is the engine's own class, so messages
compare directly.  Nothing under ``src/`` imports this module;
``tests/test_templates.py`` and ``benchmarks/test_template_render.py``
render through both engines and compare strings.
"""

from __future__ import annotations

import html
import re
from collections.abc import Mapping
from typing import Any, Optional

from repro.web import pages
from repro.web.templates import TemplateError


_TAG_RE = re.compile(r"({{.*?}}|{%.*?%})", re.DOTALL)


def _resolve(expression: str, context: dict[str, Any]) -> Any:
    """Resolve dotted ``a.b.c`` paths through mappings and attributes."""
    expression = expression.strip()
    if expression.startswith(("'", '"')) and expression.endswith(expression[0]):
        return expression[1:-1]
    try:
        return int(expression)
    except ValueError:
        pass
    parts = expression.split(".")
    if parts[0] not in context:
        raise TemplateError(f"unknown template variable {parts[0]!r}")
    value = context[parts[0]]
    for part in parts[1:]:
        if isinstance(value, Mapping):
            if part not in value:
                raise TemplateError(f"no key {part!r} in {parts[0]!r}")
            value = value[part]
        else:
            if not hasattr(value, part):
                raise TemplateError(f"no attribute {part!r} on {parts[0]!r}")
            value = getattr(value, part)
    return value


class _Node:
    def render(self, context: dict[str, Any], registry: "TemplateRegistry") -> str:
        raise NotImplementedError


class _Text(_Node):
    def __init__(self, text: str):
        self.text = text

    def render(self, context, registry) -> str:
        return self.text


class _Expr(_Node):
    def __init__(self, expression: str, escape: bool = True):
        self.expression = expression
        self.escape = escape

    def render(self, context, registry) -> str:
        value = _resolve(self.expression, context)
        if value is None:
            return ""
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        return html.escape(text) if self.escape else text


class _For(_Node):
    def __init__(self, variable: str, expression: str, body: list[_Node]):
        self.variable = variable
        self.expression = expression
        self.body = body

    def render(self, context, registry) -> str:
        items = _resolve(self.expression, context)
        rendered = []
        for item in items:
            inner = dict(context)
            inner[self.variable] = item
            rendered.append("".join(node.render(inner, registry) for node in self.body))
        return "".join(rendered)


class _If(_Node):
    def __init__(self, expression: str, then_body: list[_Node], else_body: list[_Node]):
        self.expression = expression
        self.then_body = then_body
        self.else_body = else_body

    def render(self, context, registry) -> str:
        try:
            truthy = bool(_resolve(self.expression, context))
        except TemplateError:
            truthy = False
        branch = self.then_body if truthy else self.else_body
        return "".join(node.render(context, registry) for node in branch)


class _Include(_Node):
    def __init__(self, name: str):
        self.name = name

    def render(self, context, registry) -> str:
        return registry.render(self.name, context)


class Template:
    """A parsed template."""

    def __init__(self, source: str):
        self.nodes = self._parse(iter(_TAG_RE.split(source)), terminators=())[0]

    def _parse(self, pieces, terminators) -> tuple[list[_Node], Optional[str]]:
        nodes: list[_Node] = []
        for piece in pieces:
            if not piece:
                continue
            if piece.startswith("{{"):
                inner = piece[2:-2].strip()
                escape = True
                if inner.endswith("|safe"):
                    inner = inner[:-5].strip()
                    escape = False
                nodes.append(_Expr(inner, escape=escape))
            elif piece.startswith("{%"):
                tag = piece[2:-2].strip()
                if tag in terminators:
                    return nodes, tag
                if tag.startswith("for "):
                    match = re.match(r"for\s+(\w+)\s+in\s+(.+)", tag)
                    if not match:
                        raise TemplateError(f"bad for tag: {tag!r}")
                    body, terminator = self._parse(pieces, ("endfor",))
                    nodes.append(_For(match.group(1), match.group(2), body))
                elif tag.startswith("if "):
                    then_body, terminator = self._parse(pieces, ("else", "endif"))
                    else_body: list[_Node] = []
                    if terminator == "else":
                        else_body, _terminator = self._parse(pieces, ("endif",))
                    nodes.append(_If(tag[3:].strip(), then_body, else_body))
                elif tag.startswith("include "):
                    nodes.append(_Include(tag[8:].strip()))
                else:
                    raise TemplateError(f"unknown tag {tag!r}")
            else:
                nodes.append(_Text(piece))
        if terminators:
            raise TemplateError(f"missing {'/'.join(terminators)}")
        return nodes, None

    def render(self, context: dict[str, Any], registry: Optional["TemplateRegistry"] = None) -> str:
        registry = registry or TemplateRegistry()
        return "".join(node.render(context, registry) for node in self.nodes)


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


#: The names ``repro.web.pages.build_registry`` registers; each source is
#: the module constant of the same name in upper case.
PAGE_NAMES = ("header", "footer", "catalog_list", "catalog_page", "hle_header",
              "analysis", "ana_page", "login_page", "search_page")


def interpreted_pages() -> TemplateRegistry:
    """The nine HEDC pages, registered with the interpreter."""
    registry = TemplateRegistry()
    for name in PAGE_NAMES:
        registry.register(name, getattr(pages, name.upper()))
    return registry
