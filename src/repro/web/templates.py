"""A small HTML template engine.

HEDC's web responses are built from "multiple HTML template files, which
are populated during query processing" (paper §6.1) — header/footer
templates plus one analysis template per ANA tuple.  The engine supports
``{{ expr }}`` substitution (dot access into dicts, database rows and
attributes, with HTML escaping), ``{% for x in expr %}``,
``{% if expr %}/{% else %}`` and ``{% include name %}`` over a template
registry.

A template is compiled when it is constructed into the source of one
Python function, ``render(_c, _registry)``, which is ``compile()``d once.
A run of text, values and includes between two control tags is one
f-string ``append``; a loop variable is a local of that function.  Text,
keys and names from the template enter the source only as ``repr()``
literals, never as identifiers.  What an expression *is* — literal,
integer, or dotted path — is decided then; what it resolves to, and which
template an include names, at each render.
"""

from __future__ import annotations

import re
from html import escape
from types import MappingProxyType
from typing import Any, Optional, Union


class TemplateError(Exception):
    """Malformed template or unresolvable expression."""


_TAG_RE = re.compile(r"({{.*?}}|{%.*?%})", re.DOTALL)
_MISSING = object()


def _step(value: Any, part: str, head: str) -> Any:
    """One ``.part`` of a path: a key of a dict or of a database row (a
    read-only view), an attribute of the rest."""
    if isinstance(value, (dict, MappingProxyType)):
        if part not in value:
            raise TemplateError(f"no key {part!r} in {head!r}")
        return value[part]
    value = getattr(value, part, _MISSING)
    if value is _MISSING:
        raise TemplateError(f"no attribute {part!r} on {head!r}")
    return value


def _unknown(head: str) -> Any:
    raise TemplateError(f"unknown template variable {head!r}")


def _other(value: Any, escaped: bool) -> str:
    """A value that is not an exact ``str``, ``int``, ``float`` or ``None``:
    ``.6g`` for a float subclass, ``str`` for the rest."""
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    return escape(text) if escaped else text


#: The generated functions' globals.  No builtins: the code reaches only
#: these names and its own locals.  ``_unsafe`` finds a character
#: ``html.escape`` would change, so a clean string skips the escape.
_NAMESPACE = {
    "__builtins__": {}, "TemplateError": TemplateError, "_step": _step,
    "_unknown": _unknown, "_other": _other, "_escape": escape,
    "_unsafe": re.compile("[&<>\"']").search,
    "_maps": frozenset((dict, MappingProxyType)),
    **{kind.__name__: kind for kind in (type, dict, bool, str, int, float)},
}


def _literal(expression: str) -> Any:
    """A quoted string or an integer, else ``_MISSING``."""
    if expression.startswith(("'", '"')) and expression.endswith(expression[0]):
        return expression[1:-1]
    try:
        return int(expression)
    except ValueError:
        return _MISSING


class _Writer:
    """Writes parsed nodes as the body of ``render(_c, _registry)``.

    ``loops`` maps each loop variable in scope to its local; ``scope``
    names the dict an include is rendered with: the context, or a loop's
    one copy of it."""

    def __init__(self) -> None:
        self.lines = ["def render(_c, _registry):", " _out = []", " _append = _out.append"]
        self.count = 0

    def fresh(self, stem: str) -> str:
        self.count += 1
        return f"_{stem}{self.count}"

    def expression(self, expression: str, loops: dict, pad: str) -> str:
        """Emit the lines resolving ``expression``; return what holds its value."""
        expression = expression.strip()
        literal = _literal(expression)
        if literal is not _MISSING:
            return repr(literal)
        head, *rest = expression.split(".")
        value = loops.get(head)
        if value is None:
            self.lines.append(f"{pad}_v = _c[{head!r}] if {head!r} in _c else _unknown({head!r})")
            value = "_v"
        for part in rest:
            self.lines.append(f"{pad}_v = {value}[{part!r}] if type({value}) in _maps and "
                              f"{part!r} in {value} else _step({value}, {part!r}, {head!r})")
            value = "_v"
        return value

    def block(self, nodes: list, loops: dict, scope: str, pad: str) -> None:
        start, parts = len(self.lines), []
        for node in nodes:
            if node[0] == "text":
                parts.append(repr(node[1]))
            elif node[0] == "value":
                parts.append(self.value(node[1], node[2], loops, pad))
            elif node[0] == "include":
                text = self.fresh("s")
                self.lines.append(f"{pad}{text} = _registry.render({node[1]!r}, {scope})")
                parts.append(f"f'{{{text}}}'")
            else:  # a control tag ends the run of parts
                self.flush(parts, pad)
                write = self.loop if node[0] == "for" else self.branch
                write(*node[1:], loops, scope, pad)
        self.flush(parts, pad)
        if len(self.lines) == start:
            self.lines.append(f"{pad}pass")

    def value(self, expression: str, escaped: bool, loops: dict, pad: str) -> str:
        """Emit the lines printing one ``{{ }}``; return its string token."""
        literal = _literal(expression.strip())
        if literal is not _MISSING:
            return repr(escape(literal) if escaped and type(literal) is str else str(literal))
        v, text = self.expression(expression, loops, pad), self.fresh("s")
        string = f"(_escape({v}) if _unsafe({v}) else {v})" if escaped else v
        self.lines.append(
            f"{pad}{text} = {string} if (_t := type({v})) is str else f'{{{v}}}' if _t is int "
            f"else f'{{{v}:.6g}}' if _t is float else '' if {v} is None "
            f"else _other({v}, {escaped})")
        return f"f'{{{text}}}'"

    def flush(self, parts: list, pad: str) -> None:
        if parts:
            self.lines.append(f"{pad}_append({' '.join(parts)})")
            parts.clear()

    def loop(self, variable: str, expression: str, body: list, loops: dict, scope: str,
             pad: str) -> None:
        items, item = self.expression(expression, loops, pad), self.fresh("l")
        # One scope copy per loop, and only if an include in the body reads it.
        copied = _includes(body)
        if copied:
            outer, scope = scope, self.fresh("scope")
            self.lines.append(f"{pad}{scope} = dict({outer})")
        self.lines.append(f"{pad}for {item} in {items}:")
        if copied:
            self.lines.append(f"{pad} {scope}[{variable!r}] = {item}")
        self.block(body, {**loops, variable: item}, scope, pad + " ")

    def branch(self, expression: str, then_body: list, else_body: list, loops: dict,
               scope: str, pad: str) -> None:
        self.lines.append(f"{pad}try:")
        value = self.expression(expression, loops, pad + " ")
        self.lines += [f"{pad} _b = bool({value})", f"{pad}except TemplateError:",
                       f"{pad} _b = False", f"{pad}if _b:"]
        self.block(then_body, loops, scope, pad + " ")
        if else_body:
            self.lines.append(f"{pad}else:")
            self.block(else_body, loops, scope, pad + " ")


def _includes(nodes: list) -> bool:
    """Whether an include is among ``nodes`` or in a body below them."""
    return any(node[0] == "include" or any(_includes(part) for part in node if type(part) is list)
               for node in nodes)


class Template:
    """A compiled template: stateless, so one serves every registry and
    thread."""

    def __init__(self, source: str):
        writer = _Writer()
        writer.block(self._parse(iter(_TAG_RE.split(source)), terminators=())[0], {}, "_c", " ")
        writer.lines.append(" return ''.join(_out)")
        namespace = dict(_NAMESPACE)
        exec(compile("\n".join(writer.lines), "<template>", "exec"), namespace)
        self._render = namespace["render"]

    def _parse(self, pieces, terminators) -> tuple[list, Optional[str]]:
        nodes: list = []
        for piece in pieces:
            if not piece:
                continue
            if piece.startswith("{{"):
                inner = piece[2:-2].strip()
                escaped = True
                if inner.endswith("|safe"):
                    inner = inner[:-5].strip()
                    escaped = False
                nodes.append(("value", inner, escaped))
            elif piece.startswith("{%"):
                tag = piece[2:-2].strip()
                if tag in terminators:
                    return nodes, tag
                if tag.startswith("for "):
                    match = re.match(r"for\s+(\w+)\s+in\s+(.+)", tag)
                    if not match:
                        raise TemplateError(f"bad for tag: {tag!r}")
                    body, terminator = self._parse(pieces, ("endfor",))
                    nodes.append(("for", match.group(1), match.group(2), body))
                elif tag.startswith("if "):
                    then_body, terminator = self._parse(pieces, ("else", "endif"))
                    else_body: list = []
                    if terminator == "else":
                        else_body, _terminator = self._parse(pieces, ("endif",))
                    nodes.append(("if", tag[3:], then_body, else_body))
                elif tag.startswith("include "):
                    nodes.append(("include", tag[8:].strip()))
                else:
                    raise TemplateError(f"unknown tag {tag!r}")
            else:
                nodes.append(("text", piece))
        if terminators:
            raise TemplateError(f"missing {'/'.join(terminators)}")
        return nodes, None

    def render(self, context: dict[str, Any], registry: Optional["TemplateRegistry"] = None) -> str:
        return self._render(context, registry or TemplateRegistry())


class TemplateRegistry:
    """Named templates so pages can be assembled from parts (§6.1)."""

    def __init__(self) -> None:
        self._templates: dict[str, Template] = {}

    def register(self, name: str, template: Union[str, Template]) -> None:
        """Register a source, compiling it, or an already compiled template."""
        self._templates[name] = template if isinstance(template, Template) else Template(template)

    def render(self, name: str, context: dict[str, Any]) -> str:
        template = self._templates.get(name)
        if template is None:
            raise TemplateError(f"unknown template {name!r}")
        return template._render(context, self)

    def __contains__(self, name: str) -> bool:
        return name in self._templates
