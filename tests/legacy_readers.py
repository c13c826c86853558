"""The line- and regex-based readers that msograph used before every text
input went through the formula parser, kept as oracles for
tests/test_readers.py.  They are frozen: fix nothing here, since the
point is to compare the readers of the package against what these read.
"""

import re

from msograph.cli import UsageError
from msograph.interpret import Interpretation, InterpretationError
from msograph.logic import (LibraryError, PredicateLibrary, is_set_var,
                            parse_formula)

_DEF_RE = re.compile(r"^def\s+([a-z][A-Za-z0-9_']*)\s*\(([^)]*)\)\s*:=\s*(.*)$",
                     re.DOTALL)


def parse_library(text: str) -> PredicateLibrary:
    """Parse a library file: ``def name(x,y) := formula`` blocks."""
    # strip comments, then split into def blocks
    lines = [re.sub(r"#.*", "", line) for line in text.splitlines()]
    blocks: list[str] = []
    current: list[str] = []
    for line in lines:
        if line.lstrip().startswith("def "):
            if current:
                blocks.append("\n".join(current))
            current = [line]
        elif line.strip():
            if not current:
                raise LibraryError(f"content before first def: {line.strip()!r}")
            current.append(line)
    if current:
        blocks.append("\n".join(current))
    lib = PredicateLibrary()
    for block in blocks:
        m = _DEF_RE.match(block.strip())
        if m is None:
            raise LibraryError(f"malformed definition block: {block.strip()[:60]!r}")
        name, params_text, body_text = m.groups()
        params = tuple(p.strip() for p in params_text.split(",") if p.strip())
        body = parse_formula(body_text)
        lib.define(name, params, body)
    return lib


_HEADER_RE = re.compile(r"^params:\s*\[([^\]]*)\]\s*$")
_RULE_RE = re.compile(r"^(domain|edge)\s*\(([^)]*)\)\s*:=\s*(.*)$", re.DOTALL)


def parse_interpretation(text: str) -> Interpretation:
    """Parse an interpretation file.

    Layout: optional ``params: [Z1, Z2]`` header, inline ``def`` blocks,
    then ``domain(x) := ...`` and ``edge(x,y) := ...`` blocks.
    """
    lines = [re.sub(r"#.*", "", line) for line in text.splitlines()]
    params: tuple[str, ...] = ()
    blocks: list[list[str]] = []
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        m = _HEADER_RE.match(stripped)
        if m:
            params = tuple(p.strip() for p in m.group(1).split(",") if p.strip())
            continue
        if re.match(r"^(def |domain\s*\(|edge\s*\()", stripped):
            blocks.append([line])
        elif blocks:
            blocks[-1].append(line)
        else:
            raise InterpretationError(f"unexpected line: {stripped!r}")
    lib_blocks, domain_f, edge_f = [], None, None
    for block in blocks:
        joined = "\n".join(block).strip()
        m = _RULE_RE.match(joined)
        if m:
            which, _, body = m.groups()
            f = parse_formula(body)
            if which == "domain":
                domain_f = f
            else:
                edge_f = f
        else:
            lib_blocks.append(joined)
    if domain_f is None or edge_f is None:
        raise InterpretationError("file must define both domain and edge")
    lib = parse_library("\n".join(lib_blocks)) if lib_blocks else PredicateLibrary()
    return Interpretation(params, domain_f, edge_f, lib)


_ASSIGN_RE = re.compile(r"\s*(\w+)\s*=\s*(\{[^}]*\}|\d+)\s*$")


def parse_assignment(text: str) -> dict:
    """Parse ``x=3, Y={1,2}`` into a valuation dict."""
    out: dict = {}
    if not text.strip():
        return out
    # split on commas not inside braces
    parts, depth, cur = [], 0, ""
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    if cur.strip():
        parts.append(cur)
    for part in parts:
        m = _ASSIGN_RE.match(part)
        if not m:
            raise UsageError(f"bad assignment {part.strip()!r}; "
                             f"expected name=3 or Name={{1,2}}")
        name, val = m.groups()
        if val.startswith("{"):
            inner = val[1:-1].strip()
            out[name] = frozenset(int(x) for x in inner.split(",") if x.strip())
            if not is_set_var(name):
                raise UsageError(f"{name!r} gets a set but is lowercase; "
                                 f"set variables start uppercase")
        else:
            out[name] = int(val)
            if is_set_var(name):
                raise UsageError(f"{name!r} is a set variable but gets a vertex")
    return out
