"""The paper's ``signal: modules`` netlist format (Figure 4 example).

Grammar (one statement per line)::

    # comment — ignored, as are blank lines
    <signal-name> : <module> <module> ...     # one net
    %module <module> weight=<float>           # optional module area

Signal names may carry a weight suffix ``(w)``, e.g. ``clk(4): 1 2 3``.
Module tokens that parse as integers become ``int`` labels (so the
paper's example round-trips with numeric modules); anything else stays a
string.

Example — the paper's 12-signal netlist::

    a: 1 2 11
    b: 2 4 11
    c: 1 3 4 12
    ...
"""

from __future__ import annotations

from pathlib import Path

from repro.core.hypergraph import Hypergraph, HypergraphError
from repro.io.errors import ParseError


class NetlistFormatError(ParseError):
    """Raised on malformed netlist text (with source/line context)."""


def _parse_module_token(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def parse_netlist(text: str) -> Hypergraph:
    """Parse netlist text into a :class:`Hypergraph`.

    Raises
    ------
    NetlistFormatError
        On duplicate signals, empty nets, or unparseable lines (with the
        1-based line number in the message).
    """
    h = Hypergraph()
    pending_weights: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("%module"):
            parts = line.split()
            if len(parts) != 3 or not parts[2].startswith("weight="):
                raise NetlistFormatError(
                    f"expected '%module <name> weight=<w>', got {raw!r}", line=lineno
                )
            module = _parse_module_token(parts[1])
            try:
                weight = float(parts[2][len("weight=") :])
            except ValueError:
                raise NetlistFormatError(f"bad weight in {raw!r}", line=lineno) from None
            pending_weights[module] = (weight, lineno)
            continue
        if ":" not in line:
            raise NetlistFormatError(
                f"expected '<signal>: <modules>', got {raw!r}", line=lineno
            )
        head, _, tail = line.partition(":")
        name = head.strip()
        weight = 1.0
        if name.endswith(")") and "(" in name:
            base, _, suffix = name.rpartition("(")
            try:
                weight = float(suffix[:-1])
            except ValueError:
                raise NetlistFormatError(
                    f"bad signal weight in {name!r}", line=lineno
                ) from None
            name = base.strip()
        if not name:
            raise NetlistFormatError("empty signal name", line=lineno)
        modules = [_parse_module_token(tok) for tok in tail.split()]
        if not modules:
            raise NetlistFormatError(f"signal {name!r} has no modules", line=lineno)
        if h.has_edge(name):
            raise NetlistFormatError(f"duplicate signal {name!r}", line=lineno)
        try:
            h.add_edge(modules, name=name, weight=weight)
        except HypergraphError as exc:
            raise NetlistFormatError(f"signal {name!r}: {exc}", line=lineno) from None

    for module, (weight, lineno) in pending_weights.items():
        try:
            h.add_vertex(module, weight)
        except HypergraphError as exc:
            raise NetlistFormatError(f"module {module!r}: {exc}", line=lineno) from None
    return h


def format_netlist(hypergraph: Hypergraph) -> str:
    """Serialize a hypergraph in the paper's netlist format (round-trips)."""
    lines = []
    for name in hypergraph.edge_names:
        weight = hypergraph.edge_weight(name)
        label = str(name) if weight == 1.0 else f"{name}({weight:g})"
        pins = " ".join(str(v) for v in sorted(hypergraph.edge_members(name), key=repr))
        lines.append(f"{label}: {pins}")
    for v in hypergraph.vertices:
        w = hypergraph.vertex_weight(v)
        if w != 1.0:
            lines.append(f"%module {v} weight={w:g}")
    return "\n".join(lines) + "\n"


def read_netlist(path: str | Path) -> Hypergraph:
    """Read a netlist file (see :func:`parse_netlist`).

    Parse failures re-raise with the filename attached, so the error
    reads ``<path>: line <n>: <problem>``.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        return parse_netlist(text)
    except NetlistFormatError as exc:
        raise exc.with_source(str(path)) from None


def write_netlist(hypergraph: Hypergraph, path: str | Path) -> None:
    """Write a netlist file (see :func:`format_netlist`)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_netlist(hypergraph))
