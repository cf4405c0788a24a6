"""hMETIS ``.hgr`` hypergraph files — the standard partitioning interchange.

Format (hMETIS manual):

* Header: ``<num_edges> <num_vertices> [fmt]`` where ``fmt`` is ``1``
  (edge weights), ``10`` (vertex weights), ``11`` (both) or absent.
* One line per hyperedge: ``[weight] v1 v2 ...`` with 1-based vertex ids.
* With vertex weights: ``num_vertices`` further lines, one weight each.
* ``%``-prefixed lines are comments anywhere in the body.

Reading produces integer vertex labels ``1..n`` and edge names
``net1..netm`` (hMETIS edges are anonymous; stable names keep the rest of
the library happy).  Writing maps arbitrary labels onto ``1..n`` in
sorted-repr order and returns that mapping.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.hypergraph import Hypergraph, HypergraphError
from repro.io.errors import ParseError


class HgrFormatError(ParseError):
    """Raised on malformed ``.hgr`` content (with source/line context)."""


def _sorted_labels(labels):
    """Labels in natural order when mutually comparable, repr order otherwise.

    Integer labels ``1..n`` must map onto hMETIS ids ``1..n`` identically:
    sorting by ``repr`` would interleave ``1, 10, 11, ..., 2`` and permute
    the labels on every write, so parse -> format would never reach a
    fixed point.
    """
    labels = list(labels)
    try:
        return sorted(labels)
    except TypeError:
        return sorted(labels, key=repr)


def parse_hgr(text: str) -> Hypergraph:
    """Parse hMETIS text into a :class:`Hypergraph`.

    Raises :class:`HgrFormatError` on malformed content; the error's
    ``line`` attribute (and message) carries the 1-based line number in
    the *original* text, counting comment and blank lines.
    """
    numbered = [
        (lineno, line.strip())
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("%")
    ]
    if not numbered:
        raise HgrFormatError("empty .hgr content")
    header_lineno, header_line = numbered[0]
    header = header_line.split()
    if len(header) not in (2, 3):
        raise HgrFormatError(
            f"bad header {header_line!r}: expected 'E V [fmt]'", line=header_lineno
        )
    try:
        num_edges, num_vertices = int(header[0]), int(header[1])
    except ValueError:
        raise HgrFormatError(
            f"non-integer header {header_line!r}", line=header_lineno
        ) from None
    fmt = header[2] if len(header) == 3 else "0"
    if fmt not in ("0", "1", "10", "11"):
        raise HgrFormatError(f"unknown fmt code {fmt!r}", line=header_lineno)
    has_edge_weights = fmt in ("1", "11")
    has_vertex_weights = fmt in ("10", "11")

    expected = num_edges + (num_vertices if has_vertex_weights else 0)
    body = numbered[1:]
    if len(body) < expected:
        raise HgrFormatError(
            f"expected {expected} body lines ({num_edges} edges"
            + (f" + {num_vertices} vertex weights" if has_vertex_weights else "")
            + f"), found {len(body)}"
        )

    h = Hypergraph(vertices=range(1, num_vertices + 1))
    for i in range(num_edges):
        lineno, content = body[i]
        tokens = content.split()
        if has_edge_weights:
            if len(tokens) < 2:
                raise HgrFormatError(
                    f"edge line {i + 1}: weight plus at least one pin required",
                    line=lineno,
                )
            try:
                weight = float(tokens[0])
            except ValueError:
                raise HgrFormatError(
                    f"edge line {i + 1}: bad weight {tokens[0]!r}", line=lineno
                ) from None
            pin_tokens = tokens[1:]
        else:
            weight = 1.0
            pin_tokens = tokens
        try:
            pins = [int(t) for t in pin_tokens]
        except ValueError:
            raise HgrFormatError(
                f"edge line {i + 1}: non-integer pin in {content!r}", line=lineno
            ) from None
        bad = [p for p in pins if not 1 <= p <= num_vertices]
        if bad:
            raise HgrFormatError(
                f"edge line {i + 1}: pins out of range: {bad}", line=lineno
            )
        if not pins:
            raise HgrFormatError(f"edge line {i + 1}: empty hyperedge", line=lineno)
        try:
            h.add_edge(pins, name=f"net{i + 1}", weight=weight)
        except HypergraphError as exc:
            raise HgrFormatError(f"edge line {i + 1}: {exc}", line=lineno) from None

    if has_vertex_weights:
        for j in range(num_vertices):
            lineno, content = body[num_edges + j]
            try:
                w = float(content)
            except ValueError:
                raise HgrFormatError(
                    f"vertex weight line {j + 1}: not a number", line=lineno
                ) from None
            try:
                h.set_vertex_weight(j + 1, w)
            except HypergraphError as exc:
                raise HgrFormatError(
                    f"vertex weight line {j + 1}: {exc}", line=lineno
                ) from None
    return h


def format_hgr(hypergraph: Hypergraph) -> tuple[str, dict]:
    """Serialize to hMETIS text; returns ``(text, label -> 1-based-id map)``.

    Weights are emitted only when any differ from 1 (choosing the
    minimal ``fmt`` code).
    """
    vertices = _sorted_labels(hypergraph.vertices)
    index = {v: i + 1 for i, v in enumerate(vertices)}
    edge_names = hypergraph.edge_names

    has_edge_weights = any(hypergraph.edge_weight(e) != 1.0 for e in edge_names)
    has_vertex_weights = any(hypergraph.vertex_weight(v) != 1.0 for v in vertices)
    fmt = {(False, False): "", (True, False): " 1", (False, True): " 10", (True, True): " 11"}[
        (has_edge_weights, has_vertex_weights)
    ]

    lines = [f"{len(edge_names)} {len(vertices)}{fmt}"]
    for name in edge_names:
        pins = " ".join(str(index[v]) for v in _sorted_labels(hypergraph.edge_members(name)))
        if has_edge_weights:
            lines.append(f"{hypergraph.edge_weight(name):g} {pins}")
        else:
            lines.append(pins)
    if has_vertex_weights:
        lines.extend(f"{hypergraph.vertex_weight(v):g}" for v in vertices)
    return "\n".join(lines) + "\n", index


def read_hgr(path: str | Path) -> Hypergraph:
    """Read an hMETIS ``.hgr`` file.

    Parse failures re-raise with the filename attached, so the error
    reads ``<path>: line <n>: <problem>``.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        return parse_hgr(text)
    except HgrFormatError as exc:
        raise exc.with_source(str(path)) from None


def write_hgr(hypergraph: Hypergraph, path: str | Path) -> dict:
    """Write an hMETIS ``.hgr`` file; returns the label -> id mapping."""
    text, index = format_hgr(hypergraph)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return index
