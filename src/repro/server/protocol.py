"""The partition-service wire protocol: request parsing, keys, errors.

A service request is one JSON object::

    {
      "op": "partition",                  # or "place"
      "engine": "algorithm1",             # partition ops; "placer" for place
      "hypergraph": { ... },              # repro.io.json_io payload schema
      "settings": {"starts": 10, "seed": 0, ...}
    }

Parsing is **strict and typed**: every malformed body — invalid JSON,
wrong shapes, unknown engines, unknown settings keys, mistyped values —
raises :class:`RequestError`, a :class:`repro.io.errors.ParseError`
subclass carrying the same source/line-style context the file readers
produce (``request body: line 3: ...``).  The HTTP layer renders these
as structured ``400`` responses; a stack trace must never reach a
client.

Settings are *normalized* (defaults filled in, key order irrelevant)
before fingerprinting, so two requests that mean the same run produce
the same canonical settings dict — and therefore the same cache key:

``cache_key = <hypergraph content digest> ":" <settings fingerprint>``

where the digest is :func:`repro.core.digest` (shared with the journal
layer) and the fingerprint is
:func:`repro.runtime.settings_fingerprint` over ``{"op", "engine",
"settings"}`` — the exact result-affecting request identity, nothing
transport-level.

A body is decoded once, member by member (:func:`decode_members`), so
the parser knows the text of its ``"hypergraph"`` member.  The daemon's
:class:`~repro.server.cache.ResultCache` keys its hypergraph table by
that text's SHA-256, and the walk tries each member-text length the
table holds at the ``"hypergraph"`` member: a span whose hash is a table
key is that member, since a JSON object's extent is fixed by its own
text, so it is skipped without being decoded and its entry (digest,
pickle, verification view) is used as found.  Such a request costs one
hash of its member text: no ``Hypergraph`` is built, digested or
unpickled for it.  A member the table does not hold is decoded, built,
checked and digested, and its entry made and added.  Either way the
request holds the table's key and entry, never a ``Hypergraph``, and
crosses the pipe to a pool worker as the entry's pickle
(:mod:`repro.server.worker_table`).
"""

from __future__ import annotations

import hashlib
import json
import pickle
from collections.abc import Callable
from dataclasses import dataclass, field
from json.decoder import WHITESPACE, scanstring
from typing import Any, NamedTuple

from repro.core.digest import hypergraph_digest
from repro.engines import ALL_ENGINES, PLACERS, REFINERS
from repro.io.errors import ParseError
from repro.io.json_io import JsonFormatError, hypergraph_from_payload
from repro.metrics.verify import VerificationView
from repro.placement.mincut_placement import PARTITIONERS
from repro.runtime import settings_fingerprint
from repro.server.cache import HypergraphEntry, ResultCache

__all__ = [
    "OPS",
    "PLACERS",
    "Draining",
    "KnownMember",
    "Overloaded",
    "Quarantined",
    "RequestError",
    "ServiceRequest",
    "ServiceUnavailable",
    "canonical_bytes",
    "decode_members",
    "error_payload",
    "parse_request",
]

#: Operations the service executes.
OPS = ("partition", "place")

#: Where parse errors point when the problem is in the request body.
_SOURCE = "request body"

#: Hard ceiling on request body size — a malformed Content-Length or a
#: hostile client must not balloon the daemon.
MAX_REQUEST_BYTES = 64 << 20


class RequestError(ParseError):
    """A malformed service request (maps to a structured 400 response)."""


# ----------------------------------------------------------------------
# Overload-path rejections: the typed 429/503 hierarchy
# ----------------------------------------------------------------------


class ServiceUnavailable(RuntimeError):
    """Base of the overload-path rejections the daemon can issue.

    Every subclass names a *why* (``error_type``), an HTTP status, and
    optionally carries ``retry_after`` seconds — surfaced both in the
    JSON error body and as a ``Retry-After`` header so naive and smart
    clients alike learn when a retry is worth the bytes.  These are
    raised by the admission layer and the broker, never by workers:
    a :class:`ServiceUnavailable` means the request was **not executed**
    (and is therefore always safe to retry elsewhere).
    """

    error_type = "ServiceUnavailable"
    http_status = 503

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class Overloaded(ServiceUnavailable):
    """Admission control shed the request: in-flight/queue budget full."""

    error_type = "Overloaded"
    http_status = 429


class Draining(ServiceUnavailable):
    """The daemon is shutting down gracefully; not accepting new work."""

    error_type = "Draining"
    http_status = 503


class Quarantined(ServiceUnavailable):
    """The request's circuit breaker is open after repeated worker deaths."""

    error_type = "Quarantined"
    http_status = 503


@dataclass(frozen=True)
class ServiceRequest:
    """A validated, normalized request ready to execute or cache-probe.

    ``settings`` is the canonical JSON-ready dict (defaults filled in);
    ``digest``/``fingerprint`` are the two cache-key halves.

    ``hypergraph_key`` is the cache's hypergraph-table key (the SHA-256
    of the ``"hypergraph"`` member text) and ``entry`` the table's
    :class:`~repro.server.cache.HypergraphEntry` for it: the digest, the
    pickle a pool worker takes the hypergraph from (its
    :class:`~repro.server.worker_table.WorkerTable`) and the
    verification view the verify gate reads.  The request pickles
    without the view, which only the daemon reads.
    """

    op: str
    engine: str
    settings: dict
    fingerprint: str
    hypergraph_key: bytes
    entry: HypergraphEntry = field(compare=False, repr=False)

    @property
    def digest(self) -> str:
        return self.entry.digest

    @property
    def cache_key(self) -> str:
        return f"{self.digest}:{self.fingerprint}"

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["entry"] = self.entry._replace(view=None)
        return state


def canonical_bytes(obj: Any) -> bytes:
    """The one canonical JSON encoding (sorted keys, tight separators).

    Response bodies, cache entries, and fingerprints all round through
    this so byte-level identity comparisons are meaningful.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


# ----------------------------------------------------------------------
# Settings schemas: key -> (default, validator).  A validator returns the
# normalized value or raises RequestError.
# ----------------------------------------------------------------------


def _int_at_least(minimum: int):
    def check(key: str, value: Any) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise RequestError(
                f"settings.{key} must be an integer, got {value!r}", source=_SOURCE
            )
        if value < minimum:
            raise RequestError(
                f"settings.{key} must be >= {minimum}, got {value}", source=_SOURCE
            )
        return value

    return check


def _seed(key: str, value: Any) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise RequestError(
            f"settings.{key} must be an integer, got {value!r}", source=_SOURCE
        )
    return value


def _optional_positive_number(key: str, value: Any):
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
        raise RequestError(
            f"settings.{key} must be a positive number or null, got {value!r}",
            source=_SOURCE,
        )
    return float(value)


def _balance_tolerance(key: str, value: Any) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
        raise RequestError(
            f"settings.{key} must be a non-negative number, got {value!r}",
            source=_SOURCE,
        )
    return float(value)


def _choice(options: tuple[str, ...]):
    def check(key: str, value: Any) -> str:
        if value not in options:
            raise RequestError(
                f"settings.{key} must be one of {list(options)}, got {value!r}",
                source=_SOURCE,
            )
        return value

    return check


def _optional_refiner(key: str, value: Any):
    if value is None:
        return None
    if value not in REFINERS:
        raise RequestError(
            f"settings.{key} must be one of {list(REFINERS)} or null, got {value!r}",
            source=_SOURCE,
        )
    return value


# ``refine`` is part of this schema (and therefore of the normalized
# settings dict the cache fingerprints) so a refined result can never be
# served from an unrefined cache entry or vice versa.
_PARTITION_SETTINGS = {
    "starts": (10, _int_at_least(1)),
    "seed": (0, _seed),
    "balance_tolerance": (0.1, _balance_tolerance),
    "deadline_seconds": (None, _optional_positive_number),
    "refine": (None, _optional_refiner),
}

_PLACE_SETTINGS = {
    "rows": (0, _int_at_least(0)),
    "cols": (0, _int_at_least(0)),
    "partitioner": ("hybrid", _choice(PARTITIONERS)),
    "seed": (0, _seed),
    "deadline_seconds": (None, _optional_positive_number),
}


def _normalize_settings(op: str, raw: Any) -> dict:
    schema = _PARTITION_SETTINGS if op == "partition" else _PLACE_SETTINGS
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise RequestError(
            f"'settings' must be a JSON object, got {type(raw).__name__}",
            source=_SOURCE,
        )
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise RequestError(
            f"unknown settings key(s) {unknown} for op {op!r}; "
            f"known keys: {sorted(schema)}",
            source=_SOURCE,
        )
    normalized = {}
    for key, (default, validator) in schema.items():
        value = raw.get(key, default)
        normalized[key] = validator(key, value) if value is not default else default
    return normalized


# ----------------------------------------------------------------------
# Request parsing
# ----------------------------------------------------------------------

_DECODER = json.JSONDecoder()


class KnownMember(NamedTuple):
    """A ``"hypergraph"`` member :func:`decode_members` found in the table and skipped."""

    key: bytes
    entry: HypergraphEntry


def _known_member(
    text: str, start: int, lengths: tuple[int, ...], find: Callable
) -> tuple[KnownMember, int] | None:
    """``(member, end)`` when ``text[start:end]`` is a member text ``find`` knows.

    Each candidate ``end`` is ``start`` plus one of ``lengths``, tried
    only when the span starts with ``{`` and ends with ``}``; such a span
    is hashed and looked up.  A stored member text is a JSON object, and
    an object's extent is fixed by its own text, so a span equal to one
    is the member ``raw_decode`` would have decoded there.
    """
    if text[start : start + 1] != "{":
        return None
    for length in lengths:
        end = start + length
        if text[end - 1 : end] == "}":
            key = hashlib.sha256(text[start:end].encode("utf-8")).digest()
            entry = find(key)
            if entry is not None:
                return KnownMember(key, entry), end
    return None


def decode_members(
    text: str, lengths: tuple[int, ...] = (), find: Callable | None = None
) -> tuple[dict, dict[str, tuple[int, int]]] | None:
    """``(payload, spans)`` of a JSON object body, or None for any other text.

    ``payload`` is what ``json.loads(text)`` returns, and ``spans`` maps
    each key to the ``text[start:end]`` span of its value (the last one,
    for a repeated key, as its value is).  The walk reads the top-level
    members with ``json.loads``'s own whitespace, key scanner and value
    decoder, so it takes exactly the object bodies ``json.loads`` takes;
    for anything else (another JSON value, malformed JSON, trailing
    data) it returns None and the caller asks ``json.loads``, whose
    error is the one to report.

    ``lengths`` and ``find`` are the hypergraph table's member-text
    lengths and its lookup by key.  At the body's first ``"hypergraph"``
    member the walk tries each length (:func:`_known_member`); a member
    the table holds is not decoded, and its payload value is the
    :class:`KnownMember` found.  The rest of the body is walked as
    without them.
    """
    skip = WHITESPACE.match
    payload: dict = {}
    spans: dict[str, tuple[int, int]] = {}
    pos = skip(text).end()
    if text[pos : pos + 1] != "{":
        return None
    pos = skip(text, pos + 1).end()
    try:
        if text[pos : pos + 1] == "}":
            pos = skip(text, pos + 1).end()
        else:
            while True:
                if text[pos : pos + 1] != '"':
                    return None
                key, pos = scanstring(text, pos + 1)
                pos = skip(text, pos).end()
                if text[pos : pos + 1] != ":":
                    return None
                start = skip(text, pos + 1).end()
                known = None
                if key == "hypergraph" and lengths:
                    known = _known_member(text, start, lengths, find)
                    lengths = ()  # one try per body
                if known is not None:
                    payload[key], pos = known
                else:
                    payload[key], pos = _DECODER.raw_decode(text, start)
                spans[key] = (start, pos)
                pos = skip(text, pos).end()
                separator = text[pos : pos + 1]
                pos = skip(text, pos + 1).end()
                if separator == "}":
                    break
                if separator != ",":
                    return None
    except json.JSONDecodeError:
        return None
    if pos != len(text):
        return None
    return payload, spans


def parse_request(
    raw: bytes, expected_op: str | None = None, *, hypergraphs: ResultCache
) -> ServiceRequest:
    """Validate a request body into a :class:`ServiceRequest`.

    ``expected_op`` pins the op for the per-op endpoints (``POST
    /partition`` must not smuggle a place request); the generic ``POST
    /`` endpoint passes ``None``.  Every failure raises
    :class:`RequestError` with request-body context — never a bare
    ``KeyError``/``ValueError`` and never a traceback-worthy internal
    error.

    ``hypergraphs``, the daemon's cache, keys its hypergraph table by
    the SHA-256 of the ``"hypergraph"`` member's text: a member the walk
    finds there is used as found, with no decode, build, digest or
    unpickle.  A member it does not hold is built, checked and digested,
    and its entry (pickle and verification view) made and added.  The
    table changes only once the whole request has passed: the entry is
    added, or a hit counted and refreshed in LRU order, so a refused
    request leaves it as it was.
    """
    if len(raw) > MAX_REQUEST_BYTES:
        raise RequestError(
            f"request body of {len(raw)} bytes exceeds the "
            f"{MAX_REQUEST_BYTES}-byte limit",
            source=_SOURCE,
        )
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RequestError(f"body is not valid UTF-8: {exc}", source=_SOURCE) from None
    decoded = decode_members(
        text, hypergraphs.hypergraph_lengths(), hypergraphs.find_hypergraph
    )
    if decoded is None:
        # The walk takes exactly the object bodies json.loads takes, so
        # json.loads either fails or returns some other value.
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RequestError(
                f"invalid JSON: {exc.msg}", source=_SOURCE, line=exc.lineno
            ) from None
        raise RequestError(
            f"request must be a JSON object, got {type(payload).__name__}",
            source=_SOURCE,
        )
    payload, spans = decoded

    op = payload.get("op")
    if op is None and expected_op is not None:
        op = expected_op
    if op not in OPS:
        raise RequestError(
            f"unknown op {op!r}; choose from {list(OPS)}", source=_SOURCE
        )
    if expected_op is not None and op != expected_op:
        raise RequestError(
            f"op {op!r} does not match the /{expected_op} endpoint", source=_SOURCE
        )

    unknown_top = sorted(
        set(payload) - {"op", "engine", "placer", "hypergraph", "settings"}
    )
    if unknown_top:
        raise RequestError(
            f"unknown request key(s) {unknown_top}; "
            "known keys: ['engine', 'hypergraph', 'op', 'placer', 'settings']",
            source=_SOURCE,
        )

    if op == "partition":
        if "placer" in payload:
            raise RequestError(
                "'placer' is a place-op key; partition requests take 'engine'",
                source=_SOURCE,
            )
        engine = payload.get("engine", "algorithm1")
        if engine not in ALL_ENGINES:
            raise RequestError(
                f"unknown engine {engine!r}; choose from {list(ALL_ENGINES)}",
                source=_SOURCE,
            )
    else:
        if "engine" in payload:
            raise RequestError(
                "'engine' is a partition-op key; place requests take 'placer'",
                source=_SOURCE,
            )
        engine = payload.get("placer", "mincut")
        if engine not in PLACERS:
            raise RequestError(
                f"unknown placer {engine!r}; choose from {list(PLACERS)}",
                source=_SOURCE,
            )

    if "hypergraph" not in payload:
        raise RequestError("request is missing the 'hypergraph' key", source=_SOURCE)
    member = payload["hypergraph"]
    if isinstance(member, KnownMember):
        key, entry = member
    else:
        start, end = spans["hypergraph"]
        key = hashlib.sha256(text[start:end].encode("utf-8")).digest()
        entry = hypergraphs.find_hypergraph(key)
    if entry is None:
        try:
            hypergraph = hypergraph_from_payload(member)
        except JsonFormatError as exc:
            raise RequestError(
                f"hypergraph: {exc.message}", source=_SOURCE, line=exc.line
            ) from None
        if hypergraph.num_vertices < 2:
            raise RequestError(
                f"hypergraph has {hypergraph.num_vertices} vertex(es); "
                "partitioning needs at least 2",
                source=_SOURCE,
            )

    settings = _normalize_settings(op, payload.get("settings"))

    if entry is None:
        entry = HypergraphEntry(
            hypergraph_digest(hypergraph),
            pickle.dumps(hypergraph, pickle.HIGHEST_PROTOCOL),
            VerificationView(hypergraph),
            end - start,
        )
        hypergraphs.put_hypergraph(key, entry)
    else:
        hypergraphs.count_hypergraph_hit(key)
    fingerprint = settings_fingerprint(
        {"op": op, "engine": engine, "settings": settings}
    )
    return ServiceRequest(
        op=op,
        engine=engine,
        settings=settings,
        fingerprint=fingerprint,
        hypergraph_key=key,
        entry=entry,
    )


def error_payload(exc: Exception, *, error_type: str | None = None) -> dict:
    """The structured error body for a failed request.

    :class:`ParseError` context (source, line) is carried through so a
    client sees exactly what a CLI user would: the typed class name, the
    bare message, and where in the body the problem sits.
    """
    if isinstance(exc, ParseError):
        return {
            "error": {
                "type": error_type or type(exc).__name__,
                "message": exc.message,
                "source": exc.source,
                "line": exc.line,
            }
        }
    if isinstance(exc, ServiceUnavailable):
        return {
            "error": {
                "type": error_type or exc.error_type,
                "message": str(exc),
                "source": None,
                "line": None,
                "retry_after": exc.retry_after,
            }
        }
    return {
        "error": {
            "type": error_type or type(exc).__name__,
            "message": str(exc),
            "source": None,
            "line": None,
        }
    }
