"""``repro.server`` — partition-as-a-service.

A long-running daemon (``repro-partition serve``) that accepts
partition/place requests as JSON over HTTP (TCP or a local ``AF_UNIX``
socket), executes them on a shared supervised worker pool with
per-request deadlines and memory budgets, runs distinct requests on
every worker at once, coalesces identical in-flight ones, and caches
completed results content-addressed by ``(hypergraph digest, settings
fingerprint)``.

Pieces:

* :mod:`repro.server.protocol` — request parsing/validation (typed
  :class:`~repro.server.protocol.RequestError`), cache keys, canonical
  byte encoding.
* :mod:`repro.server.cache` — LRU + max-bytes content-addressed result
  cache.
* :mod:`repro.server.batching` — the request broker (one dispatcher
  per worker, in-flight dedupe, bounded dispatch queue).
* :mod:`repro.server.admission` — overload guards: the bounded
  in-flight :class:`~repro.server.admission.AdmissionController` and
  the poisoned-request
  :class:`~repro.server.admission.QuarantineBreaker`.
* :mod:`repro.server.persist` — the crash-recoverable state store
  (:class:`~repro.server.persist.StateStore`): cache entries and
  quarantine records spilled to an append-only log under
  ``--state-dir`` and rehydrated on restart.
* :mod:`repro.server.app` — the daemon itself
  (:class:`~repro.server.app.PartitionService`), including the boundary
  integrity gate (results re-verified before being cached, persisted,
  or served).
* :mod:`repro.server.client` — a small blocking client
  (:class:`~repro.server.client.ServiceClient`), single daemon or a
  health-checked failover set (``endpoints=[...]``).

See ``docs/SERVICE.md`` for the protocol, cache-key semantics, degraded
responses, persistence/failover, and deployment knobs.
"""

from repro.server.admission import AdmissionController, QuarantineBreaker
from repro.server.app import PartitionService, ServiceConfig, ServiceError
from repro.server.batching import RequestBroker
from repro.server.cache import ResultCache
from repro.server.persist import StateStore, StateStoreError
from repro.server.client import (
    ServiceClient,
    ServiceClientError,
    ServiceConnectionError,
    ServiceResponseError,
)
from repro.server.protocol import (
    Draining,
    Overloaded,
    Quarantined,
    RequestError,
    ServiceRequest,
    ServiceUnavailable,
    canonical_bytes,
    error_payload,
    parse_request,
)

__all__ = [
    "AdmissionController",
    "Draining",
    "Overloaded",
    "PartitionService",
    "Quarantined",
    "QuarantineBreaker",
    "RequestBroker",
    "RequestError",
    "ResultCache",
    "ServiceClient",
    "ServiceClientError",
    "ServiceConfig",
    "ServiceConnectionError",
    "ServiceError",
    "ServiceRequest",
    "ServiceResponseError",
    "ServiceUnavailable",
    "StateStore",
    "StateStoreError",
    "canonical_bytes",
    "error_payload",
    "parse_request",
]
