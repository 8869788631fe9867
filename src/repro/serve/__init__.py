"""repro.serve — the long-lived campaign master and its thin clients.

Every ``repro campaign`` used to pay the full warm-up cost — fork a
pool, prime the steppers — and take its warm fleet to the grave with
the CLI process.  This package keeps the fleet alive: ``repro serve``
starts a **master** daemon that owns the process-wide
:class:`~repro.perf.service.ExecutionService` (persistent pre-warmed
:class:`~repro.campaign.pool.WorkerPool`, disk-cached steppers)
and serves it to any number of submitters over a local Unix socket:

* :mod:`repro.serve.protocol` — the line-delimited JSON RPC: strict
  framing, structured errors, fuzz-hardened parsing;
* :mod:`repro.serve.scheduler` — persistent run records, monotonic
  run-id allocation, and the ARTIQ-style priority queue (higher
  priority first, submission order within a priority);
* :mod:`repro.serve.master` — the daemon: accepts clients, executes
  one run at a time over the shared pool, streams result rows to
  subscribers, survives client death / worker death / its own
  restart;
* :mod:`repro.serve.client` — the thin client behind ``repro
  submit``, ``repro queue``, ``repro cancel``, and ``repro watch``'s
  live-socket mode.

Determinism is inherited, not reimplemented: the master routes every
run through :func:`repro.campaign.run_campaign` with the run's own
store as its resume source, so a campaign submitted through the
master — cancelled, requeued, resumed across a master restart,
sharded over a dying pool — produces the same per-point rows as
``repro campaign`` run directly.
"""

from repro.serve.client import (ServeClient, ServeError, find_socket,
                                server_available)
from repro.serve.master import Master, contact_path, read_contact
from repro.serve.protocol import (MAX_LINE_BYTES, PROTOCOL_SCHEMA,
                                  LineReader, ProtocolError)
from repro.serve.scheduler import (RidCounter, RunRecord, RunRegistry,
                                   Scheduler, default_state_dir)

__all__ = [
    "MAX_LINE_BYTES",
    "PROTOCOL_SCHEMA",
    "LineReader",
    "Master",
    "ProtocolError",
    "RidCounter",
    "RunRecord",
    "RunRegistry",
    "Scheduler",
    "ServeClient",
    "ServeError",
    "contact_path",
    "default_state_dir",
    "find_socket",
    "read_contact",
    "server_available",
]
