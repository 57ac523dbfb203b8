"""``repro.serve`` — the long-running sweep daemon and its clients.

Every sweep used to be a cold CLI process: ~1 s of interpreter start and
imports, then planner warm-up, all re-paid per invocation, each
process talking to its own private cache object.  The serve daemon is the
shared, persistent front end the ROADMAP's "heavy concurrent traffic"
direction asks for:

* **one warm process** owns a single :class:`~repro.bench.runner.cache.
  ResultCache`/:class:`~repro.bench.runner.store.ShardStore` plus the
  process-wide planner caches, and a resident worker pool whose forked
  workers stay warm across requests;
* **many concurrent clients** speak a newline-delimited-JSON socket
  protocol (TCP or unix socket; see :mod:`repro.serve.protocol`) and
  submit sweep requests — column specs, each a :class:`~repro.bench.
  runner.points.Point` spec without its size plus a list of sizes — that
  return results bit-identical to
  :meth:`~repro.bench.runner.pool.SweepRunner.run` on the same points;
  a request whose rows are all cached is answered from their stored
  encodings without suspending;
* **request coalescing**: two clients asking for overlapping columns
  await one in-flight evaluation through a per-column-key future table
  instead of evaluating twice (``tests/serve/`` pins the counter);
* **robustness first**: per-request timeouts with cancellation, a
  bounded admission gate with explicit ``overloaded`` backpressure
  errors, graceful shutdown that drains in-flight work and flushes
  buffered shards, and a ``stats`` request surfacing
  hit/miss/coalesce/inflight counters.

Run the daemon with ``python -m repro.serve`` and talk to it with
``python -m repro.serve.client`` (or :class:`SweepClient` in code).
The ``serve`` rows of ``BENCH_speed.json`` (``benchmarks/bench_speed.py``)
record a warm daemon's repeated column sweep against the ``auto`` rows'
cold in-process evaluation of the same column.
"""

from repro.serve.client import SweepClient, wait_until_ready
from repro.serve.daemon import SweepDaemon
from repro.serve.protocol import PROTOCOL_VERSION, ServeError, parse_address

__all__ = [
    "SweepDaemon",
    "SweepClient",
    "ServeError",
    "PROTOCOL_VERSION",
    "parse_address",
    "wait_until_ready",
]
