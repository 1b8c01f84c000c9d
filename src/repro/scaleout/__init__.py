"""Multi-process scale-out: pre-fork serving and worker fleets.

The paper's argument — aggregate throughput scales only as far as the
shared resource allows — applies to the serving stack itself.  This
package takes the single-process service and job worker horizontal:

* :mod:`repro.scaleout.prefork` — ``serve --processes N``: N forked
  workers accepting on a shared listening socket (``SO_REUSEPORT``
  when the platform has it, inherited-fd fallback otherwise), each
  with its own response cache and solve memo;
* :mod:`repro.scaleout.fleet` — ``python -m repro.jobs.worker
  --processes N``: a fleet of competing lease claimers over one
  durable :class:`~repro.jobs.store.JobStore`.

See ``docs/SCALEOUT.md`` for the process model and what deliberately
stays per-process (admission control, circuit breakers, caches).

The package re-exports nothing: :mod:`repro.scaleout.prefork` imports
the service application, so import each submodule directly.
"""
