"""ZLog: a high-performance distributed shared log (CORFU on Malacology).

The composition the paper builds in section 5.2:

* the **sequencer** is an inode of File Type ``sequencer`` — naming
  comes free from the POSIX hierarchy, serialization and caching from
  the capability system, recovery from the metadata service;
* the **storage interface** is the ``zlog`` object class (write-once,
  random-read, epoch-fenced log positions striped over RADOS objects);
* **epochs** live in the Service Metadata interface, so sealing
  propagates consistently to every client;
* **recovery** recomputes the sequencer from storage: bump the epoch,
  seal every stripe object (invalidating stale clients), take the max
  written position, and restart the counter above it.

On top of the log, :class:`TransactionalTable` is the one replica that
rebuilds state by replay (``ZLog.replay`` fills holes on the way): a
Tango-style replicated dictionary through ``blind_put`` / ``delete`` /
``get``, and optimistic-concurrency transactions through ``transact``.
"""

from repro.zlog.striping import StripeLayout
from repro.zlog.log import ZLog
from repro.zlog.recovery import recover_log
from repro.zlog.table import TransactionalTable

__all__ = [
    "StripeLayout",
    "ZLog",
    "recover_log",
    "TransactionalTable",
]
