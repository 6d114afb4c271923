"""RADOS: the reliable autonomous distributed object store.

The durability substrate of the stack (paper section 4.4): replicated
object storage daemons with peer-to-peer map gossip, autonomous failure
detection and recovery, background scrub, and server-side object
interface classes (the Data I/O interface).
"""

from repro.rados.client import RadosClient
from repro.rados.objects import StoredObject
from repro.rados.ops import apply_ops
from repro.rados.osd import OSD
from repro.rados.placement import acting_set, locate, pg_of

__all__ = [
    "RadosClient",
    "StoredObject",
    "apply_ops",
    "OSD",
    "acting_set",
    "locate",
    "pg_of",
]
