"""The repository's wall-clock benchmark: ``studio``, ``vod`` and
``catalog`` workloads, end-to-end and per-layer metrics."""
