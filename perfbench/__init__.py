"""Host-throughput benchmark of the simulator; entry point ``perfbench/run.py``."""
