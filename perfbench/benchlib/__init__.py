"""The NL2CM benchmark's parts: load generation, tracing, references
and the four workloads."""
