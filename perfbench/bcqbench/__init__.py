"""The repository benchmark: workloads, load generator, tracing and statistics."""
