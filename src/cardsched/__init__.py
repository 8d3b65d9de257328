"""Cardinality-constrained makespan scheduling lab."""
