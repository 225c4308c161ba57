"""Figure and table reproduction benchmarks (see README.md for the index)."""
