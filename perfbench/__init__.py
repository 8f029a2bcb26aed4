"""End-to-end and per-layer benchmark for Rehearsal (see README.md)."""
