"""E24 — the wall-clock benchmark (see README.md in this directory)."""
