"""End-to-end benchmark for the sweep and service paths (see README.md)."""
