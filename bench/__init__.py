"""End-to-end benchmark of the SurgeGuard reproduction (see README.md)."""
