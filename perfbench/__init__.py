"""The repository's seeded end-to-end benchmark (see README.md)."""
