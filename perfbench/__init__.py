"""Campaign benchmark: see README.md."""
