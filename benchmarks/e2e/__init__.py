"""The end-to-end benchmark series (see README.md in this directory)."""
