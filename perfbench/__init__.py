"""Wall-clock benchmark of the JISC engine; see NOTES.md and run.py."""
