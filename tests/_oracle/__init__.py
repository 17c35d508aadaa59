"""Reference implementations the test suite compares production against.

Nothing under ``src/`` imports from here (``tests/test_codec_sweep.py``
keeps it that way).
"""
