"""Frozen copy of the se3shell solver modules, as the benchmark was first made.

The modules and the scenario files are byte-for-byte copies of
``src/se3shell`` at that time; only this file is new.  They are the fixed
reference work of ``probe.py``, which measures how fast the machine is while
the benchmark runs.  Never edit them: a change here changes every
normalized time the benchmark reports.  The package keeps relative imports
only, so it loads next to the real ``se3shell`` without touching it.
"""
