"""Seeded cross-rank-communication violation fixtures.

Each module here is a runnable ``LocalTransport.launch`` worker whose
seeded bug ``REPRO_SANITIZE=schedule`` must catch
(``tests/analysis/test_schedule_sanitizer.py``).  The ``clean_twins``
module holds the matched negative controls.
"""
