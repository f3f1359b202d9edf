"""Make ``src`` and the benchmark's own modules importable for its tests.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q``; the
directory is outside tier-1's ``testpaths`` on purpose.
"""

import os
import sys

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(E2E))
for path in (os.path.join(ROOT, "src"), E2E):
    if path not in sys.path:
        sys.path.insert(0, path)
