"""Entry point: ``python -m benchmarks.ledger`` or ``python benchmarks/ledger``.

Spawned pool workers import this module under another name, so everything
it does sits behind the ``__main__`` check.
"""

import os
import sys

if __name__ == "__main__":
    _ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    # The driver's command cannot set PYTHONPATH; spawned workers inherit
    # sys.path from this process.
    for _path in (os.path.join(_ROOT, "src"), _ROOT):
        if _path not in sys.path:
            sys.path.insert(0, _path)

    try:
        from benchmarks.ledger.driver import main
    except ModuleNotFoundError as error:
        # The ledger measures the repository around it: src/ and benchmarks/tpch.
        sys.exit(f"benchmarks.ledger needs a checkout of the whole repository: {error}")

    sys.exit(main())
