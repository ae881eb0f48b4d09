"""``python -m repro.bench`` — regenerate every paper artifact.

Accepts the harness flags: ``--profile NAME``, ``--no-cache``,
``--clear-cache``.
"""

from repro.bench.harness import main

raise SystemExit(main())
