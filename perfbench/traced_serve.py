"""``repro serve`` with the benchmark's layer spans installed.

Each job already runs under its own tracer inside the service, so the
spans land in the job's ``GET /jobs/<id>/trace`` document.  Takes the
same arguments as ``python -m repro serve``::

    python3 perfbench/traced_serve.py serve --port 0 --cache DIR
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from repro.study.cli import main  # noqa: E402

if __name__ == "__main__":
    layers.install()
    raise SystemExit(main(sys.argv[1:]))
