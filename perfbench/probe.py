"""Set-up probe: time what one workload does before its first pass.

Runs in a fresh interpreter, so the imports are cold.  Prints the
seconds from its first statement until the workload's imports are
done, in reference seconds (see ``calibrate.py``).  ``run.py``
starts it several times and reports the median as ``setup_s``.

    python3 perfbench/probe.py --workload runtime-cache --work-dir DIR
"""

import time

_STARTED = time.perf_counter()

import calibrate  # noqa: E402

_SPEED = calibrate.SpeedSampler().start()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work-dir", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(Path.cwd() / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.work_dir, args.seed, args.tiny)
    workload.probe_setup()
    elapsed = time.perf_counter() - _STARTED
    # Reported in reference seconds, like every other timing.
    scale = _SPEED.scale_since(0)
    _SPEED.stop()
    print(repr(elapsed * scale))
    return 0


if __name__ == "__main__":
    sys.exit(main())
