"""Set-up probe, run in a fresh interpreter: `import numpy`, the rest of
`import eslc.cli`, and the first `loader.load_prelude()`, as every `eslc`
command does before its work.  Prints the three durations in seconds on
one line once ready."""

import sys
import time

t0 = time.perf_counter()
import numpy  # noqa: E402,F401
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import eslc.cli  # noqa: E402,F401
t2 = time.perf_counter()
from eslc import loader  # noqa: E402
loader.load_prelude()
t3 = time.perf_counter()
print(f"{t1 - t0!r} {t2 - t1!r} {t3 - t2!r}", flush=True)
