"""Check the traced layer numbers against the shape of ROADMAP's seed baseline.

    python3 perfbench/crosscheck.py

1. ``verify_bijections`` at n=2, m=40, self plus children, untraced and
   traced (ROADMAP: about 1.6 s on the seed).
2. ``bijections.psi.calls`` is twice the psi domain, the non-reduced proper
   walls, because ``psi_inv`` replays ``psi``.  The domain size comes from
   ``queries.Reference``, not from the package.
3. ``verify_euler`` grows faster than quadratically: log2 t(D) / t(D/2) > 2.
"""

from __future__ import annotations

import math
import time

from worker import EULER_DEGREE, load_program

N, MAX_M = 2, 40


def timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def main() -> int:
    load_program()
    import queries
    import tracer
    from youngwalls import verify
    from youngwalls.walls import WallParams

    params = WallParams(N)
    untraced = timed(verify.verify_bijections, params, MAX_M)
    trace = tracer.Tracer()
    trace.install()
    try:
        mark = trace.mark()
        verify.verify_bijections(params, MAX_M)
        layer = trace.summarize(mark)
    finally:
        trace.uninstall()
    inclusive = trace.span_end[0] - trace.span_start[0]
    print(f"verify_bijections n={N} m<={MAX_M}: {untraced:.3f} s untraced, "
          f"{inclusive:.3f} s traced (self {layer['verify.verify_bijections.self_s']:.3f} s)")

    ref = queries.Reference(MAX_M)
    domain = sum(ref.count("proper", N, m) - ref.count("reduced", N, m)
                 for m in range(MAX_M + 1))
    calls = layer["bijections.psi.calls"]
    print(f"bijections.psi.calls = {calls}, psi domain = {domain}, "
          f"ratio {calls / domain:.3f}")

    half = timed(verify.verify_euler, EULER_DEGREE // 2)
    full = timed(verify.verify_euler, EULER_DEGREE)
    exp = math.log2(full / half)
    print(f"verify_euler: {half:.3f} s at {EULER_DEGREE // 2}, {full:.3f} s at "
          f"{EULER_DEGREE}, growth exponent {exp:.2f}")
    ok = calls == 2 * domain and exp > 2
    print("shape matches" if ok else "shape DIFFERS")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
