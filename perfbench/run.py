"""mpcc benchmark: compile and run one workload, check every output
against the AST interpreter, and print the metrics as JSON.

    python3 perfbench/run.py --workload shares-corpus --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout of mpcc; mpcc is imported from its src/.
The last line of output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1. The traced run also
writes its spans to .perfbench-out/. See perfbench/README.md.

Exit codes: 0 done; 2 mpcc or its reference interpreter cannot be
imported; 3 the input generator produced an out-of-contract reference
value (a benchmark bug); 4 two passes disagreed on a count.
"""

import time

T0 = time.perf_counter()  # set-up time starts before mpcc is imported

import sys  # noqa: E402

if __name__ == "__main__":
    try:
        import bench
    except ImportError as e:
        print(f"perfbench: cannot import mpcc and its reference interpreter:"
              f" {e}", file=sys.stderr)
        sys.exit(2)
    sys.exit(bench.main(sys.argv[1:], T0))
