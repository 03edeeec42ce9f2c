"""Time one cold set-up in a fresh interpreter and print it as JSON.

    python3 perfbench/setup_probe.py <L> <with_cosets 0|1>

Set-up is what every run pays before its first op: importing filtropt,
building the field context for L, the window table over one period and,
for the explain workload, the full coset table that the DFT walks.
"""
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    L, with_cosets = int(sys.argv[1]), sys.argv[2] == "1"
    t0 = time.perf_counter()
    import filtropt  # noqa: F401  (the cold import is what is timed)
    from filtropt import cosets, lfsr, polytable
    t1 = time.perf_counter()
    ctx = polytable.context_for(L)
    t2 = time.perf_counter()
    lfsr.window_table(ctx)
    t3 = time.perf_counter()
    if with_cosets:
        cosets.cosets_up_to_weight(L, L)
    t4 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "context_s": t2 - t1,
                      "window_table_s": t3 - t2, "cosets_s": t4 - t3,
                      "total_s": t4 - t0, "module": filtropt.__file__}))


if __name__ == "__main__":
    main()
