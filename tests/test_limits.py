import ast
import random
import re
import time
from importlib import resources

import pytest

from filtropt import (cardinal_counts, count_filters, cosets_up_to_weight, enumerate_filters,
                      limits, nfm, nk, pr_report, random_filter, run_exhaustive)
from filtropt.anf import census_size
from filtropt.experiment import check_run

CAPS = {"ENUMERATION_CAP", "CENSUS_BLOCK_BITS", "ENUMERATION_MAX_L", "MAX_REPORT_KL",
        "EXACT_NK_BIT_CAP", "MAX_DIGITS", "LC_MAX_BITS", "SEED_LIMIT", "VECTOR_CACHE_BYTES"}


def test_each_cap_is_assigned_in_one_module():
    homes = {}
    for path in resources.files("filtropt").iterdir():
        if path.name.endswith(".py"):
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                targets = node.targets if isinstance(node, ast.Assign) else [
                    getattr(node, "target", None)]
                for t in targets:
                    if isinstance(t, ast.Name) and (t.id in CAPS or t.id == "DESK_MAX_L"):
                        homes.setdefault(t.id, []).append(path.name)
    assert homes == {name: ["limits.py"] for name in CAPS} | {"DESK_MAX_L": ["field.py"]}
    assert limits.DESK_MAX_L == 16


ORDER_CHECKED = [count_filters, cosets_up_to_weight, nk, cardinal_counts, nfm, pr_report,
                 limits.check_exact,
                 lambda L, k: random_filter(L, k, random.Random(0)),
                 lambda L, k: check_run(L, k, 1),
                 lambda L, k: check_run(L, k, 1, 5, 0)]


@pytest.mark.parametrize("L, k", [(1, 1), (0, 0), (-3, 1), (5, 0), (5, 6), (2, -1)])
def test_every_entry_point_gives_the_one_order_message(L, k):
    for entry in ORDER_CHECKED:
        with pytest.raises(ValueError, match=re.escape(
                f"need 2 <= L and 1 <= k <= L, got L={L}, k={k}")):
            entry(L, k)


def test_a_count_past_the_exact_bit_cap_is_refused_before_it_is_built():
    # the count's bit length is nk(L, k): 2^20 - 1 at (21, 10), the widest
    # admitted, and 2^20 + C(21, 11) - 1 at (21, 11), which used to be built
    assert count_filters(21, 10).bit_length() == limits.EXACT_NK_BIT_CAP - 1
    builders = [limits.check_exact, count_filters, census_size,
                lambda L, k: check_run(L, k, 1), run_exhaustive,
                lambda L, k: next(enumerate_filters(L, k)),
                lambda L, k: random_filter(L, k, random.Random(0))]
    for L, k in [(21, 11), (40, 20), (10 ** 9, 10 ** 8)]:
        for entry in builders:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"more than {limits.EXACT_NK_BIT_CAP} bits"):
                entry(L, k)
            assert time.perf_counter() - start < 0.1


def test_report_cap_is_checked_after_the_order():
    limits.check_report(10 ** 5, 10 ** 5)  # k * L at the cap is admitted
    with pytest.raises(ValueError, match="report cap"):
        limits.check_report(10 ** 5 + 1, 10 ** 5)
    with pytest.raises(ValueError, match="got L=1000000, k=10000000"):
        limits.check_report(10 ** 6, 10 ** 7)
