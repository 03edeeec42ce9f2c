"""Every cross-check is live: one planted fault per row, and the check that catches it.

Each row patches one function from outside, runs one CLI command in-process
and asserts its exit code (2: a run failed its comparison with the analytic
prediction, 3: an internal self-check fired) and what the failing check
says.  No row is expected to survive: a fault that no check sees belongs in
ROADMAP.md with the item that will make it catchable.
"""
import pytest

from filtropt import cli, cosets, experiment, likelihood, spectral

# order 2 at prime L = 7: every line has cardinal 7 and period 127
ANALYZE = ["analyze", "-L", "7", "--filter", "x0*x1 + x2 + x4*x5"]


def _drop_top_line(dft):
    def mutant(z, ctx):
        s = dft(z, ctx)
        return spectral.Spectrum(ctx, {j: line for j, line in s.lines.items()
                                       if j != max(s.lines)})
    return mutant


def _move_top_line_to_weight_4(dft):
    # same cardinal and period, so lc and period cannot see the move
    def mutant(z, ctx):
        s = dft(z, ctx)
        top = max(s.lines)
        spare = next(c for c in cosets.cosets_up_to_weight(ctx.L, 4) if c.weight == 4)
        lines = {j: line for j, line in s.lines.items() if j != top}
        lines[spare.leader] = spectral.SpectralLine(spare, s.lines[top].coefficient)
        return spectral.Spectrum(ctx, lines)
    return mutant


def _plus_one(fn):
    return lambda *args: fn(*args) + 1


ROUTES = "internal error: measured (lc, period) = "
EXACT_VS_LOG = "internal error: exact and log-domain evaluations disagree\n"

ROWS = [
    pytest.param(spectral, "dft", _drop_top_line, ANALYZE, 3,
                 ROUTES + "(28, 127) but the spectrum gives (21, 127)\n",
                 id="dft-drops-top-line-analyze"),
    pytest.param(spectral, "dft", _move_top_line_to_weight_4, ANALYZE, 3,
                 "internal error: a spectral line lies above weight 2, the filter's order\n",
                 id="dft-moves-top-line-to-weight-4-analyze"),
    pytest.param(experiment, "periodic_lc_packed", _plus_one, ANALYZE, 3,
                 ROUTES + "(29, 127) but the spectrum gives (28, 127)\n",
                 id="lc-plus-one-analyze"),
    pytest.param(experiment, "periodic_lc_packed", _plus_one,
                 ["enumerate", "-L", "7", "-k", "1"], 2, '"exact_match": false',
                 id="lc-plus-one-census-l7"),
    pytest.param(experiment, "periodic_lc_packed", _plus_one,
                 ["enumerate", "-L", "4", "-k", "2"], 3, "internal error: word kernels give",
                 id="lc-plus-one-census-l4-spot-check"),
    pytest.param(likelihood, "nfm", _plus_one, ["enumerate", "-L", "4", "-k", "2"], 3,
                 EXACT_VS_LOG, id="nfm-plus-one-census"),
    pytest.param(likelihood, "nfm", _plus_one,
                 ["sample", "-L", "7", "-k", "3", "--trials", "50"], 3, EXACT_VS_LOG,
                 id="nfm-plus-one-sample"),
]


@pytest.mark.parametrize("owner, name, mutate, argv, code, caught", ROWS)
def test_mutant_is_caught(capsys, monkeypatch, owner, name, mutate, argv, code, caught):
    monkeypatch.setattr(owner, name, mutate(getattr(owner, name)))
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    if code == 3:
        assert out == "" and err.startswith(caught) and err.count("\n") == 1
    else:
        assert caught in out and err == ""
