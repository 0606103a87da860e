"""``scripts/opcount.py``: executed bytecodes per function repeat exactly."""

import opcount


def test_opcount_prints_the_same_counts_on_two_runs(capsys):
    outs = []
    for _ in range(2):
        assert opcount.main(["langford n=4", "2way"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    total, *rows = outs[0].splitlines()
    counts = {line.split(None, 1)[1]: int(line.split()[0]) for line in rows}
    assert total.split() == [str(sum(counts.values())), "total"]
    assert any(name.endswith(" propagate") and n > 0 for name, n in counts.items())
