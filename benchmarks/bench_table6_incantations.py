"""Table 6 — all 16 incantation combinations for coRR/lb/mp/sb on the
GTX Titan and Radeon HD 7970.

Reproduces the headline qualitative findings of Sec. 4.3:

* without incantations, Nvidia shows nothing (column 1);
* memory stress is necessary for inter-CTA weakness on the Titan
  (columns 1-8 are zero for lb/mp/sb);
* bank conflicts alone expose nothing (column 5);
* thread synchronisation boosts inter-CTA tests (col 10 vs 12);
* the AMD HD 7970 is weak even with no incantations at all.
"""

from repro._util import format_table
from repro.api import Session
from repro.harness import ALL_COMBINATIONS, TABLE6
from repro.litmus import library

from _common import assert_shape, iterations, report

_TESTS = {
    "coRR": lambda: library.corr(placement="intra-cta"),
    "lb": lambda: library.lb(),
    "mp": lambda: library.mp(),
    "sb": lambda: library.sb(),
}
_CHIPS = {"Titan": "Nvidia", "HD7970": "AMD"}


def test_table6_incantations(benchmark):
    per_cell = iterations(1200)

    def sweep():
        session = Session(cache=False)
        measured = {}
        for chip, vendor in _CHIPS.items():
            for name, build in _TESTS.items():
                test = build()
                row = []
                for incantations in ALL_COMBINATIONS:
                    result = session.run(test, chip,
                                         incantations=incantations,
                                         iterations=per_cell, seed=3)
                    row.append(result.per_100k)
                measured[(chip, name)] = row
        return measured

    measured = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = ["table 6: incantation combinations (obs/100k; %d runs/cell)"
             % per_cell,
             "columns: 1..16 = 1 + 8*stress + 4*bankconf + 2*sync + 1*rand"]
    for (chip, name), row in measured.items():
        vendor = _CHIPS[chip]
        paper_row = TABLE6[(vendor, name)]
        lines.append("")
        lines.append("%s %s" % (chip, name))
        lines.append(format_table(
            ["col %d" % (i + 1) for i in range(16)],
            [["%.0f" % value for value in row],
             ["(%d)" % value for value in paper_row]]))
        for column in range(16):
            assert_shape(row[column], paper_row[column],
                         "table6/%s/%s/col%d" % (chip, name, column + 1),
                         iterations_per_cell=per_cell)
    report("table6_incantations", "\n".join(lines))

    # The Sec. 4.3 headline comparisons.
    titan_mp = measured[("Titan", "mp")]
    assert titan_mp[0] == 0, "no incantations -> nothing on Nvidia"
    assert all(measured[("Titan", idiom)][4] == 0 for idiom in _TESTS), \
        "bank conflicts alone expose nothing (column 5)"
    assert titan_mp[11] > 0, "stress+sync+random is the Nvidia sweet spot"
    assert measured[("HD7970", "lb")][0] > 0, \
        "the HD 7970 is weak without incantations"
