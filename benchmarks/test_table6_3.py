"""Regenerate Table 6-3: frequency of SpD application by dependence
type, for 2- and 6-cycle memory.

Shape targets (paper: RAW 87/94, WAR 0/0, WAW 22/30): WAR is never
selected; RAW at least matches WAW at 2-cycle memory; applications
exist at both latencies.
"""

from repro.experiments import table6_3

from conftest import publish


def test_table6_3(benchmark, pipeline, output_dir):
    table = benchmark.pedantic(table6_3.run, args=(pipeline,),
                               rounds=1, iterations=1)
    raw2, war2, waw2 = table.totals(2)
    raw6, war6, waw6 = table.totals(6)
    assert war2 == war6 == 0
    assert raw2 >= waw2
    assert raw2 + waw2 >= 10 and raw6 + waw6 >= 10
    publish(output_dir, "table6_3", table.render())
