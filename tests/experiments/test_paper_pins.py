"""Every simulated value of the paper's experiments, pinned exactly at seed 0.

The shape tests in ``test_experiments.py`` check the paper's ranges; these
check that a refactor of the PVM/LAM daemons, the console, the modules or
the broker moved no simulated second at all.  A deliberate change to the
model re-pins them with its reason.
"""

from repro.experiments import (
    run_fig7,
    run_table1,
    run_table2,
    run_table3,
    run_utilization,
)

TABLE1 = {
    "rsh n01 null": [0.3106],
    "rsh' n01 null": [0.6014199999999998],
    "rsh' anylinux null": [0.6747999999999998],
    "rsh n01 loop": [6.8106],
    "rsh' n01 loop": [7.10142],
    "rsh' anylinux loop": [7.1748],
}
TABLE1_META = {"rshp_overhead_null": 0.29081999999999986}

TABLE2 = {
    "rsh n01 null": [0.3108200000000001],
    "rsh' anylinux null": [1.6255999999999995],
    "rsh n01 loop": [13.31082],
    "rsh' anylinux loop": [8.125599999999999],
}
TABLE2_META = {"realloc_cost": 1.0255999999999994, "loop_crossover": True}

#: The five-hour run at its defaults (8 machines, an arrival every 100 s).
UTILIZATION = {
    "horizon (s)": [18000.0],
    "machines": [8],
    "sequential jobs submitted": [179],
    "mean utilization": [0.9990585611111006],
    "total detected idleness": [0.0009414388888994152],
}
UTILIZATION_META = {
    "idleness": 0.0009414388888994152,
    "utilization_by_host": {
        "n01": 0.9999725111111017,
        "n02": 0.9999722888888796,
        "n03": 0.9993783222222112,
        "n04": 0.9986386555555463,
        "n05": 0.9981761666666542,
        "n06": 0.9984726777777653,
        "n07": 0.9992128555555442,
        "n08": 0.9986450111111018,
    },
}

TABLE3 = {
    "pvm w/ rsh": [2.1018, 3.1330000000000022, 4.164200000000003, 5.195400000000005],
    "pvm w/ host": [2.102020000000002, 3.133440000000003, 4.164860000000004, 5.19628],
    "pvm w/ anylinux": [
        3.3135999999999948, 5.506600000000004, 7.6996000000000375, 9.89260000000007,
    ],
    "lam w/ rsh": [2.4318, 3.5434000000000014, 4.655000000000003, 5.766600000000006],
    "lam w/ host": [
        2.4320200000000023, 3.543840000000004, 4.655660000000001, 5.767479999999999,
    ],
    "lam w/ anylinux": [
        3.9135999999999935, 6.427200000000024, 8.940800000000067, 11.454400000000087,
    ],
}

#: machines -> (time until the k-th grant, seconds per machine).
FIG7 = {
    "1": [2.063800000000003, 2.063800000000003],
    "2": [3.057600000000006, 1.528800000000003],
    "4": [5.045200000000005, 1.2613000000000012],
    "8": [9.020399999999984, 1.127549999999998],
    "12": [12.995599999999966, 1.0829666666666637],
    "16": [16.970799999999954, 1.0606749999999971],
}


def test_table1_every_cell_is_pinned():
    table = run_table1(seed=0)
    assert {row.label: row.values for row in table.rows} == TABLE1
    assert table.meta == TABLE1_META


def test_table2_every_cell_is_pinned():
    table = run_table2(seed=0)
    assert {row.label: row.values for row in table.rows} == TABLE2
    assert table.meta == TABLE2_META


def test_utilization_every_value_is_pinned():
    table = run_utilization(seed=0)
    assert {row.label: row.values for row in table.rows} == UTILIZATION
    assert table.meta == UTILIZATION_META


def test_table3_every_cell_is_pinned():
    table = run_table3(seed=0)
    assert {row.label: row.values for row in table.rows} == TABLE3


def test_fig7_every_time_is_pinned():
    table = run_fig7(seed=0)
    assert {row.label: row.values for row in table.rows} == FIG7
