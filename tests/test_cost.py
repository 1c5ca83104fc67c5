"""The latency and footprint model against the published accelerator table.

The golden outputs were printed by the model that copied (n_cycle, t_opt)
from the paper; the derived pairs must reproduce them byte for byte.
"""

import pytest

from photopinn.cli import main
from photopinn.photonic.cost import COLUMN_DELAY_PS, latency

# (n_cycle, t_opt ns) per design, as published for the 128-wide Black-Scholes hidden layer.
PUBLISHED = {
    "ONN-SM": (1, 3.20),
    "TONN-SM": (1, 0.64),
    "ONN-TM": (32, 0.21),
    "TONN-TM": (6, 0.21),
}

COST_STDOUT = """\
arch,t_inference_ns,t_epoch_ms,t_total_s,footprint_mm2
ONN-SM,51.30,0.1739,1.7389,3975.68
TONN-SM,48.74,0.1652,1.6524,102.72
ONN-TM,1545.92,5.2257,52.2571,18.72
TONN-TM,289.86,0.9802,9.8023,18.72
"""

REPRODUCE_COST_STDOUT = """\
label,ours,published,tolerance,status
ONN-SM t_inference [ns],51.3,51.3,0.01,pass
ONN-SM t_epoch [ms],0.1738942,0.174,0.01,pass
ONN-SM t_total [s],1.738942,1.74,0.01,pass
TONN-SM t_inference [ns],48.74,48.74,0.01,pass
TONN-SM t_epoch [ms],0.16524139999999998,0.164,0.01,pass
TONN-SM t_total [s],1.652414,1.64,0.016399999999999998,pass
TONN-TM t_inference [ns],289.86,289.86,0.01,pass
TONN-TM t_epoch [ms],0.980227,0.98,0.01,pass
TONN-TM t_total [s],9.80227,9.8,0.01,pass
ONN-TM t_total [s],52.257098000000006,52.27,,target
ONN-SM footprint [mm^2],3975.68,3975.68,0.01,pass
TONN-SM footprint [mm^2],102.72,102.72,0.01,pass
ONN-TM footprint [mm^2],18.72,18.72,0.01,pass
TONN-TM footprint [mm^2],18.72,18.72,0.01,pass
overall: pass
"""


@pytest.mark.parametrize("arch", list(PUBLISHED))
def test_derived_cycles_and_delay_are_the_published_ones(arch):
    got = latency(arch=arch)
    assert (got["n_cycle"], got["t_opt_ns"]) == PUBLISHED[arch]
    assert type(got["n_cycle"]) is int


def test_the_published_delays_fix_the_column_delay_to_a_20_fs_window():
    # depths in MZI columns: one 128x128 SVD, three 8x8 TT core blocks, one 8x8 engine
    depths = {257: 3.20, 51: 0.64, 17: 0.21}

    def fits(delay_ps):
        return all(round(d * delay_ps / 1e3, 2) == t for d, t in depths.items())

    assert fits(COLUMN_DELAY_PS)
    assert [d / 100 for d in range(1240, 1252) if fits(d / 100)] == [12.46, 12.47]


def test_unknown_design_is_a_key_error():
    with pytest.raises(KeyError, match="unknown architecture 'ONN-XM'"):
        latency(arch="ONN-XM")


def test_cost_prints_the_published_tables_byte_for_byte(capsys):
    assert main(["cost"]) == 0
    assert capsys.readouterr().out == COST_STDOUT


@pytest.mark.parametrize("arch", list(PUBLISHED))
def test_cost_of_one_design_prints_its_row(arch, capsys):
    header, *rows = COST_STDOUT.splitlines(keepends=True)
    assert main(["cost", "--arch", arch]) == 0
    assert capsys.readouterr().out == header + next(row for row in rows if row.startswith(arch + ","))


def test_reproduce_cost_table_byte_for_byte(capsys):
    assert main(["reproduce", "--table", "cost"]) == 0
    assert capsys.readouterr().out == REPRODUCE_COST_STDOUT
