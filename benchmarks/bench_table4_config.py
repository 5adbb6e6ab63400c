"""Tables 4 and 5: simulator configuration and evaluated configurations."""

from conftest import regenerate


def test_table4_simulator_configuration(benchmark):
    rows = regenerate(benchmark, "table4")
    as_dict = dict(rows)
    assert as_dict["Threads"] == "4"
    assert as_dict["Issue/Commit Width"] == "8/8"
    assert as_dict["ROB Size"] == "256"
    assert as_dict["LSQ Size"] == "64"
    assert as_dict["ALU/FPU units"] == "6/3"
    assert as_dict["BTB/RAS Size"] == "2048/16"
    assert "1024" in as_dict["Branch Predictor"]
    assert as_dict["DRAM Latency"] == "200"


def test_table5_mmt_configurations(benchmark):
    rows = regenerate(benchmark, "table5")
    names = [name for name, _ in rows]
    assert names == ["Base", "MMT-F", "MMT-FX", "MMT-FXR", "Limit"]
