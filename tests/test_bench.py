"""Smoke test of the per-layer bench harness at tiny sizes."""

import importlib.util
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_writes_labelled_runs(tmp_path, capsys):
    # both sides in one invocation, each in its own worker; here the
    # "before" tree is this checkout's own source
    bench = load_bench()
    out = tmp_path / "BENCH_smoke.json"
    src = BENCH.parent.parent / "src"
    assert bench.main(["--out", str(out), "--before", str(src), "--tiny"]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    names = {
        "star_n2", "star_n4", "star_n6", "intertwine_n4", "oracle_n4_N2", "oracle_n2_N2", "exp_n4_N2",
        "series_mul_n4_N2", "inv_sqrt_N2", "series_inverse_n2_N2", "expand_n4_N2", "closed_form_n4_N2",
        "jacobi_so3_d1", "jacobi_cyclic_n4_d1", "lambda_relation_so3_d1",
        "lambda_relation_cyclic_n4_d1", "matmul_n4", "matseries_inverse_n4_N2",
        "matseries_det_n4_N2", "matseries_mul_n4_N2", "cayley_series_n4_N2", "tanh_n4_N2",
        "cayley_flows_n4_N2", "matseries_inverse_unit_n4_N2", "matmul_complex_n4",
        "cli_star_poly_n3", "cli_star_small", "cli_star_n6", "context_n6",
        "cli_grade", "cli_riccati_N2", "cli_star_exp_n4_N2", "cli_verify_lambda_n3",
        "cli_ordering", "parse_texts",
    }
    assert set(data["runs"]) == {"before", "after"}
    for label in ("before", "after"):
        run = data["runs"][label]
        assert run["backend"] == "fractions.Fraction"
        assert run["python"].count(".") == 2
        assert set(run["cases"]) == names
        for case in run["cases"].values():
            assert case["median_s"] > 0 and case["terms"] > 0
            assert case["scaled_median_s"] > 0 and case["repeat"] == 1
    # the same tree on both sides computes the same results
    before, after = (data["runs"][label]["cases"] for label in ("before", "after"))
    assert all(before[name]["terms"] == after[name]["terms"] for name in names)
    assert set(data["speedup"]) == names


def test_bench_without_before_times_one_side(tmp_path, capsys):
    bench = load_bench()
    out = tmp_path / "BENCH_smoke.json"
    assert bench.main(["--out", str(out), "--tiny"]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert set(data["runs"]) == {"after"} and "speedup" not in data


def test_round_ratio_quartiles():
    # inclusive quartiles of the per-round before/after ratios; one round
    # gives its one ratio three times
    bench = load_bench()
    assert bench.quartiles([2.0]) == {"q1": 2.0, "median": 2.0, "q3": 2.0, "rounds": 1}
    assert bench.quartiles([1.0, 5.0, 2.0, 4.0, 3.0]) == {
        "q1": 2.0, "median": 3.0, "q3": 4.0, "rounds": 5,
    }


def test_bench_reports_round_ratios_per_case(tmp_path, capsys):
    bench = load_bench()
    out = tmp_path / "BENCH_smoke.json"
    src = BENCH.parent.parent / "src"
    assert bench.main(["--out", str(out), "--before", str(src), "--tiny"]) == 0
    assert "round ratio" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert set(data["round_ratio"]) == set(data["speedup"])
    for q in data["round_ratio"].values():
        assert 0 < q["q1"] <= q["median"] <= q["q3"] and q["rounds"] == 1


def test_bench_records_an_aa_control_per_case(tmp_path, capsys):
    # a second worker on the after tree gives each case an A/A ratio, and a
    # case is called faster or slower only outside both 1 and that range
    bench = load_bench()
    out = tmp_path / "BENCH_smoke.json"
    src = BENCH.parent.parent / "src"
    assert bench.main(["--out", str(out), "--before", str(src), "--tiny"]) == 0
    assert "A/A" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert set(data["runs"]) == {"before", "after"}
    assert set(data["aa_round_ratio"]) == set(data["verdict"]) == set(data["round_ratio"])
    # the second run, with new workers, keeps its quartiles next to the first's
    assert set(data["rerun"]) == {"round_ratio", "aa_round_ratio"}
    for key, quartiles in data["rerun"].items():
        assert set(quartiles) == set(data[key])
    for q in data["aa_round_ratio"].values():
        assert 0 < q["q1"] <= q["median"] <= q["q3"] and q["rounds"] == 1
    assert set(data["verdict"].values()) <= {"faster", "slower", "unresolved"}
    aa = {"q1": 0.97, "median": 1.0, "q3": 1.04, "rounds": 40}
    assert bench.verdict({"q1": 1.05, "median": 1.1, "q3": 1.2}, aa) == "faster"
    assert bench.verdict({"q1": 1.02, "median": 1.1, "q3": 1.2}, aa) == "unresolved"
    assert bench.verdict({"q1": 0.8, "median": 0.9, "q3": 0.95}, aa) == "slower"
    assert bench.verdict({"q1": 0.8, "median": 0.9, "q3": 0.98}, aa) == "unresolved"
    wide = {"q1": 0.9, "median": 1.0, "q3": 1.1, "rounds": 40}
    assert bench.verdict({"q1": 1.05, "median": 1.1, "q3": 1.2}, wide) == "unresolved"


def test_verdict_needs_both_runs_to_agree():
    bench = load_bench()
    assert bench.agreed("faster", "faster") == "faster"
    assert bench.agreed("slower", "slower") == "slower"
    assert bench.agreed("slower", "unresolved") == "unresolved"
    assert bench.agreed("faster", "slower") == "unresolved"
    assert bench.agreed("unresolved", "unresolved") == "unresolved"


def test_each_side_takes_each_position_equally_often(monkeypatch):
    # fake workers log the turns of one case: its rounds run to the end of
    # the orders, each side runs first, second and last equally often, and
    # no side runs two repeats back to back
    bench = load_bench()
    turns = []

    class Worker:
        info = {"sizes": {"case": {}}}

        def __init__(self, src, tiny):
            self.label = src

        def run(self, name):
            turns.append(self.label)
            return {"s": 0.001, "terms": 1}

        def close(self):
            pass

    class HostSpeed:
        sample = staticmethod(lambda: 1.0)
        factor = staticmethod(lambda samples: 1.0)

    monkeypatch.setattr(bench, "_Worker", Worker)
    monkeypatch.setattr(bench, "_hostspeed", HostSpeed)
    labels = ("before", "after", "again")
    runs, ratios = bench.measure({label: label for label in labels}, tiny=False)
    period = len(bench.ROUNDS)
    rounds = [turns[i : i + 3] for i in range(0, len(turns), 3)]
    assert len(rounds) >= bench.REPEAT and len(rounds) % period == 0
    assert all(sorted(r) == sorted(labels) for r in rounds)
    for position in range(3):
        seen = [r[position] for r in rounds]
        assert all(seen.count(label) == len(rounds) // 3 for label in labels)
    assert all(a != b for a, b in zip(turns, turns[1:]))
    assert rounds[-1][-1] != rounds[0][0]
    assert len(ratios["case"]["before"]) == len(rounds)
    assert runs["after"]["cases"]["case"]["repeat"] == len(rounds)
    # one side alone runs the same number of rounds
    turns.clear()
    bench.measure({"after": "after"}, tiny=False)
    assert turns == ["after"] * len(rounds)
