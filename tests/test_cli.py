"""Command-line interface."""

import json

import pytest

from repro.circuit import modules
from repro.cli import main
from repro.config import ddm_config
from repro.core.batch import simulate_batch
from repro.stimuli.patterns import random_vector_batch


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "tech06" in out
    assert "NAND2" in out
    assert "mult4" in out


def test_simulate_builtin(capsys):
    assert main(["simulate", "--circuit", "c17", "--vectors", "4"]) == 0
    out = capsys.readouterr().out
    assert "HALOTIS-DDM" in out
    assert "events executed" in out


def test_simulate_cdm_mode(capsys):
    assert main([
        "simulate", "--circuit", "chain8", "--vectors", "3", "--mode", "cdm",
    ]) == 0
    assert "HALOTIS-CDM" in capsys.readouterr().out


def test_simulate_compiled_engine_matches_reference(capsys):
    assert main([
        "simulate", "--circuit", "c17", "--vectors", "5", "--engine", "compiled",
    ]) == 0
    compiled_out = capsys.readouterr().out
    assert "engine: compiled" in compiled_out
    assert main([
        "simulate", "--circuit", "c17", "--vectors", "5", "--engine", "reference",
    ]) == 0
    reference_out = capsys.readouterr().out
    assert "engine: reference" in reference_out
    # identical event counts: the engine line is the only difference
    assert [line for line in compiled_out.splitlines() if "events" in line] == [
        line for line in reference_out.splitlines() if "events" in line
    ]


def test_simulate_rejects_unknown_engine(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--circuit", "c17", "--engine", "warp"])


def test_simulate_bench_file(tmp_path, capsys):
    bench = tmp_path / "tiny.bench"
    bench.write_text("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
    assert main(["simulate", "--bench", str(bench), "--vectors", "3"]) == 0
    assert "netlist tiny" in capsys.readouterr().out


def test_simulate_writes_vcd(tmp_path, capsys):
    vcd = tmp_path / "waves.vcd"
    assert main([
        "simulate", "--circuit", "c17", "--vectors", "3", "--vcd", str(vcd),
    ]) == 0
    assert vcd.exists()
    assert "$timescale" in vcd.read_text()


def test_simulate_vector_engine_matches_reference(capsys):
    assert main([
        "simulate", "--circuit", "c17", "--vectors", "5", "--engine", "vector",
    ]) == 0
    vector_out = capsys.readouterr().out
    assert "engine: vector" in vector_out
    assert main([
        "simulate", "--circuit", "c17", "--vectors", "5",
        "--engine", "reference",
    ]) == 0
    reference_out = capsys.readouterr().out
    assert [line for line in vector_out.splitlines() if "events" in line] == [
        line for line in reference_out.splitlines() if "events" in line
    ]


def test_simulate_vector_batch_mode(capsys):
    """--batch with --engine vector (the kept alias of compiled) runs."""
    assert main([
        "simulate", "--circuit", "c17", "--batch", "4", "--vectors", "2",
        "--engine", "vector",
    ]) == 0
    out = capsys.readouterr().out
    assert "engine:                 vector" in out
    assert "vectors:                4" in out


def test_simulate_batch_mode(capsys):
    assert main([
        "simulate", "--circuit", "c17", "--batch", "3", "--vectors", "2",
        "--engine", "compiled",
    ]) == 0
    out = capsys.readouterr().out
    assert "HALOTIS-DDM (batch)" in out
    assert "vectors:                3" in out
    assert "amortised per vector" in out


def test_simulate_batch_writes_per_vector_json(tmp_path, capsys):
    out_dir = tmp_path / "batch"
    assert main([
        "simulate", "--circuit", "c17", "--batch", "2", "--vectors", "2",
        "--batch-out", str(out_dir),
    ]) == 0
    assert "result files written" in capsys.readouterr().out
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["summary.json", "vector_000.json", "vector_001.json"]
    payload = json.loads((out_dir / "vector_000.json").read_text())
    assert payload["index"] == 0
    assert payload["stats"]["events_executed"] > 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["vectors"] == 2
    assert summary["aggregate_stats"]["events_executed"] > 0
    # Final values and toggles are JSON objects holding the run's values.
    c17 = modules.c17()
    stimuli = random_vector_batch(
        [net.name for net in c17.primary_inputs], batch=2, count=2,
        period=5.0, base_seed=0,
    )
    batch = simulate_batch(c17, stimuli, config=ddm_config())
    for position, result in enumerate(batch):
        written = json.loads((out_dir / ("vector_%03d.json" % position)).read_text())
        assert written["final_values"] == dict(result.final_values)
        assert written["stats"]["net_toggles"] == dict(result.stats.net_toggles)
        assert len(written["final_values"]) == len(c17.nets)
        assert written["stats"]["net_toggles"]
    assert summary["aggregate_stats"]["net_toggles"] == dict(
        batch.aggregate_stats().net_toggles
    )
    assert sum(summary["aggregate_stats"]["net_toggles"].values()) == sum(
        result.stats.total_toggles for result in batch
    )


def test_simulate_batch_writes_per_vector_csv(tmp_path, capsys):
    out_dir = tmp_path / "batch_csv"
    assert main([
        "simulate", "--circuit", "c17", "--batch", "2", "--vectors", "2",
        "--batch-out", str(out_dir), "--batch-format", "csv",
    ]) == 0
    csv_text = (out_dir / "vector_001.csv").read_text()
    assert csv_text.startswith("time_ns,")


def test_simulate_batch_from_vector_file(tmp_path, capsys):
    vector_file = tmp_path / "vectors.json"
    vector_file.write_text(json.dumps([
        {"steps": [[0.0, {"a": 0}], [2.0, {"a": 1}]]},
        {"steps": [[0.0, {"a": 1}], [2.0, {"a": 0}]]},
    ]))
    bench = tmp_path / "tiny.bench"
    bench.write_text("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
    assert main([
        "simulate", "--bench", str(bench), "--vector-file", str(vector_file),
    ]) == 0
    assert "vectors:                2" in capsys.readouterr().out


def test_simulate_batch_jobs(capsys):
    """The lockstep engine runs its kernel, and its STA pass, per worker."""
    pytest.importorskip("numpy")
    assert main([
        "simulate", "--circuit", "c17", "--batch", "8", "--vectors", "2",
        "--engine", "bitparallel", "--pool-workers", "2", "--check-sta",
    ]) == 0
    out = capsys.readouterr().out
    assert "jobs:                   2" in out
    assert "engine:                 bitparallel" in out


def test_simulate_batch_pool_workers(capsys):
    assert main([
        "simulate", "--circuit", "c17", "--batch", "4", "--vectors", "2",
        "--pool-workers", "2", "--engine", "compiled",
    ]) == 0
    out = capsys.readouterr().out
    assert "service: 2 warm workers" in out
    assert "vectors:                4" in out


def test_pool_matches_cold_batch(capsys):
    """Warm-pool batch and plain batch print identical aggregates."""
    argv = ["simulate", "--circuit", "c17", "--batch", "3", "--vectors", "2",
            "--engine", "compiled"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert main(argv + ["--pool-workers", "2"]) == 0
    warm = capsys.readouterr().out
    pick = lambda text: [line for line in text.splitlines()
                         if "events" in line or "toggles" in line]
    assert pick(cold) == pick(warm)


def test_stdin_vectors_streaming(capsys, monkeypatch):
    import io

    lines = "\n".join([
        json.dumps({"steps": [[0.0, {"1": 0, "2": 0, "3": 0, "6": 0, "7": 0}],
                              [3.0, {"1": 1, "3": 1}]], "horizon": 8.0}),
        json.dumps({"steps": [[0.0, {"1": 1, "2": 1, "3": 1, "6": 1, "7": 1}],
                              [3.0, {"2": 0}]], "horizon": 8.0}),
        "",  # blank lines are skipped
        json.dumps({"steps": [[0.0, {"1": 0, "2": 1, "3": 0, "6": 1, "7": 0}],
                              [3.0, {"7": 1}]], "horizon": 8.0}),
    ])
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    assert main([
        "simulate", "--circuit", "c17", "--stdin-vectors",
        "--pool-workers", "2", "--engine", "compiled",
    ]) == 0
    captured = capsys.readouterr()
    results = [json.loads(line) for line in captured.out.splitlines()]
    assert [r["vector"] for r in results] == [0, 1, 2]
    assert all(set(r["outputs"]) == {"22", "23"} for r in results)
    assert all(r["events_executed"] >= 0 for r in results)
    assert "3 vectors simulated" in captured.err


def test_stdin_vectors_reports_malformed_line(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("this is not json\n"))
    code = main([
        "simulate", "--circuit", "c17", "--stdin-vectors",
        "--pool-workers", "1",
    ])
    assert code == 1
    assert "stdin line 1" in capsys.readouterr().err


def test_removed_transport_flag_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as caught:
        main([
            "simulate", "--circuit", "c17", "--batch", "2",
            "--pool-workers", "2", "--shm",
        ])
    assert caught.value.code == 2
    assert "unrecognized arguments: --shm" in capsys.readouterr().err


def test_pool_workers_zero_is_rejected_everywhere(capsys):
    # batch mode: reaches the service and fails its validation
    assert main([
        "simulate", "--circuit", "c17", "--batch", "2",
        "--pool-workers", "0",
    ]) == 1
    assert "workers must be >= 1" in capsys.readouterr().err
    # single-run mode: even a falsy 0 triggers the batch-only guard
    assert main([
        "simulate", "--circuit", "c17", "--pool-workers", "0",
    ]) == 1
    assert "batch mode" in capsys.readouterr().err


def test_pool_flags_require_batch_mode(capsys):
    code = main([
        "simulate", "--circuit", "c17", "--vectors", "2",
        "--pool-workers", "2",
    ])
    assert code == 1
    assert "batch mode" in capsys.readouterr().err


def test_stdin_vectors_rejects_batch_out(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code = main([
        "simulate", "--circuit", "c17", "--stdin-vectors",
        "--batch-out", "somewhere",
    ])
    assert code == 1
    assert "stream to stdout" in capsys.readouterr().err


def test_simulate_batch_rejects_vcd(capsys):
    code = main([
        "simulate", "--circuit", "c17", "--batch", "2", "--vcd", "w.vcd",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_batch_and_vector_file_exclusive(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main([
            "simulate", "--circuit", "c17", "--batch", "2",
            "--vector-file", "x.json",
        ])


def test_experiment_fig3(capsys):
    assert main(["experiment", "fig3"]) == 0
    assert "Figure 3" in capsys.readouterr().out


def test_experiment_table1_with_json(tmp_path, capsys):
    out_path = tmp_path / "t1.json"
    assert main(["experiment", "table1", "--json", str(out_path)]) == 0
    assert "Table 1" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert "table1" in payload


def test_error_reported_not_raised(tmp_path, capsys):
    missing = tmp_path / "nope.bench"
    missing.write_text("garbage !!!")
    code = main(["simulate", "--bench", str(missing), "--vectors", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def test_sta_builtin(capsys):
    assert main(["sta", "--circuit", "c17"]) == 0
    out = capsys.readouterr().out
    assert "STA over 'c17'" in out
    assert "latest-arriving nets" in out
    assert "critical path #1" in out


def test_sta_json(capsys):
    assert main(["sta", "--circuit", "mult4", "--json", "--k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["netlist"] == "mult4x4"
    assert len(payload["windows"]) == payload["nets"]
    assert len(payload["critical_paths"]) == 2
    assert payload["delay_mode"] == "ddm"


def test_sta_cdm_and_slew_interval(capsys):
    assert main([
        "sta", "--circuit", "chain8", "--mode", "cdm",
        "--slew", "0.1", "0.4", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delay_mode"] == "cdm"
    assert payload["input_slew"] == [0.1, 0.4]


def test_sta_bench_file(tmp_path, capsys):
    bench = tmp_path / "tiny.bench"
    bench.write_text("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
    assert main(["sta", "--bench", str(bench)]) == 0
    assert "STA over 'tiny'" in capsys.readouterr().out


_CYCLIC_BENCH = (
    "INPUT(s)\nINPUT(r)\nOUTPUT(q)\n"
    "q = NAND(s, qb)\nqb = NAND(r, q)\n"
)


def test_sta_rejects_cyclic_circuit(tmp_path, capsys):
    bench = tmp_path / "loop.bench"
    bench.write_text(_CYCLIC_BENCH)
    code = main(["sta", "--bench", str(bench)])
    assert code == 1
    assert "cycle" in capsys.readouterr().err


def test_lint_warnings_exit_zero_unless_strict(capsys):
    assert main(["lint", "--circuit", "c17"]) == 0
    out = capsys.readouterr().out
    assert "static-hazard" in out
    assert "0 error(s)" in out
    assert main(["lint", "--circuit", "c17", "--strict"]) == 2


def test_lint_clean_circuit(capsys):
    assert main(["lint", "--circuit", "chain8"]) == 0
    assert "no findings" in capsys.readouterr().out


def test_lint_json(capsys):
    assert main(["lint", "--circuit", "c17", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["errors"] == 0
    assert payload["warnings"] > 0
    assert all("rule" in f for f in payload["findings"])


def test_lint_cyclic_bench_skips_hazards(tmp_path, capsys):
    # --allow-cycles threads into the bench loader; the ERC reports the
    # cycle as a warning and the (topological) hazard pass is skipped
    # rather than crashing.  Without the flag, loading itself fails.
    bench = tmp_path / "loop.bench"
    bench.write_text(_CYCLIC_BENCH)
    code = main(["lint", "--bench", str(bench), "--allow-cycles"])
    assert code == 0
    assert "combinational-cycle" in capsys.readouterr().out
    assert main(["lint", "--bench", str(bench)]) == 1
    assert "cycle" in capsys.readouterr().err


def test_simulate_check_sta(capsys):
    assert main([
        "simulate", "--circuit", "c17", "--vectors", "4", "--check-sta",
    ]) == 0
    assert "events executed" in capsys.readouterr().out


def test_simulate_check_sta_batch_all_engines(capsys):
    for engine in ("reference", "compiled", "vector", "bitparallel"):
        assert main([
            "simulate", "--circuit", "chain8", "--batch", "3",
            "--engine", engine, "--check-sta",
        ]) == 0
        capsys.readouterr()


def test_check_sta_rejects_remote_runs(capsys):
    code = main([
        "simulate", "--circuit", "c17", "--check-sta",
        "--connect", "127.0.0.1:1",
    ])
    assert code == 1
    assert "--check-sta" in capsys.readouterr().err
