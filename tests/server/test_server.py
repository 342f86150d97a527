"""The network simulation server: wire parity, routing, failure modes.

The server's contract extends the service contract across a TCP hop: a
vector simulated over the wire is **bit-identical** — raw transition
streams, final values, every statistics counter except wall-clock — to
a local ``simulate()`` with the same knobs, for both engines and both
delay modes.  These tests pin that, plus the operational surface:
multi-netlist routing, pipelined out-of-order completion, per-netlist
backpressure (``busy`` frames), malformed-frame error mapping,
registration lifecycle (idempotent / conflict / capacity), concurrent
clients, the CLI's ``--connect`` front end, and graceful shutdown.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.circuit import bench_io
from repro.config import DelayMode, cdm_config, ddm_config
from repro.core.batch import simulate_batch
from repro.core.engine import simulate
from repro.errors import ServerError
from repro.experiments import common
from repro.io_formats import jsonl_protocol
from repro.server.app import SimulationServer
from repro.server.client import SimulationClient, parse_address, wait_for_server
from repro.stimuli.patterns import random_vector_batch, random_vectors

_STATS_FIELDS = (
    "events_executed",
    "events_scheduled",
    "events_filtered",
    "late_events",
    "transitions_emitted",
    "source_transitions",
    "transitions_degraded",
    "transitions_fully_degraded",
    "net_toggles",
)

_BENCH_TEXT = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn1 = NAND(a, b)\ny = NOT(n1)\n"


def assert_results_identical(result, standalone, context=""):
    """Bit-identical comparison (everything but wall-clock)."""
    for field in _STATS_FIELDS:
        assert getattr(result.stats, field) == getattr(
            standalone.stats, field
        ), "%s: stats.%s differs" % (context, field)
    assert result.final_values == standalone.final_values, context
    assert result.traces.horizon == standalone.traces.horizon, context
    assert result.traces.vdd == standalone.traces.vdd, context
    assert result.traces.names() == standalone.traces.names(), context
    for name in standalone.traces.names():
        got, want = result.traces[name], standalone.traces[name]
        assert got.initial_value == want.initial_value, (context, name)
        got_raw = [
            (t.t50, t.duration, t.rising, t.net_name,
             t.degradation_factor, t.cause_time)
            for t in got.transitions
        ]
        want_raw = [
            (t.t50, t.duration, t.rising, t.net_name,
             t.degradation_factor, t.cause_time)
            for t in want.transitions
        ]
        assert got_raw == want_raw, (context, name)


def start_server(**kwargs):
    """A server on an ephemeral port, driven by a daemon thread."""
    kwargs.setdefault("port", 0)
    return SimulationServer(**kwargs).start_background(15.0)


def stop_server(server):
    assert server.stop_and_join(30.0), "server did not shut down"


@pytest.fixture(scope="module")
def server():
    """One shared server for the read-mostly tests of this module."""
    server = start_server(pool_workers=2, max_netlists=32)
    yield server
    stop_server(server)


@pytest.fixture(scope="module")
def client(server):
    with SimulationClient(server.host, server.port) as client:
        yield client


# ----------------------------------------------------------------------
# wire parity: remote trace == local simulate(), engines x modes
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine_kind", ["reference", "compiled", "vector"])
@pytest.mark.parametrize("mode", ["ddm", "cdm"])
def test_remote_parity_with_local(client, mult4, mode, engine_kind):
    name = "mult4.%s.%s" % (mode, engine_kind)
    client.register(
        name, {"kind": "builtin", "name": "mult4"},
        mode=mode, engine_kind=engine_kind,
    )
    config = ddm_config() if mode == "ddm" else cdm_config()
    for which in (1, 2):
        stimulus = common.paper_stimulus(which)
        remote = client.simulate(name, stimulus)
        local = simulate(
            mult4, stimulus, config=config, engine_kind=engine_kind
        )
        assert remote.simulator is None
        assert_results_identical(
            remote, local,
            context="%s/%s sequence %d" % (mode, engine_kind, which),
        )


def test_remote_parity_on_bench_netlist(client):
    """A client-shipped .bench circuit simulates identically remotely."""
    netlist = bench_io.read_bench(_BENCH_TEXT, name="wire")
    client.register(
        "wire", {"kind": "bench", "text": _BENCH_TEXT, "name": "wire"}
    )
    stimuli = random_vector_batch(
        [net.name for net in netlist.primary_inputs],
        batch=4, count=3, period=2.0, base_seed=11,
    )
    remote = client.simulate_batch("wire", stimuli)
    for position, stimulus in enumerate(stimuli):
        local = simulate(
            netlist, stimulus, config=ddm_config(), engine_kind="compiled"
        )
        assert_results_identical(
            remote[position], local, context="bench vector %d" % position
        )


def test_batch_results_in_input_order(client, c17):
    client.register("c17", {"kind": "builtin", "name": "c17"})
    stimuli = random_vector_batch(
        [net.name for net in c17.primary_inputs],
        batch=6, count=2, period=3.0, base_seed=29,
    )
    remote = client.simulate_batch("c17", stimuli)
    assert len(remote) == len(stimuli)
    for position, stimulus in enumerate(stimuli):
        local = simulate(
            c17, stimulus, config=ddm_config(), engine_kind="compiled"
        )
        assert_results_identical(
            remote[position], local, context="batch vector %d" % position
        )


def test_summary_mode_matches_full(client, c17):
    client.register("c17", {"kind": "builtin", "name": "c17"})
    stimulus = random_vectors(
        [net.name for net in c17.primary_inputs], count=3, period=3.0, seed=3
    )
    summary = client.simulate_summary("c17", stimulus)
    full = client.simulate("c17", stimulus)
    assert summary["events_executed"] == full.stats.events_executed
    assert summary["events_filtered"] == full.stats.events_filtered
    assert summary["outputs"] == {
        net.name: full.final_values[net.name]
        for net in c17.primary_outputs
    }


# ----------------------------------------------------------------------
# multi-netlist routing
# ----------------------------------------------------------------------

def test_multi_netlist_routing(client, c17, chain3):
    """Requests route by name; interleaved circuits never cross-talk."""
    from repro.circuit import modules

    chain8 = modules.inverter_chain(8)
    client.register("c17", {"kind": "builtin", "name": "c17"})
    client.register("chain8", {"kind": "builtin", "name": "chain8"})
    registered = {entry["name"] for entry in client.list_netlists()}
    assert {"c17", "chain8"} <= registered

    c17_stim = random_vectors(
        [net.name for net in c17.primary_inputs], count=2, period=3.0, seed=7
    )
    chain_stim = random_vectors(
        [net.name for net in chain8.primary_inputs],
        count=2, period=3.0, seed=7,
    )
    for _round in range(3):
        via_c17 = client.simulate("c17", c17_stim)
        via_chain = client.simulate("chain8", chain_stim)
        assert_results_identical(
            via_c17,
            simulate(c17, c17_stim, config=ddm_config(),
                     engine_kind="compiled"),
            context="c17 routing",
        )
        assert_results_identical(
            via_chain,
            simulate(chain8, chain_stim, config=ddm_config(),
                     engine_kind="compiled"),
            context="chain8 routing",
        )


def test_pipelined_responses_complete_out_of_order(client, mult4, c17):
    """A fast request overtakes a slow one; ids keep them matched."""
    client.register("mult4.race", {"kind": "builtin", "name": "mult4"},
                    workers=1)
    client.register("c17.race", {"kind": "builtin", "name": "c17"},
                    workers=1)
    slow_stim = random_vectors(
        [net.name for net in mult4.primary_inputs],
        count=40, period=2.0, seed=13,
    )
    fast_stim = random_vectors(
        [net.name for net in c17.primary_inputs], count=1, period=2.0, seed=13
    )
    # Warm both pools so the race measures simulation, not spawn.
    client.simulate("mult4.race", slow_stim)
    client.simulate("c17.race", fast_stim)
    slow_id = client.submit_simulate("mult4.race", slow_stim)
    fast_id = client.submit_simulate("c17.race", fast_stim)
    assert fast_id > slow_id  # submitted second ...
    first_arrival = client._read_frame()
    assert first_arrival["id"] == fast_id  # ... completed first
    client._parked[first_arrival["id"]] = first_arrival
    fast = client.simulate_result(fast_id)
    slow = client.simulate_result(slow_id)
    assert_results_identical(
        fast,
        simulate(c17, fast_stim, config=ddm_config(), engine_kind="compiled"),
        context="fast overtaker",
    )
    assert_results_identical(
        slow,
        simulate(mult4, slow_stim, config=ddm_config(),
                 engine_kind="compiled"),
        context="slow overtaken",
    )


def test_concurrent_clients(server, c17, mult4):
    """Independent connections hammer different netlists correctly."""
    with SimulationClient(server.host, server.port) as setup:
        setup.register("c17", {"kind": "builtin", "name": "c17"})
        setup.register("mult4.conc", {"kind": "builtin", "name": "mult4"})
    failures = []

    def hammer(netlist_name, netlist, seed):
        try:
            with SimulationClient(server.host, server.port) as client:
                for round_number in range(4):
                    stimulus = random_vectors(
                        [net.name for net in netlist.primary_inputs],
                        count=2, period=3.0, seed=seed + round_number,
                    )
                    remote = client.simulate(netlist_name, stimulus)
                    local = simulate(
                        netlist, stimulus, config=ddm_config(),
                        engine_kind="compiled",
                    )
                    assert_results_identical(
                        remote, local,
                        context="%s round %d" % (netlist_name, round_number),
                    )
        except Exception as error:  # noqa: BLE001 - collected for the main thread
            failures.append(error)

    threads = [
        threading.Thread(target=hammer, args=("c17", c17, 100)),
        threading.Thread(target=hammer, args=("mult4.conc", mult4, 200)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
    assert not failures, failures


# ----------------------------------------------------------------------
# backpressure
# ----------------------------------------------------------------------

def test_busy_backpressure(mult4):
    """Requests past queue_depth are refused immediately, not queued."""
    server = start_server(pool_workers=1, queue_depth=1)
    try:
        with SimulationClient(server.host, server.port) as client:
            client.register("mult4", {"kind": "builtin", "name": "mult4"},
                            workers=1)
            slow = random_vectors(
                [net.name for net in mult4.primary_inputs],
                count=60, period=2.0, seed=5,
            )
            client.simulate("mult4", slow)  # warm the pool
            ids = [client.submit_simulate("mult4", slow) for _ in range(4)]
            outcomes = []
            for request_id in ids:
                try:
                    client.simulate_result(request_id)
                    outcomes.append("ok")
                except ServerError as error:
                    assert error.kind == "busy", error.kind
                    outcomes.append("busy")
            assert outcomes.count("ok") >= 1
            assert outcomes.count("busy") >= 1, outcomes
            # The busy spell is transient: the entry serves again.
            client.simulate("mult4", slow)
            assert client.stats()["busy_rejections"] >= 1
    finally:
        stop_server(server)


def test_idle_entry_admits_batch_larger_than_queue_depth(c17):
    """An oversize batch must be runnable (depth bounds *extra* queueing,
    otherwise 'busy: retry' would be a permanent lie for that batch)."""
    server = start_server(pool_workers=1, queue_depth=2)
    try:
        with SimulationClient(server.host, server.port) as client:
            client.register("c17", {"kind": "builtin", "name": "c17"},
                            workers=1)
            stimuli = random_vector_batch(
                [net.name for net in c17.primary_inputs],
                batch=5, count=1, period=3.0, base_seed=17,
            )
            results = client.simulate_batch("c17", stimuli)  # 5 > depth 2
            assert len(results) == 5
    finally:
        stop_server(server)


# ----------------------------------------------------------------------
# registration lifecycle
# ----------------------------------------------------------------------

def test_register_is_idempotent_but_conflicts_on_mismatch(client):
    first = client.register("idem", {"kind": "builtin", "name": "c17"})
    assert first["created"] is True
    second = client.register("idem", {"kind": "builtin", "name": "c17"})
    assert second["created"] is False
    with pytest.raises(ServerError) as conflict:
        client.register("idem", {"kind": "builtin", "name": "chain8"})
    assert conflict.value.kind == "conflict"
    with pytest.raises(ServerError) as knobs:
        client.register("idem", {"kind": "builtin", "name": "c17"},
                        mode="cdm")
    assert knobs.value.kind == "conflict"


def test_register_ignores_a_legacy_transport_field(client, c17):
    """Older clients sent a boolean field to pick the pool's result
    transport; the server ignores it and serves the exact in-process
    results."""
    registered = client.call(
        "register", name="legacy-transport",
        source={"kind": "builtin", "name": "c17"},
        mode="ddm", engine="compiled", shm=True,
    )
    assert registered["created"] is True
    stimuli = random_vector_batch(
        [net.name for net in c17.primary_inputs],
        batch=4, count=3, period=2.0, base_seed=17,
    )
    remote = client.simulate_batch("legacy-transport", stimuli)
    local = simulate_batch(
        c17, stimuli, config=ddm_config(), engine_kind="compiled"
    )
    for position in range(len(stimuli)):
        assert_results_identical(
            remote[position], local[position],
            context="legacy register vector %d" % position,
        )


def test_unregister_frees_the_name(client, c17):
    client.register("transient", {"kind": "builtin", "name": "c17"})
    stimulus = random_vectors(
        [net.name for net in c17.primary_inputs], count=1, period=3.0, seed=1
    )
    client.simulate("transient", stimulus)
    assert client.unregister("transient")["closed"] is True
    assert "transient" not in {
        entry["name"] for entry in client.list_netlists()
    }
    with pytest.raises(ServerError) as unknown:
        client.simulate("transient", stimulus)
    assert unknown.value.kind == "unknown-netlist"
    # The name is reusable (even with different knobs).
    assert client.register(
        "transient", {"kind": "builtin", "name": "c17"}, mode="cdm"
    )["created"] is True


def test_capacity_limit():
    server = start_server(max_netlists=1)
    try:
        with SimulationClient(server.host, server.port) as client:
            client.register("one", {"kind": "builtin", "name": "c17"})
            with pytest.raises(ServerError) as full:
                client.register("two", {"kind": "builtin", "name": "chain8"})
            assert full.value.kind == "capacity"
    finally:
        stop_server(server)


def test_bad_sources_are_rejected(client):
    with pytest.raises(ServerError) as unknown_builtin:
        client.register("nope", {"kind": "builtin", "name": "warp-core"})
    assert unknown_builtin.value.kind == "bad-source"
    with pytest.raises(ServerError) as bad_bench:
        client.register("nope", {"kind": "bench", "text": "y = FROB(a)"})
    assert bad_bench.value.kind == "bad-source"
    with pytest.raises(ServerError) as bad_kind:
        client.register("nope", {"kind": "verilog", "text": "module m;"})
    assert bad_kind.value.kind == "bad-source"


# ----------------------------------------------------------------------
# protocol errors
# ----------------------------------------------------------------------

def _raw_exchange(server, lines):
    """Send raw lines on a fresh socket; return one parsed frame per line."""
    with socket.create_connection(
        (server.host, server.port), timeout=10
    ) as sock:
        file = sock.makefile("rwb")
        for line in lines:
            file.write(line.encode() + b"\n")
        file.flush()
        return [json.loads(file.readline()) for _ in lines]


def test_malformed_frames_get_error_frames(server):
    """Garbage never kills the connection; every line gets a reply."""
    replies = _raw_exchange(server, [
        "this is not json",
        "[1, 2, 3]",
        '{"id": 9, "op": "warp"}',
        '{"id": 10, "op": "simulate"}',
        '{"id": 11, "op": "ping"}',
    ])
    assert replies[0]["ok"] is False
    assert replies[0]["error"]["kind"] == "bad-frame"
    assert replies[0]["id"] is None
    assert replies[1]["error"]["kind"] == "bad-frame"
    assert replies[2]["ok"] is False
    assert replies[2]["id"] == 9
    assert replies[2]["error"]["kind"] == "bad-op"
    assert replies[3]["id"] == 10
    assert replies[3]["error"]["kind"] == "unknown-netlist"
    # The connection survived all of the above.
    assert replies[4]["ok"] is True
    assert replies[4]["result"]["server"] == "halotis"


def test_oversized_frame_gets_error_then_disconnect():
    """A line past max_frame_bytes is answered (frame-too-large) and the
    desynchronised connection is closed — never a silent hang."""
    server = start_server(max_frame_bytes=4096)
    try:
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            file = sock.makefile("rwb")
            huge = json.dumps({
                "id": 1, "op": "register", "name": "big",
                "source": {"kind": "bench", "text": "x" * 10000},
            })
            file.write(huge.encode() + b"\n")
            file.flush()
            reply = json.loads(file.readline())
            assert reply["ok"] is False
            assert reply["error"]["kind"] == "frame-too-large"
            assert file.readline() == b""  # server hung up
    finally:
        stop_server(server)


def test_startup_failure_is_signalled_not_timed_out():
    """A taken port must fail wait_ready() promptly with the OS error
    recorded, not after the waiter's full timeout."""
    import time

    with socket.socket() as occupant:
        occupant.bind(("127.0.0.1", 0))
        occupant.listen(1)
        taken_port = occupant.getsockname()[1]
        server = SimulationServer(port=taken_port)
        start = time.monotonic()
        with pytest.raises(ServerError, match="failed to bind"):
            server.start_background(30.0)
        assert time.monotonic() - start < 10.0
        assert server.startup_error is not None
        assert server.wait_stopped(5.0)


def test_fire_and_forget_shutdown_still_stops_the_server():
    """A client that sends shutdown and hangs up without reading the
    reply must still stop the server."""
    server = start_server()
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        sock.sendall(b'{"id": 1, "op": "shutdown"}\n')
        # close immediately: the response write may fail server-side
    assert server.wait_stopped(30.0), "server ignored fire-and-forget shutdown"
    assert server.stop_and_join(5.0)


def test_invalid_stimulus_maps_to_error_frame(client, c17):
    client.register("c17", {"kind": "builtin", "name": "c17"})
    with pytest.raises(ServerError) as bad_shape:
        client.call("simulate", netlist="c17", vector={"steps": "nope"})
    assert bad_shape.value.kind == "invalid-stimulus"
    with pytest.raises(ServerError) as bad_net:
        client.call("simulate", netlist="c17", vector={
            "steps": [[0.0, {"not-a-net": 1}]],
        })
    assert bad_net.value.kind == "simulation-error"
    # The entry still serves good vectors afterwards.
    good = random_vectors(
        [net.name for net in c17.primary_inputs], count=1, period=3.0, seed=2
    )
    client.simulate("c17", good)


def test_stats_and_ping_surface(client):
    pong = client.ping()
    assert pong["server"] == "halotis"
    stats = client.stats()
    assert stats["vectors_served"] >= 0
    assert stats["queue_depth"] >= 1
    assert isinstance(stats["netlists"], list)


# ----------------------------------------------------------------------
# the experiments front end
# ----------------------------------------------------------------------

def test_run_halotis_remote_matches_local(client):
    """Both paper sequences through the server, as one batch frame over
    a builtin mult4 registration, equal the local ``run_halotis``."""
    for mode in (DelayMode.DDM, DelayMode.CDM):
        name = "paper-mult4.%s" % mode.value
        client.register(name, {"kind": "builtin", "name": "mult4"},
                        mode=mode.value, engine_kind="compiled", workers=2)
        batch = client.simulate_batch(name, common.paper_stimulus_batch())
        for which in (1, 2):
            single = common.run_halotis(which, mode, engine_kind="compiled")
            result = batch[which - 1]
            assert_results_identical(
                result, single, context="remote %s seq %d" % (mode, which)
            )
            assert common.settled_words_logic(result, which) == (
                common.expected_words(which)
            )


# ----------------------------------------------------------------------
# the CLI front end
# ----------------------------------------------------------------------

def test_cli_connect_matches_local_run(server, capsys):
    from repro.cli import main

    address = "%s:%d" % (server.host, server.port)
    argv = ["simulate", "--circuit", "c17", "--vectors", "4",
            "--engine", "compiled", "--seed", "3"]
    assert main(argv) == 0
    local_out = capsys.readouterr().out
    assert main(argv + ["--connect", address]) == 0
    remote_out = capsys.readouterr().out
    assert "server: %s" % address in remote_out
    pick = lambda text: [line for line in text.splitlines()
                         if "events" in line or "toggles" in line]
    assert pick(local_out) == pick(remote_out)


def test_cli_connect_batch(server, capsys):
    from repro.cli import main

    address = "%s:%d" % (server.host, server.port)
    assert main([
        "simulate", "--circuit", "c17", "--batch", "3", "--vectors", "2",
        "--connect", address,
    ]) == 0
    out = capsys.readouterr().out
    assert "HALOTIS-DDM (batch)" in out
    assert "vectors:                3" in out


def test_cli_connect_rejects_local_pool_flags(server, capsys):
    from repro.cli import main

    address = "%s:%d" % (server.host, server.port)
    assert main([
        "simulate", "--circuit", "c17", "--connect", address,
        "--pool-workers", "2", "--batch", "2",
    ]) == 1
    assert "server-side" in capsys.readouterr().err
    assert main([
        "simulate", "--circuit", "c17", "--connect", address,
        "--stdin-vectors",
    ]) == 1
    assert "alternatives" in capsys.readouterr().err


def test_cli_connect_validation_precedes_registration(server, capsys):
    """A doomed invocation (--vcd in batch mode) must not leave a
    netlist consuming a server slot."""
    from repro.cli import main

    address = "%s:%d" % (server.host, server.port)
    assert main([
        "simulate", "--circuit", "parity8", "--batch", "2",
        "--vcd", "w.vcd", "--connect", address,
    ]) == 1
    assert "--vcd applies to single runs" in capsys.readouterr().err
    with SimulationClient(server.host, server.port) as probe:
        names = {entry["name"] for entry in probe.list_netlists()}
    assert not any(name.startswith("parity8") for name in names), names


def test_cli_connect_refused_is_a_clean_error(capsys):
    from repro.cli import main

    # Grab a port nothing listens on.
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    assert main([
        "simulate", "--circuit", "c17",
        "--connect", "127.0.0.1:%d" % free_port,
    ]) == 1
    assert "cannot connect" in capsys.readouterr().err


def test_parse_address():
    assert parse_address("10.0.0.1:8047") == ("10.0.0.1", 8047)
    assert parse_address("localhost:80") == ("localhost", 80)
    assert parse_address("somehost", default_port=7) == ("somehost", 7)
    # IPv6: bracketed form carries a port, bare form is all host.
    assert parse_address("[::1]:8047") == ("::1", 8047)
    assert parse_address("::1", default_port=7) == ("::1", 7)
    assert parse_address("[fe80::2]", default_port=9) == ("fe80::2", 9)
    for bad in ("host:", "host:notaport", "host:99999999", "[::1", "[::1]x80"):
        with pytest.raises(ServerError):
            parse_address(bad)


# ----------------------------------------------------------------------
# shutdown
# ----------------------------------------------------------------------

def test_graceful_shutdown_drains_and_refuses_new_connections(c17):
    server = start_server(pool_workers=1)
    client = SimulationClient(server.host, server.port)
    client.register("c17", {"kind": "builtin", "name": "c17"})
    stimulus = random_vectors(
        [net.name for net in c17.primary_inputs], count=2, period=3.0, seed=9
    )
    local = simulate(c17, stimulus, config=ddm_config(),
                     engine_kind="compiled")
    assert_results_identical(
        client.simulate("c17", stimulus), local, context="pre-shutdown"
    )
    # A second client sitting idle must not block shutdown (on
    # Python >= 3.12.1 Server.wait_closed() waits for every handler, so
    # connections have to be force-closed first).
    idle = SimulationClient(server.host, server.port)
    assert client.shutdown()["stopping"] is True
    assert server.stop_and_join(30.0)
    idle.close()
    client.close()
    with pytest.raises(ServerError) as refused:
        SimulationClient(server.host, server.port, timeout=2.0)
    assert refused.value.kind == "connection"


def test_wait_for_server_times_out_fast():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    with pytest.raises(ServerError) as nobody:
        wait_for_server("127.0.0.1", free_port, timeout=0.3)
    assert nobody.value.kind == "connection"


# ----------------------------------------------------------------------
# the wire codec itself
# ----------------------------------------------------------------------

def test_result_codec_roundtrip_is_lossless(mult4):
    result = simulate(
        mult4, common.paper_stimulus(1), config=ddm_config(),
        engine_kind="compiled",
    )
    # Through actual JSON text: floats must survive repr round-trip.
    rebuilt = jsonl_protocol.result_from_dict(
        json.loads(json.dumps(jsonl_protocol.result_to_dict(result)))
    )
    assert_results_identical(rebuilt, result, context="codec roundtrip")
    assert rebuilt.stats.runtime_seconds == result.stats.runtime_seconds
    assert rebuilt.simulator is None


# ----------------------------------------------------------------------
# static timing op
# ----------------------------------------------------------------------

def test_sta_op_returns_windows_and_hazards(client):
    client.register("c17.sta", {"kind": "builtin", "name": "c17"})
    payload = client.sta("c17.sta", k_paths=2)
    assert set(payload) == {"netlist", "sta", "hazards"}
    assert payload["netlist"] == "c17.sta"
    sta = payload["sta"]
    assert len(sta["windows"]) == sta["nets"]
    assert len(sta["critical_paths"]) == 2
    hazards = payload["hazards"]
    assert set(hazards) == {
        "rejection_window", "generator_candidates", "flagged", "carriers",
    }
    assert hazards["flagged"]  # c17 reconverges


def test_sta_op_unknown_netlist(client):
    with pytest.raises(ServerError) as excinfo:
        client.sta("never-registered")
    assert excinfo.value.kind == "unknown-netlist"


def test_sta_op_rejects_bad_k(client):
    client.register("c17.sta2", {"kind": "builtin", "name": "c17"})
    with pytest.raises(ServerError) as excinfo:
        client.call("sta", netlist="c17.sta2", k=-1)
    assert excinfo.value.kind == "bad-frame"
