//! End-to-end daemon tests: a live server on a real socket, driven by the
//! deterministic client, covering the request mix, the result cache, the
//! isolation boundaries (wall-clock timeout, instruction budget), load
//! shedding, and drain-then-exit shutdown.

use rfh_rfhd::client::{Client, ClientError, RetryPolicy};
use rfh_rfhd::json::Json;
use rfh_rfhd::proto::{self, ErrorKind};
use rfh_rfhd::server::{Endpoint, Server, ServerConfig, ServerHandle};

const AXPY: &str = "
.kernel axpy
BB0:
  mov r0, %tid.x
  ld.global r1 r0
  ffma r2 r1, 2.0f, r1
  st.global r0, r2
  exit
";

/// Runs forever (until an instruction budget or wall-clock timeout stops
/// it): the final unconditional backward branch is a legal terminator.
const SPIN: &str = "
.kernel spin
BB0:
  mov r0, %tid.x
  iadd r0 r0, 1
  bra BB0
";

fn spawn_tcp(mut cfg_mut: impl FnMut(&mut ServerConfig)) -> ServerHandle {
    let mut cfg = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".to_string()));
    cfg.workers = 2;
    cfg.timeout_ms = 2_000;
    cfg.io_timeout_ms = 2_000;
    cfg_mut(&mut cfg);
    Server::spawn(cfg).expect("bind 127.0.0.1:0")
}

fn client(endpoint: &Endpoint) -> Client {
    Client::new(
        endpoint.clone(),
        RetryPolicy {
            attempts: 3,
            base_ms: 5,
            cap_ms: 50,
            seed: 0xC0FFEE,
        },
    )
}

fn op_kernel(op: &str, kernel: &str) -> Vec<(String, Json)> {
    vec![
        ("op".to_string(), Json::str(op)),
        ("kernel".to_string(), Json::str(kernel)),
    ]
}

fn expect_frame(result: Result<(Json, bool), ClientError>, kind: ErrorKind) -> proto::ErrorFrame {
    match result {
        Err(ClientError::Frame(f)) => {
            assert_eq!(f.kind, kind, "frame: {f}");
            f
        }
        other => panic!("expected a {} frame, got {other:?}", kind.name()),
    }
}

fn shutdown_and_join(handle: ServerHandle) -> rfh_rfhd::server::ServerReport {
    let mut c = client(&handle.endpoint);
    c.simple("shutdown").expect("shutdown acknowledged");
    let report = handle.join().expect("server exits cleanly");
    assert_eq!(report.in_flight_at_exit, 0, "drain leaves no connection");
    report
}

#[test]
fn tcp_round_trip_mix_cache_and_shutdown() {
    let handle = spawn_tcp(|_| {});
    let mut c = client(&handle.endpoint);

    // ping
    let (pong, cached) = c.simple("ping").expect("ping");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    assert!(!cached);

    // assemble returns the canonical text
    let (asm, _) = c.request(op_kernel("assemble", AXPY)).expect("assemble");
    assert!(asm
        .get("text")
        .and_then(Json::as_str)
        .expect("text")
        .contains(".kernel axpy"));

    // allocate annotates and reports stats
    let (alloc, _) = c.request(op_kernel("allocate", AXPY)).expect("allocate");
    assert!(alloc.get("stats").is_some());

    // simulate a named workload, verified against the host reference
    let wl = vec![
        ("op".to_string(), Json::str("simulate")),
        ("workload".to_string(), Json::str("vectoradd")),
    ];
    let (sim, cached) = c.request(wl.clone()).expect("simulate");
    assert_eq!(sim.get("verified"), Some(&Json::Bool(true)));
    assert!(!cached, "first run computes");

    // the identical request is a cache hit
    let (sim2, cached) = c.request(wl).expect("simulate again");
    assert_eq!(sim2, sim, "cached result is identical");
    assert!(cached, "second run is served from cache");

    // stats reflect the traffic
    let (stats, _) = c.simple("stats").expect("stats");
    let cache = stats.get("cache").expect("cache block");
    assert!(cache.get("hits").and_then(Json::as_u64) >= Some(1));
    assert!(stats.get("served").and_then(Json::as_u64) >= Some(5));

    let report = shutdown_and_join(handle);
    assert_eq!(report.compute_panics, 0);
    assert_eq!(report.pool_panics, 0);
}

#[test]
fn engine_field_is_ignored_and_shares_the_result_cache_entry() {
    // The wire carries no engine selector: an `engine` field is an
    // unknown field like any other, so it neither changes the result nor
    // splits the result-cache key.
    let handle = spawn_tcp(|_| {});
    let mut c = client(&handle.endpoint);
    let plain = vec![
        ("op".to_string(), Json::str("simulate")),
        ("workload".to_string(), Json::str("vectoradd")),
    ];
    let (first, cached) = c.request(plain.clone()).expect("simulate");
    assert!(!cached, "first run computes");
    for engine in ["reference", "turbo"] {
        let mut tagged = plain.clone();
        tagged.push(("engine".to_string(), Json::str(engine)));
        let (again, cached) = c.request(tagged).expect("simulate with engine");
        assert!(cached, "engine={engine}: served from the same cache entry");
        assert_eq!(again, first, "engine={engine}");
    }
    shutdown_and_join(handle);
}

#[test]
fn unix_socket_round_trip() {
    let dir = std::env::temp_dir().join(format!("rfhd-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let sock = dir.join("daemon.sock");
    let mut cfg = ServerConfig::new(Endpoint::Unix(sock.clone()));
    cfg.workers = 1;
    let handle = Server::spawn(cfg).expect("bind unix socket");
    let mut c = client(&handle.endpoint);
    let (pong, _) = c.simple("ping").expect("ping over unix socket");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    shutdown_and_join(handle);
    assert!(!sock.exists(), "socket file is cleaned up on exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wall_clock_timeout_is_a_structured_frame_and_does_not_poison() {
    let handle = spawn_tcp(|cfg| cfg.timeout_ms = 200);
    let mut c = client(&handle.endpoint);
    let mut req = op_kernel("simulate", SPIN);
    req.push(("timeout_ms".to_string(), Json::u64(100)));
    let f = expect_frame(c.request(req), ErrorKind::Timeout);
    assert_eq!(f.kind.exit_code(), 9);
    // The daemon (and even this connection's worker) keeps serving.
    let (pong, _) = c.simple("ping").expect("daemon alive after timeout");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    let report = shutdown_and_join(handle);
    assert_eq!(report.timeouts, 1);
}

#[test]
fn instruction_budget_is_threaded_through_the_executor() {
    let handle = spawn_tcp(|_| {});
    let mut c = client(&handle.endpoint);
    let mut req = op_kernel("simulate", SPIN);
    req.push(("budget_instructions".to_string(), Json::u64(1_000)));
    let f = expect_frame(c.request(req), ErrorKind::Exec);
    assert!(
        f.message.contains("instruction budget"),
        "budget halt, not a timeout: {}",
        f.message
    );
    shutdown_and_join(handle);
}

#[test]
fn cycle_budget_is_threaded_through_the_timing_model() {
    let handle = spawn_tcp(|_| {});
    let mut c = client(&handle.endpoint);
    let mut req = op_kernel("timing", AXPY);
    req.push(("budget_cycles".to_string(), Json::u64(1)));
    expect_frame(c.request(req), ErrorKind::Timing);
    shutdown_and_join(handle);
}

#[test]
fn pipeline_failures_come_back_in_their_own_classes() {
    let handle = spawn_tcp(|_| {});
    let mut c = client(&handle.endpoint);
    expect_frame(
        c.request(op_kernel("assemble", "not a kernel")),
        ErrorKind::Parse,
    );
    expect_frame(
        c.request(vec![
            ("op".to_string(), Json::str("simulate")),
            ("workload".to_string(), Json::str("nope")),
        ]),
        ErrorKind::Usage,
    );
    // Lint errors carry the diagnostics as structured detail.
    let undef = "
.kernel undef
BB0:
  iadd r1 r0, 1
  st.global r1, r1
  exit
";
    let f = expect_frame(c.request(op_kernel("lint", undef)), ErrorKind::Lint);
    let detail = f.detail.expect("lint frames carry diagnostics");
    assert!(matches!(&detail, Json::Arr(lines) if !lines.is_empty()));
    shutdown_and_join(handle);
}

#[test]
fn full_queue_sheds_with_retry_hint_and_client_backoff_recovers() {
    let handle = spawn_tcp(|cfg| {
        cfg.workers = 1;
        cfg.queue_depth = 1;
        cfg.io_timeout_ms = 300; // idle occupiers are released quickly
    });
    let Endpoint::Tcp(addr) = handle.endpoint.clone() else {
        panic!("tcp endpoint")
    };

    // Two idle connections: one occupies the only worker, one fills the
    // only queue slot. Stagger them so admission order is deterministic.
    let hold_a = std::net::TcpStream::connect(&addr).expect("occupier A");
    std::thread::sleep(std::time::Duration::from_millis(50));
    let hold_b = std::net::TcpStream::connect(&addr).expect("occupier B");
    std::thread::sleep(std::time::Duration::from_millis(50));

    // A third connection must be shed in-band, not silently dropped.
    // The shed frame is written at accept time, before the request is
    // ever read, so the victim must not send first: a write racing with
    // the server's close draws an RST that can both fail the send and
    // discard the buffered response. Just read.
    let mut raw = std::net::TcpStream::connect(&addr).expect("shed victim");
    let frame = proto::read_frame(&mut raw, proto::DEFAULT_MAX_FRAME)
        .expect("shed response")
        .expect("a frame, not a bare close");
    let (_, outcome) = proto::decode_response(&frame).expect("decodes");
    let err = outcome.expect_err("overloaded frame");
    assert_eq!(err.kind, ErrorKind::Overloaded);
    assert!(err.retry_after_ms.is_some(), "shed carries a retry hint");

    // A retrying client gets through once the idle occupiers are
    // disconnected by the io timeout.
    let mut c = Client::new(
        handle.endpoint.clone(),
        RetryPolicy {
            attempts: 10,
            base_ms: 50,
            cap_ms: 400,
            seed: 11,
        },
    );
    let (pong, _) = c.simple("ping").expect("backoff rides out the overload");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    drop((hold_a, hold_b));

    let report = shutdown_and_join(handle);
    assert!(report.shed >= 1, "the shed connection is counted");
}

#[test]
fn per_connection_pipelining_preserves_order_and_survives_bad_json() {
    // Drive the raw protocol: several frames on one connection, including
    // a malformed one mid-stream; each gets exactly one response, in
    // order, and the bad JSON poisons nothing.
    let handle = spawn_tcp(|_| {});
    let Endpoint::Tcp(addr) = handle.endpoint.clone() else {
        panic!("tcp endpoint")
    };
    let mut conn = std::net::TcpStream::connect(&addr).expect("connect");
    let reqs = [
        "{\"schema\":\"rfhd-v1\",\"id\":1,\"op\":\"ping\"}".to_string(),
        "{this is not json".to_string(),
        "{\"schema\":\"rfhd-v1\",\"id\":3,\"op\":\"ping\"}".to_string(),
    ];
    for r in &reqs {
        proto::write_frame(&mut conn, r).expect("send");
    }
    let mut ids = Vec::new();
    let mut oks = Vec::new();
    for _ in 0..reqs.len() {
        let frame = proto::read_frame(&mut conn, proto::DEFAULT_MAX_FRAME)
            .expect("read")
            .expect("response");
        let (id, outcome) = proto::decode_response(&frame).expect("decodes");
        ids.push(id);
        oks.push(outcome.is_ok());
    }
    assert_eq!(ids, vec![1, 0, 3], "in order; the bad frame has no id");
    assert_eq!(oks, vec![true, false, true]);
    drop(conn);
    shutdown_and_join(handle);
}

#[test]
fn non_numeric_id_draws_a_usage_frame_over_the_wire() {
    // Regression: a present-but-non-numeric `id` used to be silently
    // coerced to 0 and the request served; it must be refused in-band.
    let handle = spawn_tcp(|_| {});
    let Endpoint::Tcp(addr) = handle.endpoint.clone() else {
        panic!("tcp endpoint")
    };
    let mut conn = std::net::TcpStream::connect(&addr).expect("connect");
    for bad in [
        "{\"schema\":\"rfhd-v1\",\"id\":\"7\",\"op\":\"ping\"}",
        "{\"schema\":\"rfhd-v1\",\"id\":true,\"op\":\"ping\"}",
        "{\"schema\":\"rfhd-v1\",\"id\":-1,\"op\":\"ping\"}",
    ] {
        proto::write_frame(&mut conn, bad).expect("send");
        let frame = proto::read_frame(&mut conn, proto::DEFAULT_MAX_FRAME)
            .expect("read")
            .expect("response");
        let (id, outcome) = proto::decode_response(&frame).expect("decodes");
        assert_eq!(id, 0, "no usable id to echo");
        let err = outcome.expect_err("usage frame");
        assert_eq!(err.kind, ErrorKind::Usage, "{bad}");
        assert!(err.message.contains("id"), "{bad}: {}", err.message);
    }
    // The connection is not poisoned: a well-formed request still works.
    proto::write_frame(
        &mut conn,
        "{\"schema\":\"rfhd-v1\",\"id\":8,\"op\":\"ping\"}",
    )
    .expect("send");
    let frame = proto::read_frame(&mut conn, proto::DEFAULT_MAX_FRAME)
        .expect("read")
        .expect("response");
    let (id, outcome) = proto::decode_response(&frame).expect("decodes");
    assert_eq!(id, 8);
    assert!(outcome.is_ok());
    drop(conn);
    shutdown_and_join(handle);
}

#[test]
fn strand_cache_is_warmed_and_reported_by_stats() {
    let handle = spawn_tcp(|_| {});
    let mut c = client(&handle.endpoint);

    // A cold allocate populates the strand cache.
    let (cold, _) = c.request(op_kernel("allocate", AXPY)).expect("allocate");
    let stats = cold.get("stats").expect("stats");
    let misses = stats
        .get("strand_misses")
        .and_then(Json::as_u64)
        .expect("strand_misses reported");
    assert_eq!(stats.get("strand_hits").and_then(Json::as_u64), Some(0));
    assert!(misses > 0);

    // An edited kernel (same strand structure except one instruction)
    // re-runs allocation for the changed strand only; the result cache
    // misses (different canonical request) but the strand cache hits.
    let edited = AXPY.replace("2.0f", "3.0f");
    let (warm, cached) = c.request(op_kernel("allocate", &edited)).expect("edited");
    assert!(!cached, "an edited kernel is a distinct result-cache entry");
    let wstats = warm.get("stats").expect("stats");
    let hits = wstats
        .get("strand_hits")
        .and_then(Json::as_u64)
        .expect("strand_hits reported");
    assert!(hits > 0, "unchanged strands splice from the strand cache");

    // The server-level stats op reports the strand cache alongside the
    // result cache.
    let (server_stats, _) = c.simple("stats").expect("stats op");
    let sc = server_stats
        .get("strand_cache")
        .expect("strand_cache block");
    assert!(sc.get("hits").and_then(Json::as_u64) >= Some(1));
    assert!(sc.get("entries").and_then(Json::as_u64) >= Some(1));
    assert!(sc.get("capacity").and_then(Json::as_u64).is_some());

    shutdown_and_join(handle);
}
