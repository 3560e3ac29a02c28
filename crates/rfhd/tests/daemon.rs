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
const SPIN: &str = include_str!("../../../examples/spin.rfasm");

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

    // Two idle connections fill the connection cap of `workers +
    // queue_depth` = 2; neither holds the worker, which stays idle.
    // Stagger them so admission order is deterministic.
    let hold_a = std::net::TcpStream::connect(&addr).expect("occupier A");
    std::thread::sleep(std::time::Duration::from_millis(50));
    let hold_b = std::net::TcpStream::connect(&addr).expect("occupier B");
    std::thread::sleep(std::time::Duration::from_millis(50));

    // A third connection must be shed in-band, not silently dropped.
    // The shed frame is written at accept time, before any request is
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
    // disconnected by the io timeout and their connection threads end.
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

/// Sends one raw frame on `conn` and decodes the answer.
fn raw_roundtrip(
    conn: &mut std::net::TcpStream,
    payload: &str,
) -> Result<(Json, bool), proto::ErrorFrame> {
    proto::write_frame(conn, payload).expect("send");
    let frame = proto::read_frame(conn, proto::DEFAULT_MAX_FRAME)
        .expect("read")
        .expect("response");
    proto::decode_response(&frame).expect("decodes").1
}

#[test]
fn a_full_request_queue_sheds_the_request_and_keeps_the_connection() {
    let handle = spawn_tcp(|cfg| {
        cfg.workers = 1;
        cfg.queue_depth = 1;
    });
    let Endpoint::Tcp(addr) = handle.endpoint.clone() else {
        panic!("tcp endpoint")
    };
    let mut conn = std::net::TcpStream::connect(&addr).expect("connect");
    let spin = Json::Obj(vec![
        ("schema".to_string(), Json::str(proto::SCHEMA)),
        ("op".to_string(), Json::str("simulate")),
        ("kernel".to_string(), Json::str(SPIN)),
        ("timeout_ms".to_string(), Json::u64(50)),
    ])
    .render();
    // The first spin starts on the idle worker and times out, but keeps
    // the worker until its instruction budget stops it (about a second
    // at the default budget). The second finds the worker busy and times
    // out in the only queue slot, which it holds until the worker frees.
    for _ in 0..2 {
        let err = raw_roundtrip(&mut conn, &spin).expect_err("timeout frame");
        assert_eq!(err.kind, ErrorKind::Timeout, "{err}");
    }
    // A third compute request on the same open connection is shed.
    let ping = "{\"schema\":\"rfhd-v1\",\"id\":3,\"op\":\"ping\"}";
    let err = raw_roundtrip(&mut conn, ping).expect_err("overloaded frame");
    assert_eq!(err.kind, ErrorKind::Overloaded, "{err}");
    assert!(err.retry_after_ms.is_some(), "shed carries a retry hint");
    // The connection stays open and answers `stats`, served inline.
    let stats = "{\"schema\":\"rfhd-v1\",\"id\":4,\"op\":\"stats\"}";
    let (stats, _) = raw_roundtrip(&mut conn, stats).expect("stats");
    assert_eq!(stats.get("shed").and_then(Json::as_u64), Some(1));
    drop(conn);
    let report = shutdown_and_join(handle);
    assert_eq!((report.shed, report.timeouts), (1, 2));
}

#[test]
fn idle_and_stalled_connections_hold_no_worker() {
    use std::io::Write;
    let handle = spawn_tcp(|cfg| cfg.io_timeout_ms = 10_000);
    let Endpoint::Tcp(addr) = handle.endpoint.clone() else {
        panic!("tcp endpoint")
    };
    // `workers` idle connections and `workers` slow writers stalled
    // mid-frame: each holds a connection thread, none a worker.
    let mut held = Vec::new();
    for _ in 0..2 {
        held.push(std::net::TcpStream::connect(&addr).expect("idle"));
        let mut slow = std::net::TcpStream::connect(&addr).expect("slow writer");
        slow.write_all(&[0, 0, 0, 40, b'{']).expect("partial frame");
        held.push(slow);
    }
    // The listener accepts in arrival order, so all four are admitted
    // before the ping's connection.
    let start = std::time::Instant::now();
    let (pong, _) = client(&handle.endpoint).simple("ping").expect("ping");
    let elapsed = start.elapsed();
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    assert!(
        elapsed < std::time::Duration::from_millis(100),
        "ping took {elapsed:?} behind idle and stalled connections"
    );
    drop(held);
    shutdown_and_join(handle);
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

/// The golden trace kernel: three strands, a loop and an SFU op.
const TRACE_GOLDEN: &str = include_str!("../../../examples/trace_golden.rfasm");

fn stat(doc: &Json, block: &str, key: &str) -> u64 {
    doc.get(block)
        .and_then(|b| b.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("{block}.{key} reported"))
}

#[test]
fn timing_replays_the_baseline_trace_whatever_the_config() {
    use rfh_sim::exec::{execute_with, ExecMode};
    use rfh_sim::machine::MachineConfig;
    use rfh_sim::timing::{simulate_timing, TimingConfig, TraceCapture};

    let handle = spawn_tcp(|_| {});
    let mut c = client(&handle.endpoint);
    // mandelbrot's loop trip count and histogram's bins are data
    // dependent, so their warps diverge.
    for name in ["vectoradd", "reduction", "mandelbrot", "histogram"] {
        let w = rfh_workloads::by_name(name).expect("known workload");
        let machine = MachineConfig::paper();
        let mut cap = TraceCapture::new(machine.clone(), w.launch.threads_per_cta);
        let mut mem = w.memory.clone();
        execute_with(
            &w.kernel,
            &w.launch,
            &mut mem,
            ExecMode::Baseline,
            &machine,
            &mut [&mut cap],
        )
        .expect("baseline run");
        // The active-warp counts of rfhbench's daemon_edit mix.
        for active in [1u64, 2, 4, 6, 8, 16, 32] {
            let want = simulate_timing(
                &cap.traces,
                &|w| cap.cta_of(w),
                &TimingConfig::two_level(active as usize),
            )
            .expect("times");
            // An allocating, non-default configuration: placement sets
            // energy, not latency, so neither field reaches the answer.
            let (got, _) = c
                .request(vec![
                    ("op".to_string(), Json::str("timing")),
                    ("workload".to_string(), Json::str(name)),
                    ("baseline".to_string(), Json::Bool(false)),
                    (
                        "config".to_string(),
                        Json::Obj(vec![
                            ("orf".to_string(), Json::u64(1)),
                            ("lrf".to_string(), Json::str("unified")),
                            ("partial".to_string(), Json::Bool(false)),
                        ]),
                    ),
                    ("active_warps".to_string(), Json::u64(active)),
                ])
                .expect("timing");
            let field = |k: &str| got.get(k).and_then(Json::as_u64);
            assert_eq!(field("cycles"), Some(want.cycles), "{name} @{active}");
            assert_eq!(
                field("instructions"),
                Some(want.instructions),
                "{name} @{active}"
            );
            assert_eq!(
                field("deschedules"),
                Some(want.deschedules),
                "{name} @{active}"
            );
            assert_eq!(
                got.get("ipc").and_then(Json::as_f64),
                Some((want.ipc() * 1e6).round() / 1e6),
                "{name} @{active}"
            );
        }
    }
    // Timing never allocates, so it never touches the strand cache.
    let (stats, _) = c.simple("stats").expect("stats");
    assert_eq!(stat(&stats, "strand_cache", "misses"), 0);
    assert_eq!(stat(&stats, "strand_cache", "hits"), 0);
    shutdown_and_join(handle);
}

#[test]
fn timing_requests_differing_only_in_config_share_a_cache_entry() {
    // `timing` is keyed on the fields it reads; `config` is not one of
    // them, so the second request is served from the first one's entry.
    let handle = spawn_tcp(|_| {});
    let mut c = client(&handle.endpoint);
    let timing = |orf: u64| {
        vec![
            ("op".to_string(), Json::str("timing")),
            ("workload".to_string(), Json::str("vectoradd")),
            (
                "config".to_string(),
                Json::Obj(vec![("orf".to_string(), Json::u64(orf))]),
            ),
        ]
    };
    let (first, cached) = c.request(timing(3)).expect("timing");
    assert!(!cached, "first run computes");
    let (before, _) = c.simple("stats").expect("stats");
    let (second, cached) = c.request(timing(1)).expect("timing, other config");
    assert!(cached, "a config-only difference hits the cached result");
    assert_eq!(second, first);
    let (after, _) = c.simple("stats").expect("stats");
    assert_eq!(
        stat(&after, "cache", "hits"),
        stat(&before, "cache", "hits") + 1
    );
    assert_eq!(
        stat(&after, "cache", "entries"),
        stat(&before, "cache", "entries")
    );
    shutdown_and_join(handle);
}

#[test]
fn timing_rejects_a_launch_the_machine_cannot_hold() {
    let handle = spawn_tcp(|_| {});
    let mut c = client(&handle.endpoint);
    let launch = |ctas: u64| {
        let mut req = op_kernel("timing", TRACE_GOLDEN);
        req.push(("ctas".to_string(), Json::u64(ctas)));
        req.push(("threads".to_string(), Json::u64(256)));
        req
    };
    // 4 × 256 threads = 32 warps, the full residency: the answer of
    // `rfhc timing --ctas 4 --threads 256` at the default 8 active warps.
    let (ok, _) = c.request(launch(4)).expect("32 warps fit");
    assert_eq!(ok.get("cycles").and_then(Json::as_u64), Some(970));
    // 8 × 256 threads = 64 warps is refused, naming both counts.
    let f = expect_frame(c.request(launch(8)), ErrorKind::Usage);
    assert!(
        f.message.contains("64 warps") && f.message.contains("32 resident"),
        "{}",
        f.message
    );
    shutdown_and_join(handle);
}

#[test]
fn simulate_splices_every_strand_an_allocate_cached() {
    let handle = spawn_tcp(|_| {});
    let mut c = client(&handle.endpoint);
    let (alloc, _) = c
        .request(op_kernel("allocate", TRACE_GOLDEN))
        .expect("allocate");
    let strands = stat(&alloc, "stats", "strands");
    assert!(strands > 1, "a multi-strand kernel");
    let (before, _) = c.simple("stats").expect("stats");
    let (sim, cached) = c
        .request(op_kernel("simulate", TRACE_GOLDEN))
        .expect("simulate");
    assert!(!cached, "a simulate is its own result-cache entry");
    let (after, _) = c.simple("stats").expect("stats");
    assert_eq!(
        stat(&after, "strand_cache", "hits") - stat(&before, "strand_cache", "hits"),
        strands,
        "the simulate spliced every strand the allocate cached"
    );
    assert_eq!(
        stat(&after, "strand_cache", "misses"),
        stat(&before, "strand_cache", "misses"),
        "and recomputed none"
    );
    shutdown_and_join(handle);

    // A fresh daemon, with an empty strand cache, gives the same answer.
    let fresh = spawn_tcp(|_| {});
    let (cold, _) = client(&fresh.endpoint)
        .request(op_kernel("simulate", TRACE_GOLDEN))
        .expect("simulate on a fresh daemon");
    assert_eq!(sim, cold);
    shutdown_and_join(fresh);
}

#[test]
fn baseline_simulates_differing_only_in_lrf_share_a_cache_entry() {
    // A baseline `simulate` allocates nothing and prices its counts at the
    // configured ORF size only, so the LRF mode is not part of its key.
    let handle = spawn_tcp(|_| {});
    let mut c = client(&handle.endpoint);
    let simulate = |lrf: &str| {
        vec![
            ("op".to_string(), Json::str("simulate")),
            ("workload".to_string(), Json::str("vectoradd")),
            ("baseline".to_string(), Json::Bool(true)),
            (
                "config".to_string(),
                Json::Obj(vec![("lrf".to_string(), Json::str(lrf))]),
            ),
        ]
    };
    let (first, cached) = c.request(simulate("split")).expect("simulate");
    assert!(!cached, "first run computes");
    let (before, _) = c.simple("stats").expect("stats");
    let (second, cached) = c.request(simulate("none")).expect("simulate, other lrf");
    assert!(cached, "an lrf-only difference hits the cached result");
    assert_eq!(second, first);
    let (after, _) = c.simple("stats").expect("stats");
    assert_eq!(
        stat(&after, "cache", "entries"),
        stat(&before, "cache", "entries")
    );
    shutdown_and_join(handle);
}
