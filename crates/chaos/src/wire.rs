//! Wire-protocol mutators for the `rfhd` compile-service daemon.
//!
//! These model corruption *below* the request layer: the bytes a hostile
//! or broken client puts on the socket. Each fault flavor drives a live
//! daemon through one raw connection and reports what the daemon did
//! about it:
//!
//! * **well-formed** — a valid `rfhd-v1` request; must round-trip to a
//!   success payload (an `overloaded` shed under concurrent load is the
//!   one legal error);
//! * **garbage JSON** — a correctly framed payload that is not a valid
//!   request; must draw a structured `protocol`/`usage` frame *and leave
//!   the connection usable* (the framing layer resynchronizes);
//! * **ill-typed field** — a valid request carrying one optional field
//!   (`timeout_ms`, a budget, `baseline`, `config.partial` or
//!   `config.readop`) with a value of the wrong type; must draw a `usage`
//!   frame naming that field, never the field's default, and leave the
//!   connection usable;
//! * **truncated frame** — a length prefix promising more bytes than are
//!   ever sent, then a half-close;
//! * **garbage bytes** — raw junk where a frame should be, so the length
//!   prefix itself is hostile;
//! * **oversized prefix** — a length prefix beyond the daemon's frame
//!   cap;
//! * **mid-request disconnect** — a partial frame followed by a full
//!   close, modelling a client that dies mid-write;
//! * **slow writer** — a frame stalled mid-payload past the daemon's
//!   socket read timeout, modelling a wedged client that would otherwise
//!   hold its connection thread forever;
//! * **edit storm** — repeated re-submissions of one kernel with seeded
//!   single-immediate edits, interleaved with the pristine original: the
//!   daemon's incremental strand cache must never change an answer (zero
//!   divergence on the semantic fields — the `strand_hits` /
//!   `strand_misses` counters legitimately vary with cache warmth), and
//!   the strand cache must stay within its configured capacity (bounded
//!   memory).
//!
//! The contract (asserted by `harness::run_protocol_layer`): every fault
//! is answered with a structured error frame or a connection teardown —
//! never a daemon death, a hung worker, or a leaked queue slot — and a
//! fresh well-formed probe succeeds immediately afterwards.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use rfh_rfhd::client::{Client, RetryPolicy};
use rfh_rfhd::json::Json;
use rfh_rfhd::proto::{self, ErrorKind, FrameError};
use rfh_rfhd::server::{Endpoint, ServerHandle};
use rfh_testkit::prelude::*;

/// What the daemon did about one injected fault, as observed from the
/// faulty connection itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// A well-formed request round-tripped to a success payload.
    Succeeded,
    /// The fault drew a structured error frame.
    ErrorFrame,
    /// The connection ended without a decodable frame — the daemon tore
    /// it down, or the fault itself abandoned it.
    Closed,
}

/// Guard timeout for the harness's own socket reads: far above anything
/// the daemon legitimately takes, so a silent daemon fails the case fast
/// instead of hanging the suite.
const HARNESS_GUARD_MS: u64 = 5_000;

/// The well-formed request kernel (kept tiny — protocol chaos is about
/// the transport, not the pipeline).
const AXPY: &str = "
.kernel axpy
BB0:
  mov r0, %tid.x
  ld.global r1 r0
  ffma r2 r1, 2.0f, r1
  st.global r0, r2
  exit
";

/// Opens one raw connection to `addr`, injects one seeded fault flavor,
/// and reports the daemon's observable reaction.
///
/// `io_timeout_ms` must be the daemon's configured socket read timeout;
/// the slow-writer flavor stalls just past it.
///
/// # Errors
///
/// A replayable description of a contract violation: a well-formed
/// request that failed, a fault answered with a success payload, an
/// undecodable response frame, or a daemon that went silent.
pub fn inject(addr: &str, io_timeout_ms: u64, rng: &mut SmallRng) -> Result<Observation, String> {
    let conn = TcpStream::connect(addr).map_err(|e| format!("chaos dial failed: {e}"))?;
    let guard = Duration::from_millis(HARNESS_GUARD_MS);
    conn.set_read_timeout(Some(guard)).ok();
    conn.set_write_timeout(Some(guard)).ok();
    match rng.gen_range(0u32..9) {
        0 => well_formed(conn, rng),
        1 => garbage_json(conn, rng),
        2 => truncated_frame(conn, rng),
        3 => garbage_bytes(conn, rng),
        4 => oversized_prefix(conn, rng),
        5 => mid_request_disconnect(conn, rng),
        6 => slow_writer(conn, io_timeout_ms, rng),
        7 => ill_typed_field(conn, rng),
        _ => edit_storm(conn, rng),
    }
}

/// A fresh, retrying well-formed probe: proves the daemon still serves
/// after a fault. Retries ride out transient sheds from concurrently
/// running chaos cases.
///
/// # Errors
///
/// When the probe cannot get a pong — the daemon is poisoned or dead.
pub fn probe(endpoint: &Endpoint, seed: u64) -> Result<(), String> {
    let mut c = Client::new(
        endpoint.clone(),
        RetryPolicy {
            attempts: 8,
            base_ms: 5,
            cap_ms: 200,
            seed,
        },
    );
    match c.simple("ping") {
        Ok(_) => Ok(()),
        Err(e) => Err(format!(
            "post-fault probe failed — the daemon is poisoned or dead: {e}"
        )),
    }
}

/// Drains the daemon and checks the leak invariants: every admitted
/// connection finished, and no panic reached either isolation boundary.
///
/// # Errors
///
/// When shutdown fails, the server thread exited uncleanly, or the final
/// report shows leaked connections or absorbed panics.
pub fn drain(handle: ServerHandle) -> Result<(), String> {
    let mut c = Client::new(
        handle.endpoint.clone(),
        RetryPolicy {
            attempts: 8,
            base_ms: 5,
            cap_ms: 200,
            seed: 0xD7A1,
        },
    );
    c.simple("shutdown")
        .map_err(|e| format!("shutdown request failed: {e}"))?;
    let report = handle
        .join()
        .map_err(|e| format!("daemon exited uncleanly: {e}"))?;
    if report.in_flight_at_exit != 0 {
        return Err(format!(
            "drain leaked {} in-flight connection(s)",
            report.in_flight_at_exit
        ));
    }
    if report.pool_panics != 0 || report.compute_panics != 0 {
        return Err(format!(
            "daemon absorbed panics: {} pool, {} compute",
            report.pool_panics, report.compute_panics
        ));
    }
    Ok(())
}

/// One decoded response (or its absence) from the faulty connection.
enum Reply {
    Ok,
    Frame(ErrorKind, String),
    Closed,
}

fn read_one(conn: &mut TcpStream) -> Result<Reply, String> {
    match proto::read_frame(conn, proto::DEFAULT_MAX_FRAME) {
        Ok(Some(frame)) => {
            let (_, outcome) = proto::decode_response(&frame)
                .map_err(|e| format!("daemon sent an undecodable frame: {e}"))?;
            Ok(match outcome {
                Ok(_) => Reply::Ok,
                Err(f) => Reply::Frame(f.kind, f.message),
            })
        }
        Ok(None) => Ok(Reply::Closed),
        Err(FrameError::Io(e))
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            Err("daemon went silent: no frame and no close within the harness guard".into())
        }
        // A reset mid-read is a teardown, not a violation: the daemon may
        // drop a hopeless connection while our read is in flight.
        Err(FrameError::Io(_)) => Ok(Reply::Closed),
        Err(e) => Err(format!("daemon sent a malformed frame: {e}")),
    }
}

/// Renders a valid `rfhd-v1` request (seeded choice of a trivial op or a
/// kernel-carrying one, so both dispatch paths see chaos-adjacent load).
fn render_request(rng: &mut SmallRng) -> String {
    Json::Obj(request_fields(rng)).render()
}

/// The members of [`render_request`]'s request.
fn request_fields(rng: &mut SmallRng) -> Vec<(String, Json)> {
    let id = rng.gen_range(1u64..1_000_000);
    let mut fields = vec![
        ("schema".to_string(), Json::str(proto::SCHEMA)),
        ("id".to_string(), Json::u64(id)),
    ];
    if rng.gen() {
        fields.push(("op".to_string(), Json::str("ping")));
    } else {
        fields.push(("op".to_string(), Json::str("assemble")));
        fields.push(("kernel".to_string(), Json::str(AXPY)));
    }
    fields
}

fn well_formed(mut conn: TcpStream, rng: &mut SmallRng) -> Result<Observation, String> {
    let payload = render_request(rng);
    proto::write_frame(&mut conn, &payload).map_err(|e| format!("well-formed write: {e}"))?;
    match read_one(&mut conn)? {
        Reply::Ok => Ok(Observation::Succeeded),
        // Being shed under concurrent chaos load is the one legal error.
        Reply::Frame(ErrorKind::Overloaded, _) => Ok(Observation::ErrorFrame),
        Reply::Frame(kind, _) => Err(format!("well-formed request drew a {} frame", kind.name())),
        Reply::Closed => Err("well-formed request: closed without a response".into()),
    }
}

fn garbage_json(mut conn: TcpStream, rng: &mut SmallRng) -> Result<Observation, String> {
    // Printable junk in a correctly framed payload: the framing layer
    // must survive, answer a structured frame, and keep the connection.
    const CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789{}[]\":,.+-% ";
    let len = rng.gen_range(1usize..=64);
    let junk: String = (0..len)
        .map(|_| CHARSET[rng.gen_range(0..CHARSET.len())] as char)
        .collect();
    proto::write_frame(&mut conn, &junk).map_err(|e| format!("garbage-json write: {e}"))?;
    match read_one(&mut conn)? {
        Reply::Frame(ErrorKind::Overloaded, _) => Ok(Observation::ErrorFrame),
        Reply::Frame(..) => follow_up(conn, rng, "garbage JSON"),
        Reply::Ok => Err("garbage JSON produced a success response".into()),
        Reply::Closed => Err("garbage JSON answered with a bare close, not a frame".into()),
    }
}

/// After a structured error frame the framing layer resynchronized: a
/// well-formed request on the SAME connection must still succeed.
fn follow_up(mut conn: TcpStream, rng: &mut SmallRng, fault: &str) -> Result<Observation, String> {
    let payload = render_request(rng);
    proto::write_frame(&mut conn, &payload)
        .map_err(|e| format!("follow-up write after {fault}: {e}"))?;
    match read_one(&mut conn)? {
        Reply::Ok => Ok(Observation::ErrorFrame),
        Reply::Frame(kind, _) => Err(format!(
            "connection poisoned: follow-up after {fault} drew a {} frame",
            kind.name()
        )),
        Reply::Closed => Err(format!("connection poisoned: closed after {fault}")),
    }
}

fn ill_typed_field(mut conn: TcpStream, rng: &mut SmallRng) -> Result<Observation, String> {
    // Each optional field with its wire name, whether it is a boolean
    // (else an unsigned integer), and whether it sits inside `config`.
    const FIELDS: [(&str, bool, bool); 6] = [
        ("timeout_ms", false, false),
        ("budget_instructions", false, false),
        ("budget_cycles", false, false),
        ("baseline", true, false),
        ("partial", true, true),
        ("readop", true, true),
    ];
    let (name, boolean, in_config) = FIELDS[rng.gen_range(0..FIELDS.len())];
    let bad = match rng.gen_range(0u32..5) {
        0 => Json::Null,
        1 => Json::str("1"),
        2 => Json::Arr(vec![]),
        3 if boolean => Json::u64(1),
        3 => Json::Bool(true),
        _ if boolean => Json::Obj(vec![]),
        _ => Json::Num(if rng.gen() { -1.0 } else { 1.5 }),
    };
    let mut fields = request_fields(rng);
    let (field, named) = if in_config {
        let config = Json::Obj(vec![(name.to_string(), bad)]);
        (("config".to_string(), config), format!("config.{name}"))
    } else {
        ((name.to_string(), bad), format!("`{name}`"))
    };
    fields.push(field);
    let payload = Json::Obj(fields).render();
    proto::write_frame(&mut conn, &payload).map_err(|e| format!("ill-typed write: {e}"))?;
    match read_one(&mut conn)? {
        Reply::Frame(ErrorKind::Overloaded, _) => Ok(Observation::ErrorFrame),
        Reply::Frame(ErrorKind::Usage, message) if message.starts_with(&named) => {
            follow_up(conn, rng, "an ill-typed field")
        }
        Reply::Frame(kind, message) => Err(format!(
            "ill-typed {named} drew a {} frame: {message}",
            kind.name()
        )),
        Reply::Ok => Err(format!("ill-typed {named} was served as its default")),
        Reply::Closed => Err(format!("ill-typed {named} answered with a bare close")),
    }
}

fn truncated_frame(mut conn: TcpStream, rng: &mut SmallRng) -> Result<Observation, String> {
    let payload = render_request(rng);
    let bytes = payload.as_bytes();
    let keep = rng.gen_range(0..bytes.len());
    let _ = conn.write_all(&(bytes.len() as u32).to_be_bytes());
    let _ = conn.write_all(&bytes[..keep]);
    let _ = conn.shutdown(Shutdown::Write);
    match read_one(&mut conn)? {
        Reply::Frame(..) => Ok(Observation::ErrorFrame),
        Reply::Closed => Ok(Observation::Closed),
        Reply::Ok => Err("truncated frame produced a success response".into()),
    }
}

fn garbage_bytes(mut conn: TcpStream, rng: &mut SmallRng) -> Result<Observation, String> {
    // Raw junk where a frame should be: the length prefix itself is
    // hostile (usually wildly oversized, sometimes zero or short).
    let len = rng.gen_range(1usize..=32);
    let junk: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
    let _ = conn.write_all(&junk);
    let _ = conn.shutdown(Shutdown::Write);
    match read_one(&mut conn)? {
        Reply::Frame(..) => Ok(Observation::ErrorFrame),
        Reply::Closed => Ok(Observation::Closed),
        Reply::Ok => Err("garbage bytes produced a success response".into()),
    }
}

fn oversized_prefix(mut conn: TcpStream, rng: &mut SmallRng) -> Result<Observation, String> {
    let max = proto::DEFAULT_MAX_FRAME as u32;
    let declared = rng.gen_range(max + 1..=u32::MAX);
    let _ = conn.write_all(&declared.to_be_bytes());
    // A few bytes of payload prove the daemon rejects on the prefix
    // alone instead of trying to buffer the advertised length.
    let _ = conn.write_all(b"{}");
    match read_one(&mut conn)? {
        Reply::Frame(..) => Ok(Observation::ErrorFrame),
        Reply::Closed => Ok(Observation::Closed),
        Reply::Ok => Err("oversized length prefix produced a success response".into()),
    }
}

fn mid_request_disconnect(mut conn: TcpStream, rng: &mut SmallRng) -> Result<Observation, String> {
    // A client that dies mid-write: partial frame, then a full close with
    // no read — the daemon's answer (if any) hits a dead socket.
    let payload = render_request(rng);
    let bytes = payload.as_bytes();
    let keep = rng.gen_range(0..bytes.len());
    let _ = conn.write_all(&(bytes.len() as u32).to_be_bytes());
    let _ = conn.write_all(&bytes[..keep]);
    drop(conn);
    Ok(Observation::Closed)
}

fn slow_writer(
    mut conn: TcpStream,
    io_timeout_ms: u64,
    rng: &mut SmallRng,
) -> Result<Observation, String> {
    // Stall mid-payload past the daemon's socket read timeout: the daemon
    // must disconnect the wedged writer (timeout frame or teardown)
    // rather than hold its connection thread forever.
    let payload = render_request(rng);
    let bytes = payload.as_bytes();
    let keep = rng.gen_range(1..bytes.len());
    let _ = conn.write_all(&(bytes.len() as u32).to_be_bytes());
    let _ = conn.write_all(&bytes[..keep]);
    let _ = conn.flush();
    std::thread::sleep(Duration::from_millis(io_timeout_ms * 2 + 50));
    // The late remainder races the daemon's teardown; either fate is
    // legal for these bytes.
    let _ = conn.write_all(&bytes[keep..]);
    match read_one(&mut conn)? {
        Reply::Frame(..) => Ok(Observation::ErrorFrame),
        Reply::Closed => Ok(Observation::Closed),
        // The daemon read the late remainder before its read timeout
        // fired — a legal outcome, not a violation.
        Reply::Ok => Ok(Observation::Succeeded),
    }
}

/// Renders the edit-storm kernel with its editable immediate: the second
/// `iadd`'s constant is the single strand-local edit knob.
fn storm_kernel(k: i32) -> String {
    format!(
        "
.kernel storm
BB0:
  mov r0, %tid.x
  ld.global r1 r0
  iadd r2 r1, 1
  iadd r3 r2, {k}
  st.global r0, r3
  exit
"
    )
}

/// Sends one request on the raw connection and decodes the reply payload.
fn storm_roundtrip(conn: &mut TcpStream, payload: &str) -> Result<Result<Json, ErrorKind>, String> {
    proto::write_frame(conn, payload).map_err(|e| format!("edit-storm write: {e}"))?;
    match proto::read_frame(conn, proto::DEFAULT_MAX_FRAME) {
        Ok(Some(frame)) => {
            let (_, outcome) = proto::decode_response(&frame)
                .map_err(|e| format!("daemon sent an undecodable frame: {e}"))?;
            Ok(outcome
                .map(|(payload, _cached)| payload)
                .map_err(|f| f.kind))
        }
        Ok(None) => Err("edit storm: connection closed mid-storm".into()),
        Err(e) => Err(format!("edit storm: read failed: {e}")),
    }
}

/// The semantic view of an `allocate` response: everything except the
/// cache-warmth-dependent `strand_hits` / `strand_misses` counters, which
/// legitimately differ between a cold and a warm strand cache.
fn semantic_view(payload: &Json) -> Json {
    match payload {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "strand_hits" && k != "strand_misses")
                .map(|(k, v)| (k.clone(), semantic_view(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

fn edit_storm(mut conn: TcpStream, rng: &mut SmallRng) -> Result<Observation, String> {
    // Repeated mutated re-submissions of one kernel through the daemon's
    // incremental allocation path. Divergence oracle: the pristine
    // original, re-submitted after every edit, must keep drawing a
    // semantically identical response no matter what the strand cache
    // has absorbed in between. Memory oracle: the strand cache never
    // exceeds its configured capacity.
    let mut id = rng.gen_range(1u64..1_000_000);
    let mut next_id = || {
        id += 1;
        id
    };
    let request = |id: u64, kernel: &str| {
        Json::Obj(vec![
            ("schema".to_string(), Json::str(proto::SCHEMA)),
            ("id".to_string(), Json::u64(id)),
            ("op".to_string(), Json::str("allocate")),
            ("kernel".to_string(), Json::str(kernel)),
        ])
        .render()
    };

    let original = storm_kernel(1);
    let reference = match storm_roundtrip(&mut conn, &request(next_id(), &original))? {
        Ok(payload) => semantic_view(&payload),
        // Being shed at admission under concurrent chaos load is the one
        // legal error; the storm never starts.
        Err(ErrorKind::Overloaded) => return Ok(Observation::ErrorFrame),
        Err(kind) => return Err(format!("edit storm: seed allocate drew {}", kind.name())),
    };

    let rounds = rng.gen_range(3usize..=8);
    for round in 0..rounds {
        // A seeded single-immediate edit: one strand's text changes, the
        // rest of the kernel is byte-identical.
        let edited = storm_kernel(rng.gen_range(2i32..1_000));
        let mutated = match storm_roundtrip(&mut conn, &request(next_id(), &edited))? {
            Ok(payload) => semantic_view(&payload),
            Err(kind) => {
                return Err(format!(
                    "edit storm round {round}: edited allocate drew {}",
                    kind.name()
                ))
            }
        };
        // The edit must not change what allocation *is* for this kernel
        // shape: same placements text modulo the edited constant, same
        // stats. Cheap structural check: the semantic stats of the
        // edited kernel match the original's (the edit touches an
        // immediate, not the value structure).
        if mutated.get("stats").map(semantic_view) != reference.get("stats").map(semantic_view) {
            return Err(format!(
                "edit storm round {round}: an immediate edit changed the allocation stats"
            ));
        }
        // Zero divergence: the pristine original answers identically
        // regardless of how warm the strand cache now is.
        match storm_roundtrip(&mut conn, &request(next_id(), &original))? {
            Ok(payload) => {
                if semantic_view(&payload) != reference {
                    return Err(format!(
                        "edit storm round {round}: the original kernel's response diverged \
                         after mutated re-submissions"
                    ));
                }
            }
            Err(kind) => {
                return Err(format!(
                    "edit storm round {round}: original re-submit drew {}",
                    kind.name()
                ))
            }
        }
    }

    // Bounded memory: the strand cache reports itself and stays within
    // its configured capacity even under the storm.
    let stats_req = Json::Obj(vec![
        ("schema".to_string(), Json::str(proto::SCHEMA)),
        ("id".to_string(), Json::u64(next_id())),
        ("op".to_string(), Json::str("stats")),
    ])
    .render();
    match storm_roundtrip(&mut conn, &stats_req)? {
        Ok(payload) => {
            let sc = payload
                .get("strand_cache")
                .ok_or("edit storm: stats response lacks a strand_cache block")?;
            let entries = sc
                .get("entries")
                .and_then(Json::as_u64)
                .ok_or("edit storm: strand_cache lacks an entries count")?;
            let capacity = sc
                .get("capacity")
                .and_then(Json::as_u64)
                .ok_or("edit storm: strand_cache lacks a capacity")?;
            if entries > capacity {
                return Err(format!(
                    "edit storm: strand cache grew past its capacity ({entries} > {capacity})"
                ));
            }
        }
        Err(kind) => return Err(format!("edit storm: stats drew {}", kind.name())),
    }
    Ok(Observation::Succeeded)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_requests_are_valid_and_seed_deterministic() {
        let a = render_request(&mut SmallRng::seed_from_u64(7));
        let b = render_request(&mut SmallRng::seed_from_u64(7));
        assert_eq!(a, b);
        let doc = rfh_rfhd::json::parse(&a).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(proto::SCHEMA)
        );
        assert!(doc.get("op").is_some());
    }
}
