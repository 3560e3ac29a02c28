//! The deterministic daemon client: framing, capped exponential backoff
//! with seeded jitter, and the workload-replay load generator behind
//! `rfhc client --replay-workloads`.
//!
//! Retries happen in exactly two situations — a failed dial and an
//! `overloaded` error frame — because those are the only failures the
//! daemon *asks* to have retried. Everything else (parse errors, lint
//! findings, timeouts, internal frames) is a definitive answer and is
//! returned to the caller unchanged.
//!
//! Backoff is deterministic: the delay for attempt `k` is
//! `min(cap, base << k)` halved and topped up with jitter drawn from a
//! [`SmallRng`] seeded by the caller. Two clients with the same seed
//! retry on the same schedule — load tests and the chaos harness replay
//! byte-identically. An `overloaded` frame's `retry_after_ms` hint, when
//! larger, takes precedence over the computed delay.

use std::time::{Duration, Instant};

use rfh_testkit::rng::{Rng, SeedableRng, SmallRng};

use crate::json::Json;
use crate::proto::{
    decode_response, read_frame, write_frame, ErrorFrame, ErrorKind, DEFAULT_MAX_FRAME, SCHEMA,
};
use crate::server::{Conn, Endpoint};

/// Retry schedule for dial failures and `overloaded` frames.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retries).
    pub attempts: u32,
    /// Base delay before the first retry.
    pub base_ms: u64,
    /// Cap on the exponential delay.
    pub cap_ms: u64,
    /// Seed for the jitter PRNG.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 6,
            base_ms: 10,
            cap_ms: 1_000,
            seed: 0x52464844, // "RFHD"
        }
    }
}

impl RetryPolicy {
    /// The deterministic backoff delay before retry `attempt` (0-based):
    /// half the capped exponential plus seeded jitter over the other
    /// half ("equal jitter" — bounded below, so a retry storm cannot
    /// collapse onto the daemon at once, bounded above by the cap).
    pub fn delay(&self, attempt: u32, rng: &mut SmallRng) -> Duration {
        let exp = self
            .base_ms
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
            .min(self.cap_ms)
            .max(1);
        let half = exp / 2;
        let jitter = if half == 0 {
            0
        } else {
            rng.gen_range(0..=half)
        };
        Duration::from_millis(half + jitter)
    }
}

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Dialing or socket I/O failed (after retries, for dial failures).
    Io(std::io::Error),
    /// The daemon's bytes were not a valid `rfhd-v1` response.
    Protocol(String),
    /// The daemon answered with an error frame (after retries, for
    /// `overloaded` frames).
    Frame(ErrorFrame),
}

impl ClientError {
    /// The exit code `rfhc client` maps this failure to: the daemon's
    /// own class code for error frames, 9 for transport-level failures.
    pub fn exit_code(&self) -> i32 {
        match self {
            ClientError::Io(_) | ClientError::Protocol(_) => 9,
            ClientError::Frame(e) => e.kind.exit_code(),
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "daemon connection failed: {e}"),
            ClientError::Protocol(msg) => write!(f, "daemon protocol violation: {msg}"),
            ClientError::Frame(e) => write!(f, "daemon error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A connection-per-request client with deterministic retries.
///
/// One connection per request keeps the client trivially correct under
/// daemon restarts and load shedding (a shed handshake never poisons a
/// pooled connection); the replay load generator amortizes nothing and
/// measures the daemon's full accept path on every request, which is the
/// point of a robustness benchmark.
pub struct Client {
    endpoint: Endpoint,
    retry: RetryPolicy,
    rng: SmallRng,
    next_id: u64,
    /// Socket read timeout while waiting for a response.
    pub io_timeout_ms: u64,
    /// Maximum accepted response frame.
    pub max_frame: usize,
}

impl Client {
    /// A client for `endpoint` with the given retry schedule.
    pub fn new(endpoint: Endpoint, retry: RetryPolicy) -> Self {
        let rng = SmallRng::seed_from_u64(retry.seed);
        Client {
            endpoint,
            retry,
            rng,
            next_id: 1,
            io_timeout_ms: 30_000,
            max_frame: DEFAULT_MAX_FRAME,
        }
    }

    /// Sends one request (the `schema` and `id` fields are filled in) and
    /// returns the result plus whether the daemon served it from cache.
    /// Dial failures and `overloaded` frames are retried on the policy's
    /// schedule; every other failure is returned immediately.
    ///
    /// # Errors
    ///
    /// [`ClientError`] once retries are exhausted or on a definitive
    /// failure.
    pub fn request(
        &mut self,
        mut fields: Vec<(String, Json)>,
    ) -> Result<(Json, bool), ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        fields.insert(0, ("schema".to_string(), Json::str(SCHEMA)));
        fields.insert(1, ("id".to_string(), Json::u64(id)));
        let payload = Json::Obj(fields).render();

        let mut last: Option<ClientError> = None;
        for attempt in 0..self.retry.attempts.max(1) {
            if attempt > 0 {
                let mut delay = self.retry.delay(attempt - 1, &mut self.rng);
                if let Some(ClientError::Frame(f)) = &last {
                    if let Some(hint) = f.retry_after_ms {
                        delay = delay.max(Duration::from_millis(hint));
                    }
                }
                std::thread::sleep(delay);
            }
            match self.attempt(&payload, id) {
                Ok(outcome) => return Ok(outcome),
                Err(e) => {
                    let retryable = matches!(&e, ClientError::Io(_))
                        || matches!(&e, ClientError::Frame(f) if f.kind == ErrorKind::Overloaded);
                    if !retryable {
                        return Err(e);
                    }
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| {
            ClientError::Protocol("retry loop ended without an attempt".to_string())
        }))
    }

    /// Convenience for an op with no further fields.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn simple(&mut self, op: &str) -> Result<(Json, bool), ClientError> {
        self.request(vec![("op".to_string(), Json::str(op))])
    }

    fn attempt(&mut self, payload: &str, id: u64) -> Result<(Json, bool), ClientError> {
        let mut conn = Conn::connect(&self.endpoint).map_err(ClientError::Io)?;
        conn.set_read_timeout(Some(Duration::from_millis(self.io_timeout_ms.max(1))))
            .map_err(ClientError::Io)?;
        write_frame(&mut conn, payload)
            .map_err(|e| ClientError::Io(std::io::Error::other(e.to_string())))?;
        let frame = read_frame(&mut conn, self.max_frame)
            .map_err(|e| ClientError::Io(std::io::Error::other(e.to_string())))?
            .ok_or_else(|| {
                ClientError::Protocol("daemon closed the connection without answering".into())
            })?;
        let (rid, outcome) = decode_response(&frame).map_err(ClientError::Protocol)?;
        // Shed responses are written before the request is read, so they
        // legitimately carry id 0.
        if rid != id && rid != 0 {
            return Err(ClientError::Protocol(format!(
                "response id {rid} does not match request id {id}"
            )));
        }
        outcome.map_err(ClientError::Frame)
    }
}

/// Diagnostic probe: sends one deliberately malformed frame (a correctly
/// framed payload that is not JSON) and returns the daemon's answer. A
/// healthy daemon answers a structured `protocol` error frame — that is
/// the `Ok` of this function. Used by `rfhc client --malformed-probe`
/// and the CI smoke test to prove the framing layer fails closed.
///
/// # Errors
///
/// [`ClientError::Protocol`] if the daemon accepted garbage or closed
/// without answering; [`ClientError::Io`] on transport failure.
pub fn malformed_probe(endpoint: &Endpoint) -> Result<ErrorFrame, ClientError> {
    let mut conn = Conn::connect(endpoint).map_err(ClientError::Io)?;
    conn.set_read_timeout(Some(Duration::from_millis(30_000)))
        .map_err(ClientError::Io)?;
    write_frame(&mut conn, "this is deliberately not a request")
        .map_err(|e| ClientError::Io(std::io::Error::other(e.to_string())))?;
    let frame = read_frame(&mut conn, DEFAULT_MAX_FRAME)
        .map_err(|e| ClientError::Io(std::io::Error::other(e.to_string())))?
        .ok_or_else(|| ClientError::Protocol("daemon closed without answering the probe".into()))?;
    let (_, outcome) = decode_response(&frame).map_err(ClientError::Protocol)?;
    match outcome {
        Ok(_) => Err(ClientError::Protocol(
            "daemon answered a malformed frame with success".into(),
        )),
        Err(f) => Ok(f),
    }
}

/// Per-workload outcome of a replay run.
#[derive(Debug, Clone)]
pub struct ReplayEntry {
    /// The workload name.
    pub name: String,
    /// `Ok(cached)` or the failure rendered as a string.
    pub outcome: Result<bool, String>,
}

/// Aggregate result of `rfhc client --replay-workloads`.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Per-workload entries, one per (round, workload), in completion
    /// groups by round.
    pub entries: Vec<ReplayEntry>,
    /// Worker threads used.
    pub jobs: usize,
    /// Full replay wall time in milliseconds.
    pub wall_ms: u64,
}

impl ReplayReport {
    /// Successful requests.
    pub fn ok(&self) -> usize {
        self.entries.iter().filter(|e| e.outcome.is_ok()).count()
    }

    /// Successful requests served from the daemon cache.
    pub fn cached(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.outcome, Ok(true)))
            .count()
    }

    /// Failed requests.
    pub fn failed(&self) -> usize {
        self.entries.len() - self.ok()
    }
}

/// Replays every benchmark workload against a live daemon, `rounds`
/// times, with `jobs` concurrent clients. The second and later rounds
/// should be served from the daemon's result cache — the report's
/// `cached` count is the check.
///
/// Each (round, workload) pair is one `simulate` request tagged with the
/// workload's name, so the daemon re-runs the full pipeline (allocate →
/// execute → verify against the host reference) per uncached request.
pub fn replay_workloads(
    endpoint: &Endpoint,
    jobs: usize,
    rounds: usize,
    retry: RetryPolicy,
) -> ReplayReport {
    let names: Vec<String> = rfh_workloads::all().into_iter().map(|w| w.name).collect();
    let started = Instant::now();
    let mut entries = Vec::new();
    for round in 0..rounds.max(1) {
        let round_entries = rfh_testkit::pool::par_map_with_jobs(jobs, &names, |name| {
            // Per-task clients: independent sockets, and a retry seed
            // derived from the shared one so schedules are replayable
            // but not lock-step.
            let mut policy = retry.clone();
            policy.seed =
                policy.seed ^ crate::cache::fnv1a(name.as_bytes()) ^ ((round as u64) << 32);
            let mut client = Client::new(endpoint.clone(), policy);
            let outcome = client.request(vec![
                ("op".to_string(), Json::str("simulate")),
                ("workload".to_string(), Json::str(name)),
            ]);
            ReplayEntry {
                name: name.clone(),
                outcome: match outcome {
                    Ok((_, cached)) => Ok(cached),
                    Err(e) => Err(e.to_string()),
                },
            }
        });
        entries.extend(round_entries);
    }
    ReplayReport {
        entries,
        jobs,
        wall_ms: started.elapsed().as_millis() as u64,
    }
}

/// Per-workload outcome of an edit-replay run: one cold `allocate`, one
/// re-`allocate` of the same kernel with a single immediate edited.
#[derive(Debug, Clone)]
pub struct EditReplayEntry {
    /// The workload name.
    pub name: String,
    /// Strands in the kernel (from the cold round's stats).
    pub strands: u64,
    /// Strand-cache misses on the cold round (== strands when the cache
    /// started empty for this kernel).
    pub cold_misses: u64,
    /// Strand-cache hits on the edited round: the unchanged strands
    /// spliced from cache.
    pub edit_hits: u64,
    /// Strand-cache misses on the edited round: the re-allocated strands
    /// (at most 1 when the edit touched a single strand).
    pub edit_misses: u64,
    /// Whether the kernel had an editable immediate (kernels without one
    /// are re-submitted verbatim; the edited round is then all hits).
    pub edited: bool,
    /// The failure, if either round failed.
    pub error: Option<String>,
}

/// Aggregate result of `rfhc client --edit-replay`.
#[derive(Debug, Clone)]
pub struct EditReplayReport {
    /// Per-workload entries.
    pub entries: Vec<EditReplayEntry>,
    /// Worker threads used.
    pub jobs: usize,
    /// Full replay wall time in milliseconds.
    pub wall_ms: u64,
}

impl EditReplayReport {
    /// Failed workloads.
    pub fn failed(&self) -> usize {
        self.entries.iter().filter(|e| e.error.is_some()).count()
    }

    /// Workloads whose edited round spliced every unchanged strand from
    /// the strand cache (`edit_hits + edit_misses == strands` with
    /// `edit_misses <= 1`).
    pub fn fully_spliced(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| {
                e.error.is_none()
                    && e.edit_misses <= u64::from(e.edited)
                    && e.edit_hits + e.edit_misses == e.strands
            })
            .count()
    }
}

/// Edits one integer immediate in place, returning whether the kernel had
/// one. The edit changes a single strand's canonical text and nothing
/// else — control flow, def/use structure, and strand boundaries are all
/// immediate-blind.
fn edit_one_immediate(kernel: &mut rfh_isa::Kernel) -> bool {
    for block in &mut kernel.blocks {
        for instr in &mut block.instrs {
            for src in &mut instr.srcs {
                if let rfh_isa::Operand::Imm(v) = src {
                    *v = v.wrapping_add(1);
                    return true;
                }
            }
        }
    }
    false
}

fn strand_counter(payload: &Json, key: &str) -> Result<u64, String> {
    payload
        .get("stats")
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("allocate response lacks stats.{key}"))
}

/// The before/after load generator for incremental allocation: for every
/// benchmark workload, `allocate` the kernel cold, then edit exactly one
/// immediate operand (one strand) and `allocate` again. Against a daemon
/// with a strand cache the second round must splice every unchanged
/// strand from cache — the report's `edit_hits` / `edit_misses` columns
/// are the check.
pub fn edit_replay(endpoint: &Endpoint, jobs: usize, retry: RetryPolicy) -> EditReplayReport {
    let workloads = rfh_workloads::all();
    let started = Instant::now();
    let entries = rfh_testkit::pool::par_map_with_jobs(jobs, &workloads, |w| {
        let mut policy = retry.clone();
        policy.seed ^= crate::cache::fnv1a(w.name.as_bytes());
        let mut client = Client::new(endpoint.clone(), policy);
        let mut entry = EditReplayEntry {
            name: w.name.clone(),
            strands: 0,
            cold_misses: 0,
            edit_hits: 0,
            edit_misses: 0,
            edited: false,
            error: None,
        };
        let run = |client: &mut Client, kernel: &rfh_isa::Kernel| {
            let text = rfh_isa::printer::print_kernel(kernel);
            client
                .request(vec![
                    ("op".to_string(), Json::str("allocate")),
                    ("kernel".to_string(), Json::str(&text)),
                ])
                .map(|(payload, _)| payload)
                .map_err(|e| e.to_string())
        };
        let cold_edit = (|| -> Result<(), String> {
            let cold = run(&mut client, &w.kernel)?;
            entry.strands = strand_counter(&cold, "strands")?;
            entry.cold_misses = strand_counter(&cold, "strand_misses")?;
            let mut edited = w.kernel.clone();
            entry.edited = edit_one_immediate(&mut edited);
            let warm = run(&mut client, &edited)?;
            entry.edit_hits = strand_counter(&warm, "strand_hits")?;
            entry.edit_misses = strand_counter(&warm, "strand_misses")?;
            Ok(())
        })();
        if let Err(why) = cold_edit {
            entry.error = Some(why);
        }
        entry
    });
    EditReplayReport {
        entries,
        jobs,
        wall_ms: started.elapsed().as_millis() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy {
            attempts: 8,
            base_ms: 10,
            cap_ms: 100,
            seed: 7,
        };
        let mut a = SmallRng::seed_from_u64(policy.seed);
        let mut b = SmallRng::seed_from_u64(policy.seed);
        for attempt in 0..8 {
            let da = policy.delay(attempt, &mut a);
            let db = policy.delay(attempt, &mut b);
            assert_eq!(da, db, "same seed, same schedule");
            let exp = (10u64 << attempt).min(100);
            assert!(da.as_millis() as u64 >= exp / 2, "bounded below");
            assert!(da.as_millis() as u64 <= exp, "bounded above by the cap");
        }
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        let policy = RetryPolicy::default();
        let mut rng = SmallRng::seed_from_u64(1);
        let d = policy.delay(200, &mut rng);
        assert!(d.as_millis() as u64 <= policy.cap_ms);
    }

    #[test]
    fn dial_failure_to_dead_endpoint_is_io_after_retries() {
        // Reserved port 1 on localhost: connection refused, quickly.
        let mut client = Client::new(
            Endpoint::Tcp("127.0.0.1:1".to_string()),
            RetryPolicy {
                attempts: 2,
                base_ms: 1,
                cap_ms: 2,
                seed: 3,
            },
        );
        let err = client
            .simple("ping")
            .expect_err("nothing listens on port 1");
        assert!(matches!(err, ClientError::Io(_)));
        assert_eq!(err.exit_code(), 9);
    }
}
