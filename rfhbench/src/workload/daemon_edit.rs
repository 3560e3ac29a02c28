//! `daemon_edit`: the edit–compile–debug service path. An in-process
//! daemon on a unix socket serves `jobs` closed-loop clients (no think
//! time, one connection per request) sending requests generated from the
//! seed. Both caches start empty.
//!
//! `op_p50_ms` is the median latency of the edited-kernel allocations,
//! the request an edit–compile–debug loop waits on; `ops_per_s` counts
//! every request. Every class's n, p50 and tail and the caches' hit
//! ratios are recorded as detail.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rfh::rfhd::{Client, Endpoint, Json, RetryPolicy, Server, ServerConfig, ServerHandle};
use rfh_testkit::rng::{Rng, SeedableRng, SmallRng};

use super::{Bench, Ctx, Tally};
use crate::corpus::{self, Case};
use crate::stats::{median, tail};

/// Request classes, as reported.
const CLASSES: [&str; 6] = [
    "alloc_cold",
    "alloc_edit",
    "simulate_miss",
    "simulate_hit",
    "timing",
    "lint",
];

/// The class `op_p50_ms` reports.
const ALLOC_EDIT: usize = 1;

/// Requests generated per second of measurement: more than the daemon
/// completes with two workers (about 550/s on a 2-CPU host), so the
/// clients never run dry.
const REQUESTS_PER_SECOND: usize = 800;

/// Generated kernels sampled into the per-layer corpus.
const CORPUS_SAMPLE: usize = 12;

/// What a request is, before its response says whether it hit the cache.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    AllocCold,
    AllocEdit,
    Simulate,
    Timing,
    Lint,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::AllocCold => "rfhd.alloc_cold",
            Kind::AllocEdit => "rfhd.alloc_edit",
            Kind::Simulate => "rfhd.simulate",
            Kind::Timing => "rfhd.timing",
            Kind::Lint => "rfhd.lint",
        }
    }

    fn class(self, cached: bool) -> usize {
        match self {
            Kind::AllocCold => 0,
            Kind::AllocEdit => 1,
            Kind::Simulate if !cached => 2,
            Kind::Simulate => 3,
            Kind::Timing => 4,
            Kind::Lint => 5,
        }
    }
}

type Request = (Kind, Vec<(String, Json)>);

/// One unit of client work: a single request, or a cold allocation and
/// its edit, which one client sends back to back.
type Item = Vec<Request>;

pub struct DaemonEdit {
    items: Vec<Item>,
    sample: Vec<Case>,
    server: Option<ServerHandle>,
    /// Per class: latencies (ms) of the completed requests.
    latencies: Vec<Vec<f64>>,
    /// The caches' statistics at the end of the run.
    caches: Vec<(String, f64)>,
}

impl Drop for DaemonEdit {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            // A discarded set-up: stop its daemon; errors are moot here.
            let _ = shutdown(server);
        }
    }
}

impl Bench for DaemonEdit {
    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let (items, sample) = generate(
            ctx.seed,
            (REQUESTS_PER_SECOND as f64 * ctx.seconds) as usize,
        );
        let dir = ctx.root.join("rfhbench").join("out");
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let socket: PathBuf = dir.join(format!("rfhd-{}.sock", std::process::id()));
        // sockaddr_un holds 108 bytes including the terminator.
        if socket.as_os_str().len() > 100 {
            return Err(format!(
                "socket path {} is too long; run from the repository root",
                socket.display()
            ));
        }
        // `new`, not `from_env`: the RFHD_* knobs must not change the load.
        let mut cfg = ServerConfig::new(Endpoint::Unix(socket));
        cfg.workers = ctx.jobs;
        let server = Server::spawn(cfg).map_err(|e| format!("cannot start the daemon: {e}"))?;
        Ok(DaemonEdit {
            items,
            sample,
            server: Some(server),
            latencies: vec![Vec::new(); CLASSES.len()],
            caches: Vec::new(),
        })
    }

    fn measure(&mut self, ctx: &Ctx, deadline: Instant, tally: &mut Tally) {
        let endpoint = self.server.as_ref().expect("set up").endpoint.clone();
        let next = AtomicUsize::new(0);
        let shared = Mutex::new((std::mem::take(tally), std::mem::take(&mut self.latencies)));
        std::thread::scope(|s| {
            for client_id in 0..ctx.jobs {
                let (endpoint, next, shared, items) = (&endpoint, &next, &shared, &self.items);
                s.spawn(move || {
                    let retry = RetryPolicy {
                        seed: ctx.seed ^ client_id as u64,
                        ..RetryPolicy::default()
                    };
                    let mut client = Client::new(endpoint.clone(), retry);
                    while Instant::now() < deadline {
                        let Some(item) = items.get(next.fetch_add(1, Ordering::Relaxed)) else {
                            break;
                        };
                        for (kind, fields) in item {
                            let fields = fields.clone();
                            let t0 = Instant::now();
                            let response = ctx.tracer.span(kind.span(), || client.request(fields));
                            let took = t0.elapsed();
                            let (class, outcome) = match response {
                                Ok((body, cached)) => (kind.class(cached), check(*kind, &body)),
                                Err(e) => (kind.class(false), Err(e.to_string())),
                            };
                            let mut guard = shared.lock().expect("no client panics holding it");
                            guard.0.timed(took, outcome);
                            guard.1[class].push(took.as_secs_f64() * 1e3);
                        }
                    }
                });
            }
        });
        if next.into_inner() >= self.items.len() && Instant::now() < deadline {
            eprintln!("daemon_edit: the generated requests ran out before the deadline");
        }
        let (t, l) = shared.into_inner().expect("no client panicked holding it");
        *tally = t;
        self.latencies = l;
    }

    /// Cache statistics, then a drain: no request may have panicked,
    /// timed out or been shed, and nothing may be in flight at exit.
    fn check(&mut self, _ctx: &Ctx, tally: &mut Tally) {
        let server = self.server.take().expect("set up");
        let mut client = Client::new(server.endpoint.clone(), RetryPolicy::default());
        match client.simple("stats") {
            Ok((stats, _)) => self.caches = cache_detail(&stats),
            Err(e) => tally.record(Err(format!("stats: {e}"))),
        }
        tally.record(shutdown(server).and_then(|r| {
            if r.compute_panics + r.pool_panics + r.timeouts + r.shed == 0
                && r.in_flight_at_exit == 0
            {
                Ok(())
            } else {
                Err(format!("unclean daemon exit: {r:?}"))
            }
        }));
    }

    fn op_p50_ms(&self, _tally: &Tally) -> f64 {
        median(&self.latencies[ALLOC_EDIT])
    }

    /// Per class, then over all requests (`all.*`): n, p50, and the tail —
    /// the highest percentile with at least ten samples beyond it. Then
    /// the cache statistics.
    fn detail(&self) -> Vec<(String, f64)> {
        let all: Vec<f64> = self.latencies.concat();
        let mut out = Vec::new();
        for (class, ms) in CLASSES
            .iter()
            .chain(&["all"])
            .zip(self.latencies.iter().chain([&all]))
        {
            out.push((format!("{class}.n"), ms.len() as f64));
            out.push((format!("{class}.p50_ms"), median(ms)));
            if let Some((pct, value)) = tail(ms) {
                out.push((format!("{class}.tail_pct"), pct));
                out.push((format!("{class}.tail_ms"), value));
            }
        }
        out.extend(self.caches.iter().cloned());
        out
    }

    fn corpus(&self) -> Vec<Case> {
        let mut cases = corpus::suite();
        cases.extend(self.sample.iter().cloned());
        cases
    }
}

fn shutdown(server: ServerHandle) -> Result<rfh::rfhd::ServerReport, String> {
    let mut client = Client::new(server.endpoint.clone(), RetryPolicy::default());
    client
        .simple("shutdown")
        .map_err(|e| format!("shutdown: {e}"))?;
    server.join().map_err(|e| format!("daemon exit: {e}"))
}

/// A response must be a success frame, and a workload simulation must
/// have passed its host reference check.
fn check(kind: Kind, body: &Json) -> Result<(), String> {
    if kind == Kind::Simulate && body.get("verified") != Some(&Json::Bool(true)) {
        return Err("simulate response is not verified".into());
    }
    Ok(())
}

/// Hit ratio and evictions of the result cache (`result_cache.*`) and the
/// strand cache (`strand_cache.*`) from a `stats` response.
fn cache_detail(stats: &Json) -> Vec<(String, f64)> {
    [("cache", "result_cache"), ("strand_cache", "strand_cache")]
        .into_iter()
        .flat_map(|(field, name)| {
            let c = stats.get(field);
            let n = |k: &str| c.and_then(|c| c.get(k)).and_then(Json::as_u64).unwrap_or(0);
            let (hits, misses) = (n("hits"), n("misses"));
            [
                (
                    format!("{name}.hit_ratio"),
                    hits as f64 / (hits + misses).max(1) as f64,
                ),
                (format!("{name}.evictions"), n("evictions") as f64),
            ]
        })
        .collect()
}

fn field(key: &str, value: Json) -> (String, Json) {
    (key.to_string(), value)
}

fn kernel_request(op: &str, text: String) -> Vec<(String, Json)> {
    vec![field("op", Json::str(op)), field("kernel", Json::str(text))]
}

/// Generates at least `requests` requests: 40% cold allocations of a
/// generated kernel, each followed by the same kernel with one immediate
/// edited; 15% simulations of an unseen (workload, configuration); 15%
/// repeats of a recent simulation; 10% timing replays at a random active
/// warp count; 20% lint of a generated kernel. Also returns the first
/// cold kernels as the per-layer corpus sample.
fn generate(seed: u64, requests: usize) -> (Vec<Item>, Vec<Case>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let names: Vec<String> = rfh::workloads::all().into_iter().map(|w| w.name).collect();
    let mut unseen: Vec<Vec<(String, Json)>> = Vec::new();
    for name in &names {
        for orf in 1..=8u64 {
            for lrf in ["none", "unified", "split"] {
                for (partial, readop) in
                    [(true, true), (true, false), (false, true), (false, false)]
                {
                    unseen.push(vec![
                        field("op", Json::str("simulate")),
                        field("workload", Json::str(name.clone())),
                        field(
                            "config",
                            Json::Obj(vec![
                                field("orf", Json::u64(orf)),
                                field("lrf", Json::str(lrf)),
                                field("partial", Json::Bool(partial)),
                                field("readop", Json::Bool(readop)),
                            ]),
                        ),
                    ]);
                }
            }
        }
    }
    corpus::shuffle(&mut unseen, &mut rng);
    let mut recent: Vec<Vec<(String, Json)>> = Vec::new();
    let (mut items, mut sample, mut count) = (Vec::new(), Vec::new(), 0);
    let generated = |rng: &mut SmallRng| {
        let segments = [8, 16, 32][rng.gen_range(0..3)];
        corpus::generated(rng.gen(), segments, 6, 8)
    };
    while count < requests {
        let item: Item = match rng.gen_range(0..100) {
            0..=39 => {
                let case = generated(&mut rng);
                let edited = corpus::edit_one_immediate(&case.kernel, &mut rng)
                    .expect("generated kernels have immediates");
                let edited = rfh::isa::printer::print_kernel(&edited);
                let item = vec![
                    (
                        Kind::AllocCold,
                        kernel_request("allocate", case.text.clone()),
                    ),
                    (Kind::AllocEdit, kernel_request("allocate", edited)),
                ];
                if sample.len() < CORPUS_SAMPLE {
                    sample.push(case);
                }
                item
            }
            40..=54 if !unseen.is_empty() => {
                let request = unseen.pop().expect("checked non-empty");
                recent.push(request.clone());
                vec![(Kind::Simulate, request)]
            }
            55..=69 if !recent.is_empty() => {
                let back = rng.gen_range(1..=recent.len().min(32));
                vec![(Kind::Simulate, recent[recent.len() - back].clone())]
            }
            40..=69 => continue,
            70..=79 => {
                let name = &names[rng.gen_range(0..names.len())];
                let active = [1u64, 2, 4, 6, 8, 16, 32][rng.gen_range(0..7)];
                vec![(
                    Kind::Timing,
                    vec![
                        field("op", Json::str("timing")),
                        field("workload", Json::str(name.clone())),
                        field("active_warps", Json::u64(active)),
                    ],
                )]
            }
            _ => vec![(Kind::Lint, kernel_request("lint", generated(&mut rng).text))],
        };
        count += item.len();
        items.push(item);
    }
    (items, sample)
}
