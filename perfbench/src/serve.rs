//! `serve_skewed`: closed-loop serving over a heterogeneous fleet
//! (`26:packed,6:scalar`). Eight callers each keep one A-ABFT request
//! outstanding (`DeadlineClass::Unbounded`), so eight are in flight at all
//! times; requests are 64³ except every fourth, which is 256³. Small
//! shapes make fixed per-launch and per-wave costs dominate, so admission,
//! the sharded queue, costed placement with stealing, calibration, wave
//! formation and `BatchGemm` carry the work.
//!
//! The last part of the run pairs the same mix through the same server one
//! request at a time: each group of four requests is served protected and
//! with `ProtectionPolicy::Unprotected`, which gives the workload's
//! protection tax as the serving plane sees it.

use crate::report::{
    bit_identical, derive_seed, paired, repeated_setup, uniform, window, Measured, Timings,
    WINDOW_S,
};
use crate::stats::{mean, median, share};
use crate::trace::Tracer;
use aabft_core::{AAbftGemm, ProtectionPolicy};
use aabft_gpu_sim::Device;
use aabft_matrix::Matrix;
use aabft_obs::Obs;
use aabft_serve::{DeadlineClass, ReplicaSpec, ServeConfig, ServeOutcome, ServeRequest, Server};
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const FLEET: [&str; 2] = ["26:packed", "6:scalar"];
const CALLERS: usize = 8;
const SMALL_N: usize = 64;
const BIG_N: usize = 256;
const BIG_EVERY: u64 = 4;
const SMALL_POOL: usize = 12;
const BIG_POOL: usize = 4;
const SETUP_REPS: usize = 5;
/// Requests served before timing, so calibration and buffer pools settle.
const WARMUP_REQUESTS: u64 = 400;
/// Share of `--seconds` spent on the paired protected/plain groups.
const PAIRED_SHARE: f64 = 0.2;
/// Paired groups always run, so the tax median has enough samples.
const MIN_PAIRED_GROUPS: u64 = 30;
/// Traced and untraced requests alternate in blocks of this many.
const TRACE_BLOCK: u64 = 64;

/// Workers per dispatcher: the compute threads capped at `nproc`.
pub fn workers(nproc: usize) -> usize {
    (nproc / FLEET.len()).max(1)
}

struct Inputs {
    small: Vec<(Matrix<f64>, Matrix<f64>, Matrix<f64>)>,
    big: Vec<(Matrix<f64>, Matrix<f64>, Matrix<f64>)>,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(seed, 2));
        let mut device = Device::with_defaults();
        device.set_obs(Obs::new_shared());
        let gemm = AAbftGemm::default();
        let mut pool = |n: usize, count: usize| {
            (0..count)
                .map(|_| {
                    let (a, b) = (uniform(n, &mut rng), uniform(n, &mut rng));
                    let reference = gemm.multiply(&device, &a, &b).product;
                    device.take_log();
                    (a, b, reference)
                })
                .collect()
        };
        Inputs {
            small: pool(SMALL_N, SMALL_POOL),
            big: pool(BIG_N, BIG_POOL),
        }
    }

    /// Operands and reference product of stream position `t`.
    fn get(&self, t: u64) -> &(Matrix<f64>, Matrix<f64>, Matrix<f64>) {
        if t % BIG_EVERY == BIG_EVERY - 1 {
            &self.big[(t / BIG_EVERY) as usize % self.big.len()]
        } else {
            &self.small[t as usize % self.small.len()]
        }
    }
}

/// One finished request, as its caller saw it.
struct Sample {
    t: u64,
    ok: bool,
    latency_ms: f64,
    submit_us: f64,
    queue_len: usize,
    done: Instant,
}

/// Runs `CALLERS` closed-loop callers against `server` until `stop`
/// returns true for the next stream position, starting at `first`.
fn serve_loop(
    server: &Server,
    inputs: &Inputs,
    policy: ProtectionPolicy,
    first: u64,
    stop: &(dyn Fn(u64) -> bool + Sync),
    tracer: Option<&Tracer>,
) -> Vec<Sample> {
    let next = AtomicU64::new(first);
    std::thread::scope(|scope| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut samples = Vec::new();
                    loop {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        if stop(t) {
                            return samples;
                        }
                        let traced = tracer.filter(|_| (t / TRACE_BLOCK) % 2 == 1);
                        samples.push(one_request(server, inputs, policy, t, traced));
                    }
                })
            })
            .collect();
        callers
            .into_iter()
            .flat_map(|c| c.join().expect("caller thread panicked"))
            .collect()
    })
}

fn one_request(
    server: &Server,
    inputs: &Inputs,
    policy: ProtectionPolicy,
    t: u64,
    tracer: Option<&Tracer>,
) -> Sample {
    let (a, b, reference) = inputs.get(t);
    let req = ServeRequest::new(a.clone(), b.clone())
        .with_policy(policy)
        .with_class(DeadlineClass::Unbounded);
    let queue_len = if tracer.is_some() {
        server.queue_len()
    } else {
        0
    };
    let start = Instant::now();
    let admitted = server.submit(req);
    let submitted = Instant::now();
    let outcome = admitted.map(|ticket| ticket.wait());
    let done = Instant::now();
    if let Some(tr) = tracer {
        let id = tr.next_id();
        tr.record(tr.next_id(), Some(id), "submit", t, start, submitted);
        tr.record(tr.next_id(), Some(id), "wait", t, submitted, done);
        tr.record(id, None, "request", t, start, done);
    }
    let submit_us = submitted.duration_since(start).as_secs_f64() * 1e6;
    match outcome {
        Ok(ServeOutcome::Completed(c)) => Sample {
            t,
            ok: bit_identical(&c.product, reference),
            latency_ms: c.latency.as_secs_f64() * 1e3,
            submit_us,
            queue_len,
            done,
        },
        _ => Sample {
            t,
            ok: false,
            latency_ms: 0.0,
            submit_us,
            queue_len,
            done,
        },
    }
}

struct Setup {
    inputs: Inputs,
    server: Server,
    obs: Arc<Obs>,
}

fn setup(seed: u64) -> Setup {
    let inputs = Inputs::new(seed);
    let obs = Obs::new_shared();
    let fleet = FLEET
        .iter()
        .map(|s| s.parse::<ReplicaSpec>().expect("valid replica spec"))
        .collect();
    let server = Server::start(
        ServeConfig::default(),
        AAbftGemm::default(),
        fleet,
        obs.clone(),
    )
    .expect("default serve config is valid");
    let warm = serve_loop(
        &server,
        &inputs,
        ProtectionPolicy::AAbft,
        0,
        &|t| t >= WARMUP_REQUESTS,
        None,
    );
    assert!(
        warm.iter().all(|s| s.ok),
        "warm-up requests must complete bit-identically"
    );
    Setup {
        inputs,
        server,
        obs,
    }
}

/// Replica and placement counters, read around the serving window.
struct Fleet {
    busy_s: [f64; 2],
    waves: [f64; 2],
    steals: f64,
    cal_updates: f64,
    cal_cold_hits: f64,
    launches: f64,
    dispatches: f64,
    clean: f64,
    flops: f64,
    gmem_bytes: f64,
}

impl Fleet {
    fn read(server: &Server, obs: &Obs) -> Fleet {
        let placement = server.placement();
        let c = |name| obs.metrics.counter(name) as f64;
        Fleet {
            busy_s: [0, 1].map(|r| server.replica_busy(r).as_secs_f64()),
            waves: [0, 1].map(|r| server.replica_waves(r) as f64),
            steals: server.steals() as f64,
            cal_updates: placement.cal_updates() as f64,
            cal_cold_hits: placement.cal_cold_hits() as f64,
            launches: c("sim.launches"),
            dispatches: c("sim.dispatches"),
            clean: c("sim.clean_launches"),
            flops: c("sim.flops"),
            gmem_bytes: c("sim.gmem_bytes"),
        }
    }
}

pub fn run(seed: u64, seconds: f64, tracer: Option<&Tracer>) -> Measured {
    let (s, setup_s) = repeated_setup(SETUP_REPS, || setup(seed), |s| s.server.shutdown());
    let mut m = Measured {
        values: vec![("setup_s", setup_s)],
        ..Default::default()
    };
    s.obs.metrics.reset();
    let before = Fleet::read(&s.server, &s.obs);

    // Closed-loop serving: latency, throughput and every serving layer.
    let start = Instant::now();
    let serving_s = seconds * (1.0 - PAIRED_SHARE);
    let deadline = start + Duration::from_secs_f64(serving_s);
    let full_windows = ((serving_s / WINDOW_S) as u64).max(1);
    let samples = serve_loop(
        &s.server,
        &s.inputs,
        ProtectionPolicy::AAbft,
        WARMUP_REQUESTS,
        &|_| Instant::now() >= deadline,
        tracer,
    );
    let wall = samples
        .iter()
        .map(|x| x.done)
        .max()
        .unwrap_or(start)
        .duration_since(start)
        .as_secs_f64();
    let after = Fleet::read(&s.server, &s.obs);
    let wave_size = s
        .obs
        .metrics
        .histogram("serve.wave_size")
        .map_or(0.0, |h| h.mean());

    let group = |t: u64| usize::from(tracer.is_some() && (t / TRACE_BLOCK) % 2 == 1);
    let mut groups = [Timings::default(), Timings::default()];
    for x in &samples {
        m.attempted += 1;
        m.failed += u64::from(!x.ok);
        // Requests completing after the deadline (the drain) fall in the
        // last, partial window, which is left out.
        let w = window(start, x.done);
        if x.ok && w < full_windows {
            let g = &mut groups[group(x.t)];
            g.latency_ms.push(x.latency_ms);
            g.count(w, 1.0, 0.0);
        }
    }
    for g in &mut groups {
        for w in 0..full_windows {
            g.count(w, 0.0, WINDOW_S);
        }
    }
    let next_t = samples
        .iter()
        .map(|x| x.t + 1)
        .max()
        .unwrap_or(WARMUP_REQUESTS);
    let paired_groups = paired_groups(
        &s.server,
        &s.inputs,
        next_t,
        seconds * PAIRED_SHARE,
        tracer,
        &mut groups,
        &mut m,
    );
    s.server.shutdown();

    let [untraced, traced] = groups;
    m.values.extend(untraced.end_to_end());
    m.info.push(("requests", samples.len().to_string()));
    m.info.push(("paired_groups", paired_groups.to_string()));
    if tracer.is_some() {
        m.values.extend(traced.overhead_vs(&untraced));
    }
    let traced_samples: Vec<&Sample> = samples
        .iter()
        .filter(|x| (x.t / TRACE_BLOCK) % 2 == 1)
        .collect();
    let d = |f: fn(&Fleet) -> f64| f(&after) - f(&before);
    let completed = samples.iter().filter(|x| x.ok).count() as f64;
    let waves = [0, 1].map(|r| after.waves[r] - before.waves[r]);
    let busy = [0, 1].map(|r| after.busy_s[r] - before.busy_s[r]);
    m.values.extend([
        (
            "submit_us_p50",
            median(
                &traced_samples
                    .iter()
                    .map(|x| x.submit_us)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "queue_len_mean",
            mean(
                &traced_samples
                    .iter()
                    .map(|x| x.queue_len as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("wave_size_mean", wave_size),
        ("replica0_busy_share", share(busy[0], wall)),
        ("replica1_busy_share", share(busy[1], wall)),
        ("replica0_wave_ms_mean", 1e3 * share(busy[0], waves[0])),
        ("replica1_wave_ms_mean", 1e3 * share(busy[1], waves[1])),
        ("replica0_wave_share", share(waves[0], waves[0] + waves[1])),
        ("steal_share", share(d(|f| f.steals), waves[0] + waves[1])),
        ("cal_updates", d(|f| f.cal_updates)),
        ("cal_cold_hits", d(|f| f.cal_cold_hits)),
        ("launches_per_op", share(d(|f| f.launches), completed)),
        ("dispatches_per_op", share(d(|f| f.dispatches), completed)),
        ("clean_launches_per_op", share(d(|f| f.clean), completed)),
        ("sim_flops_per_op", share(d(|f| f.flops), completed)),
        (
            "sim_gmem_bytes_per_op",
            share(d(|f| f.gmem_bytes), completed),
        ),
        (
            "clean_launch_share",
            share(d(|f| f.clean), d(|f| f.dispatches)),
        ),
    ]);
    m
}

/// One caller serves the request mix one request at a time, in groups of
/// four stream positions (three 64³, one 256³). Each position is served
/// protected and unprotected back to back, alternating which runs first,
/// so slow drifts in host speed fall on both sides alike. A side's group
/// time is the sum of its four submit→resolve latencies. Returns the
/// number of groups.
fn paired_groups(
    server: &Server,
    inputs: &Inputs,
    first: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    groups: &mut [Timings; 2],
    m: &mut Measured,
) -> u64 {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut g = 0;
    while g < MIN_PAIRED_GROUPS || Instant::now() < deadline {
        let traced = tracer.filter(|_| (g >> 1) & 1 == 1);
        let (mut p_ms, mut f_ms) = (0.0, 0.0);
        for t in first + g * BIG_EVERY..first + (g + 1) * BIG_EVERY {
            let serve = |policy| one_request(server, inputs, policy, t, traced);
            let (p, f) = paired(
                t % 2 == 0,
                || serve(ProtectionPolicy::AAbft),
                || serve(ProtectionPolicy::Unprotected),
            );
            m.attempted += 2;
            m.failed += u64::from(!p.ok) + u64::from(!f.ok);
            p_ms += p.latency_ms;
            f_ms += f.latency_ms;
        }
        groups[usize::from(traced.is_some())].pair(p_ms, f_ms);
        g += 1;
    }
    g
}
