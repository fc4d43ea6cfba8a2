//! `multiply_512`: one caller alternating a protected A-ABFT multiply with
//! a plain `UnprotectedGemm` on the same 512×512 operands, both on the
//! default 13-SM packed device. This is the paper's own comparison
//! (Table I); the serving layer is bypassed entirely. A traced run ends
//! with the self-healing campaign layers (`crate::campaign`).

use crate::report::{
    bit_identical, derive_seed, paired, repeated_setup, uniform, window, Measured, Timings,
};
use crate::stats::median;
use crate::trace::Tracer;
use aabft_baselines::{ProtectedGemm, UnprotectedGemm};
use aabft_core::{AAbftGemm, AAbftOutcome};
use aabft_gpu_sim::{Device, ExecCtx};
use aabft_matrix::Matrix;
use aabft_obs::Obs;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const N: usize = 512;
const SETUP_REPS: usize = 5;
const WARMUP_PAIRS: usize = 2;
/// Enough pairs that the p90 has at least ten samples beyond it.
const MIN_PAIRS: usize = 120;
/// Share of a traced run given to the self-healing campaign layers.
const CAMPAIGN_SHARE: f64 = 0.3;
/// Phase spans must cover the traced multiply's span to within this share.
const PHASE_SUM_TOLERANCE: f64 = 0.05;

struct Setup {
    a: Matrix<f64>,
    b: Matrix<f64>,
    reference: Matrix<f64>,
    device: Device,
    obs: std::sync::Arc<Obs>,
    gemm: AAbftGemm,
    plain: UnprotectedGemm,
}

fn setup(seed: u64) -> Setup {
    let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(seed, 1));
    let a = uniform(N, &mut rng);
    let b = uniform(N, &mut rng);
    let obs = Obs::new_shared();
    let mut device = Device::with_defaults();
    device.set_obs(obs.clone());
    let gemm = AAbftGemm::default();
    let plain = UnprotectedGemm::new();
    let ctx = ExecCtx::new(&device);
    let reference = plain
        .multiply_on(&ctx, &a, &b)
        .expect("square operands")
        .product;
    for _ in 0..WARMUP_PAIRS {
        gemm.execute(&ctx, &a, &b).expect("square operands");
        plain.multiply_on(&ctx, &a, &b).expect("square operands");
    }
    device.take_log();
    Setup {
        a,
        b,
        reference,
        device,
        obs,
        gemm,
        plain,
    }
}

/// Device and Obs counters, read before and after each protected multiply.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Counts {
    launches: u64,
    dispatches: u64,
    clean: u64,
    flops: u64,
    gmem_bytes: u64,
}

impl Counts {
    fn read(s: &Setup) -> Counts {
        let m = &s.obs.metrics;
        Counts {
            launches: s.device.launches_issued(),
            dispatches: s.device.dispatches(),
            clean: s.device.clean_path_launches(),
            flops: m.counter("sim.flops"),
            gmem_bytes: m.counter("sim.gmem_bytes"),
        }
    }

    fn since(self, before: Counts) -> Counts {
        Counts {
            launches: self.launches - before.launches,
            dispatches: self.dispatches - before.dispatches,
            clean: self.clean - before.clean,
            flops: self.flops - before.flops,
            gmem_bytes: self.gmem_bytes - before.gmem_bytes,
        }
    }
}

/// Runs the protected multiply through the staged API, with a span
/// around each phase call under one span for the whole multiply.
fn staged(s: &Setup, ctx: &ExecCtx<'_>, tracer: &Tracer, op: u64) -> AAbftOutcome {
    let id = tracer.next_id();
    let start = Instant::now();
    let p = Some(id);
    let run = tracer.time(p, "upload", op, || {
        s.gemm.begin(ctx, &s.a, &s.b).expect("square operands")
    });
    tracer.time(p, "encode_gemm", op, || run.encode_and_gemm(ctx));
    tracer.time(p, "reduce", op, || run.reduce(ctx));
    tracer.time(p, "check", op, || run.check(ctx));
    let (outcome, _buffers) = tracer.time(p, "finish", op, || run.finish(ctx));
    tracer.record(id, None, "protected", op, start, Instant::now());
    outcome
}

/// Host bytes the protected multiply copies, computed from its plan:
/// operand upload into the padded layout, readback of the whole augmented
/// product, and the strip to the caller's shape. Labelled as computed.
fn host_bytes_copied(gemm: &AAbftGemm) -> f64 {
    let plan = gemm.plan(N, N, N);
    let words = 2 * N * N + plan.rows.total * plan.cols.total + N * N;
    (words * std::mem::size_of::<f64>()) as f64
}

pub fn run(seed: u64, seconds: f64, tracer: Option<&Tracer>) -> Measured {
    let (s, setup_s) = repeated_setup(SETUP_REPS, || setup(seed), drop);
    let ctx = ExecCtx::new(&s.device);
    let mut m = Measured {
        values: vec![("setup_s", setup_s)],
        ..Default::default()
    };
    // Group 0 is untraced, group 1 traced; without --trace all pairs are group 0.
    let mut groups = [Timings::default(), Timings::default()];
    let mut overhead_x = Vec::new();
    let mut op_counts: Option<Counts> = None;
    let mut counts_repeat = true;

    // A traced run spends its last part on the self-healing campaign layers.
    let multiply_s = match tracer {
        Some(_) => seconds * (1.0 - CAMPAIGN_SHARE),
        None => seconds,
    };
    let loop_start = Instant::now();
    let deadline = loop_start + Duration::from_secs_f64(multiply_s);
    let mut pair = 0usize;
    while pair < MIN_PAIRS || Instant::now() < deadline {
        let op = pair as u64;
        let op_start = Instant::now();
        let traced = tracer.filter(|_| (pair >> 1) & 1 == 1);
        let protected = || {
            let before = Counts::read(&s);
            let t = Instant::now();
            let out = match traced {
                Some(tr) => staged(&s, &ctx, tr, op),
                None => s.gemm.execute(&ctx, &s.a, &s.b).expect("square operands"),
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            (out, ms, Counts::read(&s).since(before))
        };
        let plain = || {
            let t = Instant::now();
            let out = s
                .plain
                .multiply_on(&ctx, &s.a, &s.b)
                .expect("square operands");
            if let Some(tr) = traced {
                tr.record(tr.next_id(), None, "plain", op, t, Instant::now());
            }
            (out, t.elapsed().as_secs_f64() * 1e3)
        };
        let ((prot, prot_ms, counts), (flat, plain_ms)) =
            paired(pair.is_multiple_of(2), protected, plain);
        s.device.take_log();
        let pair_s = op_start.elapsed().as_secs_f64();

        m.attempted += 2;
        m.failed +=
            u64::from(prot.errors_detected() || !bit_identical(&prot.product, &s.reference));
        m.failed += u64::from(!bit_identical(&flat.product, &s.reference));
        match op_counts {
            None => op_counts = Some(counts),
            Some(first) => counts_repeat &= first == counts,
        }

        let g = &mut groups[usize::from(traced.is_some())];
        g.latency_ms.push(prot_ms);
        g.pair(prot_ms, plain_ms);
        // Per second of loop wall time: the plain multiply and everything
        // around the protected call count too.
        g.count(window(loop_start, op_start), 1.0, pair_s);
        overhead_x.push(prot_ms / plain_ms);
        pair += 1;
    }

    let [untraced, traced] = groups;
    m.checks.push(("op_counts_repeat", counts_repeat));
    m.values.extend(untraced.end_to_end());
    m.info.push(("pairs", pair.to_string()));
    if let Some(tr) = tracer {
        m.values.extend(traced.overhead_vs(&untraced));
        for (metric, span) in [
            ("upload_ms_p50", "upload"),
            ("encode_gemm_ms_p50", "encode_gemm"),
            ("reduce_ms_p50", "reduce"),
            ("check_ms_p50", "check"),
            ("finish_ms_p50", "finish"),
        ] {
            m.values.push((metric, median(&tr.durations_ms(span))));
        }
        let shares = tr.child_shares("protected");
        let phase_sum = median(&shares);
        m.checks.push((
            "phase_sum_within_tolerance",
            shares
                .iter()
                .all(|x| (1.0 - PHASE_SUM_TOLERANCE..=1.0 + 1e-9).contains(x)),
        ));
        m.values.push(("phase_sum_share", phase_sum));
        m.values.push(("overhead_x_p50", median(&overhead_x)));
        m.info
            .push(("phase_sum_tolerance", PHASE_SUM_TOLERANCE.to_string()));
        crate::campaign::layers(seed, seconds * CAMPAIGN_SHARE, tr, &mut m);
    }
    let c = op_counts.expect("at least one pair ran");
    m.values.extend([
        ("launches_per_op", c.launches as f64),
        ("dispatches_per_op", c.dispatches as f64),
        ("clean_launches_per_op", c.clean as f64),
        ("sim_flops_per_op", c.flops as f64),
        ("sim_gmem_bytes_per_op", c.gmem_bytes as f64),
        ("host_bytes_copied_per_op", host_bytes_copied(&s.gemm)),
    ]);
    m
}
