//! The self-healing campaign layers, measured in the second part of the
//! `multiply_512` traced run: one caller issuing successive
//! `run_selfheal_campaign_with_obs` calls (n=64, bs=8, 32×32×8 tiling,
//! exponent flips at inner-add GEMM sites, 8 trials per call). They run the
//! kernels on the instrumented path with injected faults, plus the heal
//! ladder, so a change to the clean path only should leave them flat.
//!
//! Per-call seeds cycle through `CYCLE` values derived from the workload
//! seed, so every call's `DetectionStats` must equal those of the call one
//! cycle earlier exactly: a determinism check inside every run.

use crate::report::{derive_seed, uniform, Measured};
use crate::stats::{mean, median, share};
use crate::trace::Tracer;
use aabft_core::{AAbftConfig, AAbftGemm, SelfHealingGemm};
use aabft_faults::campaign::run_selfheal_campaign_with_obs;
use aabft_faults::{BitRegion, CampaignConfig, DetectionStats, FaultSpec, InjectScope};
use aabft_gpu_sim::kernels::gemm::GemmTiling;
use aabft_gpu_sim::{Device, FaultSite};
use aabft_matrix::gen::InputClass;
use aabft_matrix::Matrix;
use aabft_obs::Obs;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const N: usize = 64;
const BS: usize = 8;
const TILING: GemmTiling = GemmTiling {
    bm: 32,
    bn: 32,
    bk: 8,
    rx: 4,
    ry: 4,
};
const TRIALS: usize = 8;
/// Distinct per-call seeds.
const CYCLE: usize = 32;
/// At least two seed cycles run, so every seed is checked for repeating.
const MIN_CALLS: usize = 2 * CYCLE;

fn config(seed: u64, call: usize) -> CampaignConfig {
    CampaignConfig {
        n: N,
        input: InputClass::UNIT,
        spec: FaultSpec::single(FaultSite::InnerAdd, BitRegion::Exponent),
        trials: TRIALS,
        seed: derive_seed(seed, 100 + (call % CYCLE) as u64),
        omega: 3.0,
        block_size: BS,
        tiling: TILING,
        faults_per_run: 1,
        scope: InjectScope::GemmSites,
    }
}

/// One fault-free `SelfHealingGemm::multiply` on a fresh device, under a
/// span; true when it verified on the first check.
fn probe(
    heal: &SelfHealingGemm,
    (a, b): (&Matrix<f64>, &Matrix<f64>),
    instrumented: bool,
    tracer: &Tracer,
    op: u64,
) -> bool {
    let mut device = Device::with_defaults();
    device.set_obs(Obs::new_shared());
    device.set_force_instrumented(instrumented);
    let name = if instrumented {
        "instrumented_multiply"
    } else {
        "clean_multiply"
    };
    let healed = tracer.time(None, name, op, || heal.multiply(&device, a, b));
    healed.is_ok_and(|h| h.attempts == 0)
}

/// Runs self-healing campaign calls for `seconds` (and at least
/// `MIN_CALLS`), each followed by a clean and an instrumented fault-free
/// multiply, and adds their per-layer metrics, failures and checks to `m`.
pub fn layers(seed: u64, seconds: f64, tracer: &Tracer, m: &mut Measured) {
    let gemm_config = AAbftConfig::builder()
        .block_size(BS)
        .tiling(TILING)
        .build()
        .expect("valid campaign configuration");
    let heal = SelfHealingGemm::new(AAbftGemm::new(gemm_config));
    let obs = Obs::new_shared();
    let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(seed, 3));
    let (a, b) = (uniform(N, &mut rng), uniform(N, &mut rng));

    let mut first_cycle: Vec<DetectionStats> = Vec::with_capacity(CYCLE);
    let mut cycle_stats = DetectionStats::default();
    let mut cycle_counts = (0, 0, 0, 0);
    let mut stats_repeat = true;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut call = 0usize;
    while call < MIN_CALLS || Instant::now() < deadline {
        let op = call as u64;
        let cfg = config(seed, call);
        let stats = tracer.time(None, "selfheal_campaign", op, || {
            run_selfheal_campaign_with_obs(&heal, &cfg, &obs).stats
        });
        m.attempted += 1;
        m.failed += u64::from(stats.mis_corrected != 0 || stats.unrecovered != 0);
        if call < CYCLE {
            first_cycle.push(stats);
            cycle_stats.merge(&stats);
            if call + 1 == CYCLE {
                let c = |name| obs.metrics.counter(name);
                cycle_counts = (
                    c("recovery.attempts"),
                    c("sim.launches"),
                    c("sim.dispatches"),
                    c("sim.clean_launches"),
                );
            }
        } else {
            stats_repeat &= first_cycle[call % CYCLE] == stats;
        }
        m.attempted += 2;
        m.failed += u64::from(!probe(&heal, (&a, &b), false, tracer, op))
            + u64::from(!probe(&heal, (&a, &b), true, tracer, op));
        call += 1;
    }

    m.checks.push(("detection_stats_repeat", stats_repeat));
    m.info.push(("campaign_calls", call.to_string()));
    m.info.push(("campaign_cycle_calls", CYCLE.to_string()));
    let (attempts, launches, dispatches, clean) = cycle_counts;
    m.values.extend([
        (
            "trial_ms_mean",
            mean(&tracer.durations_ms("selfheal_campaign")) / TRIALS as f64,
        ),
        (
            "clean_multiply_ms_p50",
            median(&tracer.durations_ms("clean_multiply")),
        ),
        (
            "instrumented_multiply_ms_p50",
            median(&tracer.durations_ms("instrumented_multiply")),
        ),
        ("corrected", cycle_stats.corrected as f64),
        ("recomputed", cycle_stats.recomputed as f64),
        ("reran", cycle_stats.reran as f64),
        ("unrecovered", cycle_stats.unrecovered as f64),
        ("mis_corrected", cycle_stats.mis_corrected as f64),
        ("recovery_attempts", attempts as f64),
        (
            "launches_per_trial",
            launches as f64 / (CYCLE * TRIALS) as f64,
        ),
        ("clean_launch_share", share(clean as f64, dispatches as f64)),
    ]);
}
