//! The benchmark's two workloads and every constant they run with.
//!
//! Rates, ladders, shapes and mixes are fixed here, identical on every
//! commit the benchmark compares; nothing is recalibrated per run.

use cumf_serve::{AnnParams, QuantMode, Retrieval};

/// Latency limit on p99 for the capacity ladder: the engine's default SLO
/// target (`SloConfig::default().target`).
pub const SLO_MS: f64 = 25.0;
/// A run is flagged invalid when the load generator's p99 lateness exceeds
/// this share of [`SLO_MS`].
pub const LATE_LIMIT_SHARE: f64 = 0.5;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Fits a run completes however short `--seconds` are.
pub const MIN_FITS: usize = 2;
/// Items per top-k answer.
pub const K: usize = 10;
/// Ratio between neighbouring ladder rates.
pub const LADDER_RATIO: f64 = 1.08;
/// Ladder rates per workload (a geometric sequence from `Load::ladder_lo`).
pub const LADDER_STEPS: usize = 32;
/// Users on which served top-k is compared with the exact ranking.
pub const RECALL_USERS: usize = 200;
/// Correctness checks per request kind per run (served answers compared
/// with a reference computed by the benchmark).
pub const CHECKS_PER_KIND: usize = 20;
/// Candidate-slate length of rank-items requests.
pub const SLATE: usize = 32;

/// Which model the engine serves.
#[derive(Clone, Copy, Debug)]
pub enum Catalog {
    /// The fitted factors as they are.
    Trained,
    /// The fitted factors expanded to a larger catalog and user population:
    /// row `i` is fitted row `i mod m` plus seeded Gaussian jitter of
    /// `jitter` × the fitted rows' RMS entry, so the served catalog keeps
    /// the fit's structure at a size where scoring is real work.
    Expanded {
        items: usize,
        users: usize,
        jitter: f32,
    },
}

/// Who sends requests.
#[derive(Clone, Copy, Debug)]
pub enum Users {
    /// Weighted by training activity (`RequestSampler::from_dataset`).
    Skewed,
    /// Uniform over the whole served population.
    Uniform,
}

/// Share of each request kind; top-k known users take the remainder.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Share of top-k requests sent as cold fold-ins.
    pub cold_of_topk: f64,
    pub similar_items: f64,
    pub similar_users: f64,
    pub rank: f64,
    pub explain: f64,
}

pub const TOPK_ONLY: Mix = Mix {
    cold_of_topk: 0.0,
    similar_items: 0.0,
    similar_users: 0.0,
    rank: 0.0,
    explain: 0.0,
};

/// Open-loop load: base rate, capacity ladder and the writes beside it.
#[derive(Clone, Copy, Debug)]
pub struct Load {
    pub base_qps: f64,
    /// Seconds of base-rate traffic served after each training epoch.
    pub chunk_s: f64,
    /// `Some(period)`: also publish a new epoch of the served factors every
    /// `period` seconds of each base chunk while reads continue; those are
    /// the publishes `publish_s` reports. `None`: `publish_s` reports the
    /// publish of each epoch's model between phases.
    pub publish_every_s: Option<f64>,
    pub ladder_lo: f64,
    /// Seconds of one capacity probe (traced runs only).
    pub probe_s: f64,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Latent dimension of the fit (Netflix replica, `SizeClass::Small`,
    /// cuMF default solver).
    pub f: usize,
    /// Fixed epoch count of one fit. A run repeats the fit from the same
    /// initial factors until `--seconds` are spent, and serves each epoch's
    /// model before training the next.
    pub fit_epochs: usize,
    pub catalog: Catalog,
    pub users: Users,
    pub mix: Mix,
    pub retrieval: Retrieval,
    pub ann: AnnParams,
    /// Item-range shards; `None` is one per core.
    pub shards: Option<usize>,
    pub load: Load,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "als-mixed",
        why: "f=100 ALS fits (get_hermitian ~3/4 of the epoch) move train_epoch_s and train_to_target_s; five endpoints, cache, fold-in and publishes under load move publish_s and serve_p50_ms (per-layer).",
        f: 100,
        // Test RMSE falls below the 0.92 target at epoch 2 (0.84-0.85 over
        // every seed tried), so each fit reaches it at its last epoch.
        fit_epochs: 2,
        catalog: Catalog::Trained,
        users: Users::Skewed,
        // No traffic mix is measured anywhere in the repository, so these
        // shares are chosen, not derived: known-user top-k, the cached
        // endpoint, stays the majority, and each other endpoint gets a
        // tenth, enough for every round's answer checks.
        mix: Mix {
            cold_of_topk: 0.02,
            similar_items: 0.1,
            similar_users: 0.1,
            rank: 0.1,
            explain: 0.1,
        },
        retrieval: Retrieval::Exact,
        ann: AnnParams {
            k_clusters: 64,
            seed: 0x5EED_C1C5,
            max_iters: 10,
        },
        shards: Some(1),
        // The base rate is the one the committed `BENCH_serve.json` was
        // measured at, a few percent of this workload's capacity. Each
        // round publishes its epoch, then twice more under load, 1 s and
        // 2 s into its 2.5 s chunk: about 15 publishes under load per run,
        // two every 6-7 s of wall time with the epoch trained between
        // chunks. Every publish starts a new cache epoch, so the cache
        // answers about 35 % of its lookups.
        load: Load {
            base_qps: 4_000.0,
            chunk_s: 2.5,
            publish_every_s: Some(1.0),
            ladder_lo: 16_000.0,
            probe_s: 0.6,
        },
    },
    Workload {
        name: "serve-ann",
        why: "a 1e5 x 64 catalog, uniform users, two-stage retrieval (32 clusters, 10 probed, int8): scoring blocks every request, serve::ann runs and recall_at_10 can move.",
        f: 64,
        fit_epochs: 2,
        catalog: Catalog::Expanded {
            items: 100_000,
            users: 100_000,
            jitter: 0.5,
        },
        users: Users::Uniform,
        mix: TOPK_ONLY,
        retrieval: Retrieval::Approx {
            n_probe: 10,
            quant: QuantMode::Int8,
        },
        // ~√n clusters would make each publish's k-means too slow for a
        // repeated set-up; 32 clusters with a short Lloyd loop keep a
        // publish near a second.
        ann: AnnParams {
            k_clusters: 32,
            seed: 0x5EED_C1C5,
            max_iters: 4,
        },
        shards: None,
        // About half of the measured capacity (70-80 req/s), so queueing
        // does not decide the median.
        load: Load {
            base_qps: 40.0,
            chunk_s: 2.0,
            publish_every_s: None,
            ladder_lo: 30.0,
            probe_s: 2.0,
        },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The fixed capacity ladder of a workload.
pub fn ladder(w: &Workload) -> Vec<f64> {
    (0..LADDER_STEPS)
        .map(|i| (w.load.ladder_lo * LADDER_RATIO.powi(i as i32)).round())
        .collect()
}
